// Span recording for the traced wallbench binary.
//
// A span is one call into a layer: (layer, start, end, parent). Spans nest
// per thread; a layer's self time is its spans' durations minus the time
// their child spans cover, accumulated online on a per-thread shadow
// stack, so the totals need no post-processing. arm() first measures the
// bookkeeping cost of an empty span (inside the span, and as its parent
// sees it) and every span moves that cost from the layers to a separate
// `trace` total, so layer self times approximate the untraced run's; the
// per-thread layer self times plus that total still sum exactly to the
// root span's duration. The first kKeptSpans spans of each thread are also
// kept verbatim and can be written out at exit (--spans).
//
// In the untraced binary (WALLBENCH_TRACED undefined) WB_SPAN expands to
// nothing and none of this is linked.
#pragma once

#include <cstdint>
#include <string>

namespace wallbench {

// The src/ modules, plus the benchmark's own driver code (harness). core
// and os are split where their sub-modules do distinct work.
enum class Layer : int {
  kHarness,
  kApi,
  kCoreLib,
  kCoreRegistry,
  kCoreNetio,
  kProto,
  kTimer,
  kBuf,
  kFilter,
  kOs,
  kOsExec,
  kHw,
  kNet,
  kSim,
  kBaseline,
  kCount,
};

inline constexpr const char* kLayerNames[] = {
    "harness", "api",  "core.lib", "core.registry", "core.netio",
    "proto",   "timer", "buf",     "filter",        "os",
    "os.exec", "hw",   "net",      "sim",           "baseline",
};
static_assert(sizeof kLayerNames / sizeof kLayerNames[0] ==
              static_cast<std::size_t>(Layer::kCount));

#if defined(WALLBENCH_TRACED)

class Scope {
 public:
  explicit Scope(Layer layer) noexcept;
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool active_;
};

// Event counts the interposers take at the same boundaries as the spans.
enum class Count : int {
  kTimerSchedules,
  kTimerCancelHits,
  kLinkTransmits,
  kPoolAcquires,
  kCount,
};
void count(Count c);
// Live timers: scheduled, not yet fired or cancelled (global, all threads).
void timer_live_add(std::int64_t delta);

struct LayerTotals {
  std::uint64_t calls = 0;
  std::int64_t self_ns = 0;
};
struct Totals {
  LayerTotals all[static_cast<int>(Layer::kCount)];   // every thread
  LayerTotals main[static_cast<int>(Layer::kCount)];  // arming thread only
  std::uint64_t counts[static_cast<int>(Count::kCount)] = {};
  std::int64_t timer_live_peak = 0;
  std::uint64_t spans = 0;
  // Layers whose total self time is negative. Single spans of near-empty
  // functions can come out slightly negative after the correction; a
  // layer total cannot unless the correction is wrong.
  std::uint64_t negative_layers = 0;
  std::uint64_t open_frames = 0;    // frames still open when read
  // Span bookkeeping moved out of the layers (see below), all threads and
  // the arming thread alone.
  std::int64_t trace_ns = 0;
  std::int64_t main_trace_ns = 0;
  std::int64_t span_cost_self_ns = 0;
  std::int64_t span_cost_parent_ns = 0;
};

// Spans are recorded only between arm() and disarm(), so world set-up and
// teardown stay out of the per-layer totals. The thread calling arm() is
// the "main" thread of Totals::main.
void arm();
void disarm();
[[nodiscard]] Totals totals();
// CSV: thread,id,parent,layer,start_ns,end_ns (parent 0 = root).
bool write_spans(const std::string& path);

#define WB_CAT2(a, b) a##b
#define WB_CAT(a, b) WB_CAT2(a, b)
#define WB_SPAN(layer) \
  ::wallbench::Scope WB_CAT(wb_span_, __LINE__)(::wallbench::Layer::layer)

#else

#define WB_SPAN(layer) static_cast<void>(0)

#endif

}  // namespace wallbench
