#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

namespace wallbench {

namespace {

constexpr std::size_t kKeptSpans = 1 << 16;
constexpr int kLayers = static_cast<int>(Layer::kCount);
constexpr int kCounts = static_cast<int>(Count::kCount);

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Frame {
  int layer;
  std::uint64_t id;
  std::int64_t start;
  std::int64_t child_ns;
};

struct SpanRecord {
  std::uint64_t id;
  std::uint64_t parent;
  int layer;
  std::int64_t start;
  std::int64_t end;
};

// One per thread that ever records; owned by the registry below so the
// totals survive the thread (worker pools join before the report).
struct ThreadRec {
  int index = 0;
  std::vector<Frame> stack;
  LayerTotals layers[kLayers];
  std::uint64_t counts[kCounts] = {};
  std::vector<SpanRecord> kept;
  std::uint64_t spans = 0;
  std::int64_t trace_ns = 0;  // bookkeeping time moved out of the layers

  void clear_totals() {
    std::fill(std::begin(layers), std::end(layers), LayerTotals{});
    std::fill(std::begin(counts), std::end(counts), 0);
    kept.clear();
    spans = 0;
    trace_ns = 0;
  }
};

std::mutex g_mu;
std::vector<std::unique_ptr<ThreadRec>> g_threads;  // guarded by g_mu
std::atomic<bool> g_armed{false};
ThreadRec* g_main = nullptr;  // written by arm(), read after disarm()
std::atomic<std::int64_t> g_timer_live{0};
std::atomic<std::int64_t> g_timer_live_peak{0};
// Bookkeeping cost of one span, measured by calibrate(): the part that lands
// inside the span's own interval, and the part its parent sees around it.
// Both are moved from the layers to trace_ns. Written by arm() before any
// worker thread records.
std::int64_t g_cost_self = 0;
std::int64_t g_cost_parent = 0;

thread_local ThreadRec* t_rec = nullptr;

ThreadRec& rec() {
  if (t_rec == nullptr) {
    auto r = std::make_unique<ThreadRec>();
    r->stack.reserve(64);
    r->kept.reserve(kKeptSpans);
    std::lock_guard<std::mutex> lock(g_mu);
    r->index = static_cast<int>(g_threads.size());
    t_rec = r.get();
    g_threads.push_back(std::move(r));
  }
  return *t_rec;
}

// Times empty spans nested in one parent through the real Scope path and
// keeps the cheapest of several batches, so that the correction never
// takes from a layer more bookkeeping than the spans really cost.
void calibrate(ThreadRec& r) {
  constexpr int kBatch = 2000;
  constexpr int kBatches = 7;
  std::int64_t best_self = std::numeric_limits<std::int64_t>::max();
  std::int64_t best_parent = std::numeric_limits<std::int64_t>::max();
  for (int b = 0; b < kBatches; ++b) {
    r.kept.clear();
    {
      Scope outer(Layer::kHarness);
      for (int i = 0; i < kBatch; ++i) Scope inner(Layer::kHarness);
    }
    std::int64_t inner = 0;
    for (int i = 0; i < kBatch; ++i) inner += r.kept[i].end - r.kept[i].start;
    const SpanRecord& outer = r.kept[kBatch];
    best_self = std::min(best_self, inner / kBatch);
    best_parent =
        std::min(best_parent, (outer.end - outer.start - inner) / kBatch);
  }
  r.clear_totals();
  g_cost_self = std::max<std::int64_t>(best_self, 0);
  g_cost_parent = std::max<std::int64_t>(best_parent, 0);
}

}  // namespace

Scope::Scope(Layer layer) noexcept
    : active_(g_armed.load(std::memory_order_relaxed)) {
  if (!active_) return;
  ThreadRec& r = rec();
  const std::uint64_t id =
      (static_cast<std::uint64_t>(r.index) << 40) | ++r.spans;
  r.stack.push_back(Frame{static_cast<int>(layer), id, now_ns(), 0});
}

Scope::~Scope() {
  if (!active_) return;
  const std::int64_t end = now_ns();
  ThreadRec& r = *t_rec;
  const Frame f = r.stack.back();
  r.stack.pop_back();
  const std::int64_t dur = end - f.start;
  const std::int64_t self = dur - f.child_ns - g_cost_self;
  r.layers[f.layer].calls++;
  r.layers[f.layer].self_ns += self;
  r.trace_ns += g_cost_self;
  std::uint64_t parent = 0;
  if (!r.stack.empty()) {
    r.stack.back().child_ns += dur + g_cost_parent;
    r.trace_ns += g_cost_parent;
    parent = r.stack.back().id;
  }
  if (r.kept.size() < kKeptSpans) {
    r.kept.push_back(SpanRecord{f.id, parent, f.layer, f.start, end});
  }
}

void count(Count c) {
  if (!g_armed.load(std::memory_order_relaxed)) return;
  rec().counts[static_cast<int>(c)]++;
}

void timer_live_add(std::int64_t delta) {
  const std::int64_t live =
      g_timer_live.fetch_add(delta, std::memory_order_relaxed) + delta;
  std::int64_t peak = g_timer_live_peak.load(std::memory_order_relaxed);
  while (live > peak && !g_timer_live_peak.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

void arm() {
  ThreadRec& r = rec();
  g_main = &r;
  g_armed.store(true, std::memory_order_relaxed);
  calibrate(r);
}

void disarm() { g_armed.store(false, std::memory_order_relaxed); }

Totals totals() {
  Totals t;
  t.span_cost_self_ns = g_cost_self;
  t.span_cost_parent_ns = g_cost_parent;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& r : g_threads) {
    for (int l = 0; l < kLayers; ++l) {
      t.all[l].calls += r->layers[l].calls;
      t.all[l].self_ns += r->layers[l].self_ns;
    }
    if (r.get() == g_main) {
      std::copy(std::begin(r->layers), std::end(r->layers), std::begin(t.main));
      t.main_trace_ns = r->trace_ns;
    }
    for (int c = 0; c < kCounts; ++c) t.counts[c] += r->counts[c];
    t.spans += r->spans;
    t.open_frames += r->stack.size();
    t.trace_ns += r->trace_ns;
  }
  for (const LayerTotals& l : t.all) t.negative_layers += l.self_ns < 0;
  t.timer_live_peak = g_timer_live_peak.load(std::memory_order_relaxed);
  return t;
}

bool write_spans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("thread,id,parent,layer,start_ns,end_ns\n", f);
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& r : g_threads) {
    for (const SpanRecord& s : r->kept) {
      std::fprintf(f, "%d,%llu,%llu,%s,%lld,%lld\n", r->index,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   kLayerNames[s.layer], static_cast<long long>(s.start),
                   static_cast<long long>(s.end));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace wallbench
