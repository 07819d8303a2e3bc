// wallbench driver: one repetition of one workload, measured in wall-clock
// time, checked, and reported as one JSON line on stdout. run.py starts a
// fresh process per repetition (so peak RSS and set-up are per repetition),
// repeats for the run's time budget and combines the repetitions' timings
// slice by slice (one slice per simulated second).
//
// The workloads drive src/ only through its public API (api::Testbed,
// api::NetSystem, api::FabricBed, os::World and public counters). Payload
// generation and checking are this file's own, so a change to src/ cannot
// change what the benchmark asks for or how it checks the answer.
//
// Usage: wallbench --workload <bulk_eth|rr_small|fabric_serial|fabric_par>
//                  [--seed N] [--size full|short] [--spans PATH]
//
// Built twice: `wallbench` (WB_SPAN compiled out) and `wallbench_traced`
// (spans on; adds per-layer metrics under "layers", see trace.h).
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/fabric_bed.h"
#include "api/net_system.h"
#include "api/testbed.h"
#include "os/world.h"
#include "sim/time.h"
#include "trace.h"

namespace {

namespace api = ulnet::api;
namespace buf = ulnet::buf;
namespace os = ulnet::os;
namespace proto = ulnet::proto;
namespace sim = ulnet::sim;

#ifndef WALLBENCH_BUILD_TYPE
#define WALLBENCH_BUILD_TYPE "unknown"
#endif

// ---------------------------------------------------------------------------
// Clocks and digests
// ---------------------------------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// User+sys CPU time of the whole process, all threads.
double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

constexpr std::uint64_t kFnvSeed = 0xCBF29CE484222325ull;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t fnv1a(const std::string& s) {
  return fnv1a(kFnvSeed, s.data(), s.size());
}

std::string fmt(const char* f, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* f, ...) {
  char b[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(b, sizeof b, f, ap);
  va_end(ap);
  return b;
}

// ---------------------------------------------------------------------------
// Seeded payload
// ---------------------------------------------------------------------------

// A byte stream with period kPeriod drawn from splitmix64(seed). The period
// is prime, so a block delivered at the wrong offset never matches; the
// buffer repeats its head for kMaxSlice bytes so any slice is contiguous
// and sending costs no generation.
class Pattern {
 public:
  static constexpr std::size_t kPeriod = 65521;
  static constexpr std::size_t kMaxSlice = 4096;

  explicit Pattern(std::uint64_t seed) : bytes_(kPeriod + kMaxSlice) {
    std::uint64_t x = seed;
    for (std::size_t i = 0; i < kPeriod; ++i) {
      x += 0x9E3779B97F4A7C15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      bytes_[i] = static_cast<std::uint8_t>(z ^ (z >> 31));
    }
    std::copy_n(bytes_.begin(), kMaxSlice, bytes_.begin() + kPeriod);
  }

  // n <= kMaxSlice.
  [[nodiscard]] buf::ByteView slice(std::size_t offset, std::size_t n) const {
    return {bytes_.data() + offset % kPeriod, n};
  }

  [[nodiscard]] bool matches(std::size_t offset, buf::ByteView data) const {
    std::size_t i = 0;
    while (i < data.size()) {
      const std::size_t n = std::min(kMaxSlice, data.size() - i);
      if (std::memcmp(data.data() + i, bytes_.data() + (offset + i) % kPeriod,
                      n) != 0) {
        return false;
      }
      i += n;
    }
    return true;
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

// Every call the harness makes into the socket library is a core.lib span
// in the traced binary (NetSystem is implemented by core::UserLevelApp).
template <class F>
auto lib(F&& f) -> decltype(f()) {
  WB_SPAN(kCoreLib);
  return f();
}

// ---------------------------------------------------------------------------
// Measurement bracket
// ---------------------------------------------------------------------------

// The measured phase is cut into slices of one simulated second each. A
// seed fixes the work of every slice, so run.py can compare the same slice
// across repetitions (see README.md, "End-to-end metrics").
struct Timing {
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<double> slice_wall_s;
  std::vector<double> slice_cpu_s;
};

// Brackets the measured phase (first simulated event to completion): wall
// and CPU clocks, and in the traced binary the recording window and the
// harness root span. lap() closes one slice.
class Measured {
 public:
  explicit Measured(Timing& t) : t_(t) {
#if defined(WALLBENCH_TRACED)
    wallbench::arm();  // calibrates first, so before the clocks start
#endif
    cpu0_ = cpu_lap_ = cpu_now_s();
    wall0_ = wall_lap_ = now_s();
#if defined(WALLBENCH_TRACED)
    root_.emplace(wallbench::Layer::kHarness);
#endif
  }
  void lap() {
    const double wall = now_s();
    const double cpu = cpu_now_s();
    t_.slice_wall_s.push_back(wall - wall_lap_);
    t_.slice_cpu_s.push_back(cpu - cpu_lap_);
    wall_lap_ = wall;
    cpu_lap_ = cpu;
  }
  void finish() {
#if defined(WALLBENCH_TRACED)
    root_.reset();
    wallbench::disarm();
#endif
    t_.wall_s = now_s() - wall0_;
    t_.cpu_s = cpu_now_s() - cpu0_;
  }

 private:
  Timing& t_;
  double cpu0_ = 0;
  double wall0_ = 0;
  double cpu_lap_ = 0;
  double wall_lap_ = 0;
#if defined(WALLBENCH_TRACED)
  std::optional<wallbench::Scope> root_;
#endif
};

// ---------------------------------------------------------------------------
// What a workload reports
// ---------------------------------------------------------------------------

struct TcpTotals {
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_received = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t handshakes = 0;  // active opens completed by registries
};

struct Outcome {
  bool ok = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string digest_text;
  std::string sim_json;  // the simulated results, "name":value,...
  // Simulator counters read after the run (feed per-layer ratios).
  sim::Metrics metrics;
  std::uint64_t events = 0;
  std::uint64_t event_cancels = 0;
  os::World::ExecStats exec;
  TcpTotals tcp;
};

void read_world(os::World& w, Outcome& o) {
  o.metrics = w.aggregate_metrics();
  o.events = w.loop().executed();
  o.event_cancels = w.loop().cancels();
  for (const auto& p : w.partitions()) {
    o.events += p->loop.executed();
    o.event_cancels += p->loop.cancels();
  }
  o.exec = w.exec_stats();
}

void add_tcp(TcpTotals& t, const proto::TcpCounters& c, bool registry) {
  t.segments_sent += c.segments_sent;
  t.segments_received += c.segments_received;
  t.retransmits += c.retransmits;
  if (registry) t.handshakes += c.conns_opened;
}

std::string tcp_text(const proto::TcpCounters& c) {
  return fmt(" so=%llu si=%llu bo=%llu bi=%llu rtx=%llu to=%llu",
             static_cast<unsigned long long>(c.segments_sent),
             static_cast<unsigned long long>(c.segments_received),
             static_cast<unsigned long long>(c.bytes_sent),
             static_cast<unsigned long long>(c.bytes_received),
             static_cast<unsigned long long>(c.retransmits),
             static_cast<unsigned long long>(c.timeouts));
}

// Library and registry TCP counters of both testbed hosts: digest text and
// totals.
std::string testbed_tcp(api::Testbed& bed, TcpTotals& t) {
  std::string text;
  for (auto* org : {bed.user_org_a(), bed.user_org_b()}) {
    const proto::TcpCounters& c = org->registry().stack().tcp().counters();
    add_tcp(t, c, true);
    text += "\nreg" + tcp_text(c);
  }
  for (auto* app : {bed.user_app_a(), bed.user_app_b()}) {
    const proto::TcpCounters& c = app->library_stack().tcp().counters();
    add_tcp(t, c, false);
    text += "\nlib" + tcp_text(c);
  }
  return text;
}

// Loop deadline in simulated time; a workload that needs longer has hung.
constexpr sim::Time kDeadline = 3600 * sim::kSec;

template <class Done>
void run_testbed(os::World& w, Measured& m, Done done) {
  while (!done() && w.now() < kDeadline) {
    w.run_until(w.now() + sim::kSec);
    m.lap();
  }
}

// ---------------------------------------------------------------------------
// bulk_eth: one connection, one-way stream of 4 KB writes, every byte checked
// ---------------------------------------------------------------------------

class BulkEth {
 public:
  static constexpr std::size_t kWrite = 4096;
  static constexpr std::uint16_t kPort = 5001;

  BulkEth(api::Testbed& bed, const Pattern& pat, std::size_t total)
      : bed_(bed), pat_(pat), total_(total), bad_(blocks(), 0) {}

  void start() {
    api::NetSystem& server = bed_.app_b();
    api::NetSystem& client = bed_.app_a();
    server.run_app([this, &server](sim::TaskCtx&) {
      WB_SPAN(kHarness);
      lib([&] {
        return server.listen(kPort, [this, &server](api::SocketId id) {
          WB_SPAN(kHarness);
          server_sock_ = id;
          api::SocketEvents evs;
          evs.on_readable = [this, &server](std::size_t) {
            WB_SPAN(kHarness);
            receive(server);
          };
          evs.on_eof = [this, &server] {
            WB_SPAN(kHarness);
            lib([&] { server.close(server_sock_); });
          };
          evs.on_closed = [this](const std::string&) { finished_ = true; };
          return evs;
        });
      });
    });
    // The listener registers through the registry first (IPC), as in the
    // paper's measurement programs.
    bed_.world().loop().schedule_in(50 * sim::kMs, [this, &client] {
      WB_SPAN(kHarness);
      lib([&] {
        client.run_app([this, &client](sim::TaskCtx&) {
          WB_SPAN(kHarness);
          api::SocketEvents evs;
          evs.on_established = [this] { WB_SPAN(kHarness); pump(); };
          evs.on_writable = [this, &client] {
            WB_SPAN(kHarness);
            lib([&] {
              client.run_app([this](sim::TaskCtx&) {
                WB_SPAN(kHarness);
                pump();
              });
            });
          };
          evs.on_closed = [this](const std::string& reason) {
            if (!reason.empty()) finished_ = true;
          };
          lib([&] {
            client.connect(bed_.ip_b(), kPort, std::move(evs),
                           [this](api::SocketId id) { client_sock_ = id; });
          });
        });
      });
    });
  }

  [[nodiscard]] bool finished() const { return finished_; }

  Outcome outcome() {
    Outcome o;
    std::uint64_t good = 0;
    for (std::size_t b = 0; b < rcvd_ / kWrite; ++b) good += bad_[b] == 0;
    o.attempted = blocks();
    o.failed = o.attempted - good;
    o.ok = finished_ && o.failed == 0 && rcvd_ == total_;
    const double goodput =
        last_ > first_ ? static_cast<double>(rcvd_) * 8.0 /
                             sim::to_sec(last_ - first_) / 1e6
                       : 0.0;
    o.sim_json = fmt("\"sim_goodput_mbps\":%.6f,\"sim_seconds\":%.6f",
                     goodput, sim::to_sec(bed_.world().now()));
    read_world(bed_.world(), o);
    o.digest_text = fmt("bulk_eth total=%zu rcvd=%zu good=%llu first=%lld "
                        "last=%lld\n",
                        total_, rcvd_, static_cast<unsigned long long>(good),
                        static_cast<long long>(first_),
                        static_cast<long long>(last_)) +
                    o.metrics.dump_json() + testbed_tcp(bed_, o.tcp);
    return o;
  }

 private:
  [[nodiscard]] std::size_t blocks() const {
    return (total_ + kWrite - 1) / kWrite;
  }

  // One write per task (blocking-write semantics); on a short write the
  // rest waits for on_writable.
  void pump() {
    api::NetSystem& client = bed_.app_a();
    if (sent_ < total_) {
      const std::size_t n = std::min(kWrite, total_ - sent_);
      const std::size_t took =
          lib([&] { return client.send(client_sock_, pat_.slice(sent_, n)); });
      sent_ += took;
      if (took < n) return;
      lib([&] {
        client.run_app([this](sim::TaskCtx&) {
          WB_SPAN(kHarness);
          pump();
        });
      });
      return;
    }
    if (!close_issued_) {
      close_issued_ = true;
      lib([&] { client.close(client_sock_); });
    }
  }

  // Checks each received byte against the pattern, per 4 KB write.
  void receive(api::NetSystem& server) {
    const buf::Bytes data = lib([&] {
      return server.recv(server_sock_, std::numeric_limits<std::size_t>::max());
    });
    if (data.empty()) return;
    std::size_t i = 0;
    while (i < data.size()) {
      const std::size_t off = rcvd_ + i;
      const std::size_t block = off / kWrite;
      const std::size_t n = std::min(data.size() - i, (block + 1) * kWrite - off);
      // Bytes past the stream's end fail the run through rcvd_ != total_.
      if (block < bad_.size() &&
          !pat_.matches(off, buf::ByteView(data.data() + i, n))) {
        bad_[block] = 1;
      }
      i += n;
    }
    const sim::Time now = bed_.world().now();
    if (rcvd_ == 0) first_ = now;
    last_ = now;
    rcvd_ += data.size();
  }

  api::Testbed& bed_;
  const Pattern& pat_;
  std::size_t total_;
  std::vector<std::uint8_t> bad_;
  api::SocketId client_sock_ = api::kInvalidSocket;
  api::SocketId server_sock_ = api::kInvalidSocket;
  std::size_t sent_ = 0;
  std::size_t rcvd_ = 0;
  sim::Time first_ = 0;
  sim::Time last_ = 0;
  bool close_issued_ = false;
  bool finished_ = false;
};

// ---------------------------------------------------------------------------
// rr_small: one persistent connection, one outstanding 64-byte request,
// echoed back and matched
// ---------------------------------------------------------------------------

class RrSmall {
 public:
  static constexpr std::size_t kMsg = 64;
  static constexpr std::uint16_t kPort = 5002;

  RrSmall(api::Testbed& bed, const Pattern& pat, int rounds)
      : bed_(bed), pat_(pat), rounds_(rounds) {
    rtts_.reserve(static_cast<std::size_t>(rounds));
  }

  void start() {
    api::NetSystem& server = bed_.app_b();
    api::NetSystem& client = bed_.app_a();
    server.run_app([this, &server](sim::TaskCtx&) {
      WB_SPAN(kHarness);
      lib([&] {
        return server.listen(kPort, [this, &server](api::SocketId id) {
          WB_SPAN(kHarness);
          server_sock_ = id;
          api::SocketEvents evs;
          evs.on_readable = [this, &server](std::size_t) {
            WB_SPAN(kHarness);
            const buf::Bytes data = lib([&] {
              return server.recv(server_sock_,
                                 std::numeric_limits<std::size_t>::max());
            });
            echo_.insert(echo_.end(), data.begin(), data.end());
            echo();
          };
          evs.on_writable = [this] {
            WB_SPAN(kHarness);
            echo();
          };
          evs.on_eof = [this, &server] {
            WB_SPAN(kHarness);
            lib([&] { server.close(server_sock_); });
          };
          evs.on_closed = [this](const std::string&) { finished_ = true; };
          return evs;
        });
      });
    });
    bed_.world().loop().schedule_in(50 * sim::kMs, [this, &client] {
      WB_SPAN(kHarness);
      lib([&] {
        client.run_app([this, &client](sim::TaskCtx&) {
          WB_SPAN(kHarness);
          api::SocketEvents evs;
          evs.on_established = [this] {
            WB_SPAN(kHarness);
            begin_round();
          };
          evs.on_writable = [this] {
            WB_SPAN(kHarness);
            send_request();
          };
          evs.on_readable = [this](std::size_t) {
            WB_SPAN(kHarness);
            receive();
          };
          evs.on_closed = [this](const std::string& reason) {
            if (!reason.empty()) finished_ = true;
          };
          lib([&] {
            client.connect(bed_.ip_b(), kPort, std::move(evs),
                           [this](api::SocketId id) { client_sock_ = id; });
          });
        });
      });
    });
  }

  [[nodiscard]] bool finished() const { return finished_; }

  Outcome outcome() {
    Outcome o;
    o.attempted = static_cast<std::uint64_t>(rounds_);
    o.failed = o.attempted - matched_;
    o.ok = finished_ && o.failed == 0;
    std::vector<sim::Time> sorted = rtts_;
    std::sort(sorted.begin(), sorted.end());
    auto pct = [&](double q) {
      if (sorted.empty()) return 0.0;
      const auto i = static_cast<std::size_t>(
          q * static_cast<double>(sorted.size() - 1) + 0.5);
      return sim::to_us(sorted[i]);
    };
    o.sim_json = fmt("\"sim_rtt_p50_us\":%.3f,\"sim_rtt_p99_us\":%.3f,"
                     "\"sim_seconds\":%.6f",
                     pct(0.50), pct(0.99), sim::to_sec(bed_.world().now()));
    read_world(bed_.world(), o);
    const std::uint64_t rtt_hash =
        fnv1a(kFnvSeed, rtts_.data(), rtts_.size() * sizeof(sim::Time));
    o.digest_text = fmt("rr_small rounds=%d matched=%llu rtts=%016llx\n",
                        rounds_, static_cast<unsigned long long>(matched_),
                        static_cast<unsigned long long>(rtt_hash)) +
                    o.metrics.dump_json() + testbed_tcp(bed_, o.tcp);
    return o;
  }

 private:
  void begin_round() {
    round_start_ = bed_.world().now();
    req_sent_ = 0;
    resp_.clear();
    send_request();
  }

  [[nodiscard]] buf::ByteView request() const {
    return pat_.slice(static_cast<std::size_t>(done_) * kMsg, kMsg);
  }

  void send_request() {
    if (done_ >= rounds_ || req_sent_ >= kMsg) return;
    api::NetSystem& client = bed_.app_a();
    req_sent_ += lib([&] {
      return client.send(client_sock_, request().subspan(req_sent_));
    });
  }

  void echo() {
    if (echo_sent_ >= echo_.size()) return;
    api::NetSystem& server = bed_.app_b();
    echo_sent_ += lib([&] {
      return server.send(server_sock_, buf::ByteView(echo_).subspan(echo_sent_));
    });
    if (echo_sent_ == echo_.size()) {
      echo_.clear();
      echo_sent_ = 0;
    }
  }

  void receive() {
    api::NetSystem& client = bed_.app_a();
    const buf::Bytes data = lib([&] {
      return client.recv(client_sock_, std::numeric_limits<std::size_t>::max());
    });
    resp_.insert(resp_.end(), data.begin(), data.end());
    if (resp_.size() < kMsg) return;
    rtts_.push_back(bed_.world().now() - round_start_);
    const buf::ByteView want = request();
    if (resp_.size() == kMsg &&
        std::equal(resp_.begin(), resp_.end(), want.begin())) {
      matched_++;
    }
    if (++done_ < rounds_) {
      lib([&] {
        client.run_app([this](sim::TaskCtx&) {
          WB_SPAN(kHarness);
          begin_round();
        });
      });
    } else {
      lib([&] { client.close(client_sock_); });
    }
  }

  api::Testbed& bed_;
  const Pattern& pat_;
  int rounds_;
  api::SocketId client_sock_ = api::kInvalidSocket;
  api::SocketId server_sock_ = api::kInvalidSocket;
  int done_ = 0;
  std::uint64_t matched_ = 0;
  std::size_t req_sent_ = 0;
  buf::Bytes resp_;
  buf::Bytes echo_;
  std::size_t echo_sent_ = 0;
  sim::Time round_start_ = 0;
  std::vector<sim::Time> rtts_;
  bool finished_ = false;
};

// ---------------------------------------------------------------------------
// Workload runners
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool short_size = false;
  std::string spans_path;
};

template <class Workload, class... Args>
Outcome run_testbed_workload(const Options& opt, Timing& t, Args... args) {
  const Pattern pat(opt.seed);
  const double s0 = now_s();
  api::Testbed bed(api::OrgType::kUserLevel, api::LinkType::kEthernet,
                   opt.seed);
  Workload w(bed, pat, args...);
  w.start();
  t.setup_s = now_s() - s0;

  Measured m(t);
  run_testbed(bed.world(), m, [&] { return w.finished(); });
  m.finish();
  return w.outcome();
}

// Parses the per-pair TCP counter lines of FabricBed::fingerprint_text().
TcpTotals fabric_tcp(const std::string& text) {
  TcpTotals t;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    char tag[8] = {};
    unsigned long long so = 0, si = 0, bo = 0, bi = 0, rtx = 0, to = 0, da = 0,
                       pa = 0, ooo = 0, co = 0, ca = 0;
    if (std::sscanf(line.c_str(),
                    " %7s so=%llu si=%llu bo=%llu bi=%llu rtx=%llu to=%llu "
                    "da=%llu pa=%llu ooo=%llu co=%llu ca=%llu",
                    tag, &so, &si, &bo, &bi, &rtx, &to, &da, &pa, &ooo, &co,
                    &ca) != 12) {
      continue;
    }
    t.segments_sent += so;
    t.segments_received += si;
    t.retransmits += rtx;
    if (std::strcmp(tag, "creg") == 0 || std::strcmp(tag, "sreg") == 0) {
      t.handshakes += co;
    }
  }
  return t;
}

Outcome run_fabric(const Options& opt, Timing& t, bool parallel) {
  api::FabricConfig cfg;
  cfg.pairs = opt.short_size ? 2 : 16;
  cfg.conns_per_pair = opt.short_size ? 32 : 640;
  cfg.seed = opt.seed;
#if defined(WALLBENCH_TRACED)
  // Fills the wall-clock fields of World::exec_stats(); sampling happens
  // at window barriers and does not perturb the simulation.
  cfg.telemetry_cadence = 100 * sim::kMs;
  cfg.telemetry_capacity = 64;
#endif
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int threads = parallel ? static_cast<int>(std::min(4u, hw)) : 1;

  const double s0 = now_s();
  api::FabricBed bed(parallel ? os::PartitionMode::kPartitioned
                              : os::PartitionMode::kShardedSerial,
                     cfg);
  t.setup_s = now_s() - s0;

  // FabricBed::run advances in slices of one simulated second up to its
  // deadline, so raising the deadline by a second per call runs the same
  // slices as one call would, and times each. It stops advancing once the
  // fabric has finished.
  Measured m(t);
  bool ran = false;
  for (sim::Time until = sim::kSec; until <= kDeadline; until += sim::kSec) {
    ran = bed.run(threads, until);
    m.lap();
    if (ran || bed.world().now() < until) break;
  }
  m.finish();

  Outcome o;
  const int conns = bed.total_conns();
  o.attempted = static_cast<std::uint64_t>(conns);
  o.ok = ran && bed.peak_established() == conns;
  // FabricBed reports success for the fabric as a whole.
  o.failed = o.ok ? 0 : o.attempted;
  o.sim_json = fmt("\"sim_conns_peak\":%d,\"sim_seconds\":%.6f",
                   bed.peak_established(), sim::to_sec(bed.world().now()));
  read_world(bed.world(), o);
  const std::string fp = bed.fingerprint_text();
  o.tcp = fabric_tcp(fp);
  o.digest_text = fmt("fabric conns=%d ran=%d peak=%d\n", conns, ran ? 1 : 0,
                      bed.peak_established()) +
                  fp;
  return o;
}

// ---------------------------------------------------------------------------
// Per-layer metrics (traced binary)
// ---------------------------------------------------------------------------

#if defined(WALLBENCH_TRACED)
double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string layer_json(const Outcome& o, double wall_s) {
  const wallbench::Totals tot = wallbench::totals();
  auto L = [&](wallbench::Layer l) -> const wallbench::LayerTotals& {
    return tot.all[static_cast<int>(l)];
  };
  auto self_ms = [&](wallbench::Layer l) {
    return static_cast<double>(L(l).self_ns) / 1e6;
  };
  auto cnt = [&](wallbench::Count c) {
    return static_cast<double>(tot.counts[static_cast<int>(c)]);
  };
  using wallbench::Count;
  using wallbench::Layer;
  const sim::Metrics& m = o.metrics;
  const double pkts = static_cast<double>(m.packets_tx + m.packets_rx);
  const double segments =
      static_cast<double>(o.tcp.segments_sent + o.tcp.segments_received);
  const double timer_ops = static_cast<double>(L(Layer::kTimer).calls);
  std::uint64_t busy = 0, stall = 0;
  for (auto v : o.exec.part_busy_ns) busy += v;
  for (auto v : o.exec.part_stall_ns) stall += v;

  std::string j;
  auto put = [&](const char* name, double v) {
    j += fmt("%s\"%s\":%.9g", j.empty() ? "" : ",", name, v);
  };
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    put((std::string(wallbench::kLayerNames[l]) + ".calls").c_str(),
        static_cast<double>(tot.all[l].calls));
  }
  put("timer.ops", timer_ops);
  put("timer.self_ms", self_ms(Layer::kTimer));
  put("timer.ns_per_op",
      ratio(static_cast<double>(L(Layer::kTimer).self_ns), timer_ops));
  put("timer.live_peak", static_cast<double>(tot.timer_live_peak));
  put("timer.cancel_frac",
      ratio(cnt(Count::kTimerCancelHits), cnt(Count::kTimerSchedules)));
  put("sim.events", static_cast<double>(o.events));
  put("sim.self_ms", self_ms(Layer::kSim));
  put("sim.ns_per_event", ratio(static_cast<double>(L(Layer::kSim).self_ns),
                                static_cast<double>(o.events)));
  put("sim.cancel_frac", ratio(static_cast<double>(o.event_cancels),
                               static_cast<double>(o.events + o.event_cancels)));
  put("buf.self_ms", self_ms(Layer::kBuf));
  put("buf.pool_acquires_per_pkt", ratio(cnt(Count::kPoolAcquires), pkts));
  put("buf.pool_hit_frac",
      ratio(static_cast<double>(m.pool_hits),
            static_cast<double>(m.pool_hits + m.pool_misses)));
  put("buf.bytes_copied_per_pkt",
      ratio(static_cast<double>(m.payload_bytes_copied + m.header_bytes_copied),
            pkts));
  put("buf.payload_copy_frac",
      ratio(static_cast<double>(m.payload_bytes_copied),
            static_cast<double>(m.payload_bytes_copied + m.payload_bytes_elided)));
  put("proto.self_ms", self_ms(Layer::kProto));
  put("proto.segments", segments);
  put("proto.ns_per_segment",
      ratio(static_cast<double>(L(Layer::kProto).self_ns), segments));
  put("proto.rtx_frac", ratio(static_cast<double>(o.tcp.retransmits),
                              static_cast<double>(o.tcp.segments_sent)));
  put("core.netio.self_ms", self_ms(Layer::kCoreNetio));
  put("core.netio.demux_hash_hit_frac",
      ratio(static_cast<double>(m.demux_hash_hits),
            static_cast<double>(m.demux_hash_hits + m.demux_fallback_walks)));
  put("core.netio.ring_drops", static_cast<double>(m.netio_ring_drops));
  put("core.lib.self_ms", self_ms(Layer::kCoreLib));
  put("core.registry.self_ms", self_ms(Layer::kCoreRegistry));
  put("core.registry.handshakes", static_cast<double>(o.tcp.handshakes));
  put("core.registry.sweeps", static_cast<double>(m.registry_handshake_sweeps));
  put("os.self_ms", self_ms(Layer::kOs));
  put("os.ipc_messages", static_cast<double>(m.ipc_messages));
  put("os.context_switches", static_cast<double>(m.context_switches));
  put("os.semaphore_wakeups", static_cast<double>(m.semaphore_wakeups));
  put("os.exec.self_ms", self_ms(Layer::kOsExec));
  put("os.exec.windows", static_cast<double>(o.exec.windows));
  put("os.exec.busy_ms", static_cast<double>(busy) / 1e6);
  put("os.exec.stall_ms", static_cast<double>(stall) / 1e6);
  put("os.exec.stall_frac", ratio(static_cast<double>(stall),
                                  static_cast<double>(busy + stall)));
  put("os.exec.mailbox_entries", static_cast<double>(o.exec.mailbox_entries));
  put("os.exec.mailbox_depth_hw", static_cast<double>(o.exec.mailbox_depth_hw));
  put("net.self_ms", self_ms(Layer::kNet));
  put("net.frames", cnt(Count::kLinkTransmits));
  put("net.ns_per_frame", ratio(static_cast<double>(L(Layer::kNet).self_ns),
                                cnt(Count::kLinkTransmits)));
  put("net.frames_lost", static_cast<double>(m.link_frames_lost));
  put("hw.self_ms", self_ms(Layer::kHw));
  put("hw.interrupts", static_cast<double>(m.interrupts));
  put("hw.rx_dropped", static_cast<double>(m.nic_rx_dropped + m.nic_ring_drops));
  put("api.self_ms", self_ms(Layer::kApi));
  put("harness.self_ms", self_ms(Layer::kHarness));
  put("filter.self_ms", self_ms(Layer::kFilter));
  put("baseline.self_ms", self_ms(Layer::kBaseline));
  put("trace.spans", static_cast<double>(tot.spans));
  put("trace.self_ms", static_cast<double>(tot.trace_ns) / 1e6);
  put("trace.span_cost_ns", static_cast<double>(tot.span_cost_self_ns +
                                                tot.span_cost_parent_ns));

  // Span accounting: on the thread that ran the root span, layer self
  // times plus the bookkeeping moved out of them partition the measured
  // wall time.
  std::int64_t main_sum = tot.main_trace_ns;
  for (const auto& lt : tot.main) main_sum += lt.self_ns;
  return "\"layers\":{" + j + "},\"span_check\":" +
         fmt("{\"main_self_sum_s\":%.9f,\"wall_s\":%.9f,"
             "\"negative_layers\":%llu,\"open\":%llu}",
             static_cast<double>(main_sum) / 1e9, wall_s,
             static_cast<unsigned long long>(tot.negative_layers),
             static_cast<unsigned long long>(tot.open_frames));
}
#endif

int usage() {
  std::fprintf(stderr,
               "usage: wallbench --workload <bulk_eth|rr_small|fabric_serial|"
               "fabric_par> [--seed N] [--size full|short] [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--size") {
      if (v != "full" && v != "short") return usage();
      opt.short_size = v == "short";
    } else if (a == "--spans") {
      opt.spans_path = v;
    } else {
      return usage();
    }
  }

  Timing t;
  Outcome o;
  if (opt.workload == "bulk_eth") {
    o = run_testbed_workload<BulkEth>(
        opt, t, static_cast<std::size_t>(opt.short_size ? 4 : 64) << 20);
  } else if (opt.workload == "rr_small") {
    o = run_testbed_workload<RrSmall>(opt, t, opt.short_size ? 2000 : 50000);
  } else if (opt.workload == "fabric_serial") {
    o = run_fabric(opt, t, false);
  } else if (opt.workload == "fabric_par") {
    o = run_fabric(opt, t, true);
  } else {
    return usage();
  }

  const std::uint64_t pkts = o.metrics.packets_tx + o.metrics.packets_rx;
  auto json_list = [](const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      s += fmt("%s%.9f", i ? "," : "", v[i]);
    }
    return s + "]";
  };
  std::string extra = ",\"slice_wall_s\":" + json_list(t.slice_wall_s) +
                      ",\"slice_cpu_s\":" + json_list(t.slice_cpu_s);
#if defined(WALLBENCH_TRACED)
  extra += "," + layer_json(o, t.wall_s);
  if (!opt.spans_path.empty() && !wallbench::write_spans(opt.spans_path)) {
    std::fprintf(stderr, "wallbench: cannot write %s\n",
                 opt.spans_path.c_str());
    return 2;
  }
#endif
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"size\":\"%s\",\"traced\":%s,"
      "\"ok\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"setup_s\":%.9f,\"wall_s\":%.9f,\"cpu_s\":%.6f,\"peak_rss_mb\":%.3f,"
      "\"packets\":%llu,\"wall_ns_per_pkt\":%.6f,\"digest\":\"%016llx\","
      "\"sim\":{%s},\"host\":{\"compiler\":\"g++ %s\",\"build_type\":\"%s\","
      "\"nproc\":%u}%s}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.short_size ? "short" : "full",
#if defined(WALLBENCH_TRACED)
      "true",
#else
      "false",
#endif
      o.ok ? "true" : "false", static_cast<unsigned long long>(o.attempted),
      static_cast<unsigned long long>(o.failed), t.setup_s, t.wall_s, t.cpu_s,
      peak_rss_mb(), static_cast<unsigned long long>(pkts),
      pkts > 0 ? t.wall_s * 1e9 / static_cast<double>(pkts) : 0.0,
      static_cast<unsigned long long>(fnv1a(o.digest_text)),
      o.sim_json.c_str(), __VERSION__, WALLBENCH_BUILD_TYPE,
      std::thread::hardware_concurrency(), extra.c_str());
  return o.ok ? 0 : 1;
}
