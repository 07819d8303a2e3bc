// Link-time interposers for the traced binary. The linker's --wrap=<sym>
// sends every cross-object call of <sym> to __wrap_<sym>, which opens a
// span for the callee's layer and forwards to __real_<sym>. Calls inside
// the defining object file, inlined calls and upcalls through virtual
// functions or std::function are not symbol references, so their time
// lands in the nearest wrapped caller (most often `sim`, whose run_until
// span encloses every event callback).
//
// wrap_flags.py passes --wrap only for the listed functions the libraries
// define. The __real_ references are weak, so the interposer of a function
// that src/ no longer defines still links; it is simply never called.
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "api/fabric_bed.h"
#include "api/testbed.h"
#include "baseline/single_server.h"
#include "core/netio_module.h"
#include "filter/filter.h"
#include "net/frame.h"
#include "os/world.h"
#include "proto/env.h"
#include "proto/tcp.h"
#include "proto/wire.h"
#include "sim/cpu.h"
#include "sim/event_loop.h"
#include "trace.h"

namespace {

using Bytes = ulnet::buf::Bytes;
using View = ulnet::buf::ByteView;
using Ip = ulnet::net::Ipv4Addr;
using Mac = ulnet::net::MacAddr;
using TaskFn = std::function<void(ulnet::sim::TaskCtx&)>;
using ChannelCb = std::function<void(std::uint32_t, std::uint64_t)>;
using Chunks = std::vector<ulnet::buf::RxChunk>;
using SendStatus = ulnet::core::NetIoModule::SendStatus;
using OptRxPacket = std::optional<ulnet::core::NetIoModule::RxPacket>;
using OptTcpHeader = std::optional<ulnet::proto::TcpHeader>;
using OptIpv4Header = std::optional<ulnet::proto::Ipv4Header>;
using OptEthHeader = std::optional<ulnet::net::EthHeader>;
using OptAn1Header = std::optional<ulnet::net::An1Header>;
using OptMac = std::optional<Mac>;
using OptFlowKey = std::optional<ulnet::filter::FlowKey>;
using ClassifyResult = ulnet::filter::FilterAggregate::ClassifyResult;

using wallbench::Count;

}  // namespace

#define WRAP(LAYER, M, RET, PARAMS, ARGS)           \
  extern "C" __attribute__((weak)) RET __real_##M PARAMS; \
  extern "C" RET __wrap_##M PARAMS {                \
    WB_SPAN(LAYER);                                 \
    return __real_##M ARGS;                         \
  }
#define WRAPC(LAYER, COUNT, M, RET, PARAMS, ARGS)   \
  extern "C" __attribute__((weak)) RET __real_##M PARAMS; \
  extern "C" RET __wrap_##M PARAMS {                \
    wallbench::count(Count::COUNT);                 \
    WB_SPAN(LAYER);                                 \
    return __real_##M ARGS;                         \
  }
#define WRAP_CUSTOM(LAYER, M)
#include "wraps.def"
#undef WRAP
#undef WRAPC
#undef WRAP_CUSTOM

// TimerWheelDriver::schedule. The callback is wrapped (outside the span)
// so firing decrements the live-timer gauge; cancel() decrements it on a
// hit. Together they give timer.live_peak without reaching into the wheel.
extern "C" __attribute__((weak)) std::uint64_t
__real__ZN5ulnet5timer16TimerWheelDriver8scheduleElSt8functionIFvvEE(
    void* self, std::int64_t delay, std::function<void()> cb);
extern "C" std::uint64_t
__wrap__ZN5ulnet5timer16TimerWheelDriver8scheduleElSt8functionIFvvEE(
    void* self, std::int64_t delay, std::function<void()> cb) {
  wallbench::count(Count::kTimerSchedules);
  wallbench::timer_live_add(1);
  std::function<void()> counted = [cb = std::move(cb)] {
    wallbench::timer_live_add(-1);
    cb();
  };
  WB_SPAN(kTimer);
  return __real__ZN5ulnet5timer16TimerWheelDriver8scheduleElSt8functionIFvvEE(
      self, delay, std::move(counted));
}

extern "C" __attribute__((weak)) bool
__real__ZN5ulnet5timer16TimerWheelDriver6cancelEm(void* self,
                                                   std::uint64_t id);
extern "C" bool __wrap__ZN5ulnet5timer16TimerWheelDriver6cancelEm(
    void* self, std::uint64_t id) {
  bool hit = false;
  {
    WB_SPAN(kTimer);
    hit = __real__ZN5ulnet5timer16TimerWheelDriver6cancelEm(self, id);
  }
  if (hit) {
    wallbench::count(Count::kTimerCancelHits);
    wallbench::timer_live_add(-1);
  }
  return hit;
}
