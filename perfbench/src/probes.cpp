// Layer probes.
//
// The probes time single calls into each layer's public functions, after
// the workload's window and never alongside it: the executor's submit
// into a parked pool, the codec's frame encode and decode, and an event
// loop ping-pong over loopback TCP.
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/messages.hpp"
#include "exec/executor.hpp"
#include "net/wire_format.hpp"
#include "transport/codec.hpp"
#include "transport/event_loop.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kSubmitSamples = 1000;
/// Idle time before each submit: long enough for both workers to spin
/// out and park.
constexpr auto kSubmitIdle = std::chrono::microseconds(300);
constexpr int kCodecBatches = 9;
constexpr int kCodecFramesPerBatch = 100000;
constexpr int kRttSamples = 2000;

LatencyHistogram probe_submit_to_run() {
  dmx::exec::Executor executor({/*workers=*/2, /*spin=*/64});
  struct Probe {
    std::atomic<std::uint64_t> ran_at{0};
  } probe;
  dmx::exec::PoolTask task;
  task.context = &probe;
  task.run = [](void* context) {
    static_cast<Probe*>(context)->ran_at.store(now_ns(),
                                               std::memory_order_release);
  };
  LatencyHistogram out;
  for (int i = 0; i < kSubmitSamples; ++i) {
    std::this_thread::sleep_for(kSubmitIdle);
    probe.ran_at.store(0, std::memory_order_relaxed);
    const std::uint64_t submitted = now_ns();
    executor.submit(&task);
    std::uint64_t ran = 0;
    while ((ran = probe.ran_at.load(std::memory_order_acquire)) == 0) {
      std::this_thread::yield();
    }
    out.record(ran - submitted);
  }
  executor.shutdown();
  return out;
}

/// Mean nanoseconds per frame to encode (first) and decode (second) the
/// Neilsen REQUEST and PRIVILEGE frames; median over batches.
std::pair<double, double> probe_codec() {
  const dmx::core::RequestMessage request(2, 3);
  const dmx::core::PrivilegeMessage privilege;
  const dmx::net::Message* messages[2] = {&request, &privilege};
  std::string frames[2];
  for (int m = 0; m < 2; ++m) {
    dmx::transport::Codec::encode_frame(frames[m], 0, 1, 2, 1, *messages[m]);
  }
  std::vector<double> encode;
  std::vector<double> decode;
  std::uint64_t sink = 0;
  std::string out;
  out.reserve(64);
  for (int b = 0; b < kCodecBatches; ++b) {
    std::uint64_t t0 = now_ns();
    for (int i = 0; i < kCodecFramesPerBatch; ++i) {
      out.clear();
      dmx::transport::Codec::encode_frame(out, 0, 1, 2, 1, *messages[i & 1]);
      sink += out.size();
    }
    std::uint64_t t1 = now_ns();
    encode.push_back(static_cast<double>(t1 - t0) / kCodecFramesPerBatch);
    t0 = now_ns();
    for (int i = 0; i < kCodecFramesPerBatch; ++i) {
      dmx::net::WireReader reader(std::string_view(frames[i & 1]).substr(4));
      const dmx::transport::FrameHeader header =
          dmx::transport::Codec::decode_header(reader);
      const dmx::net::MessagePtr message =
          dmx::transport::Codec::decode(header.wire_id, reader);
      sink += static_cast<std::uint64_t>(header.resource) +
              message->payload_bytes();
    }
    t1 = now_ns();
    decode.push_back(static_cast<double>(t1 - t0) / kCodecFramesPerBatch);
  }
  // Keep the loops' results observable.
  static std::atomic<std::uint64_t> keep{0};
  keep.store(sink, std::memory_order_relaxed);
  return {median(encode), median(decode)};
}

/// Round trips of one PRIVILEGE frame between two loopback event loops:
/// loop 1 sends, loop 2's frame handler echoes it back.
LatencyHistogram probe_loop_rtt() {
  using dmx::transport::EventLoop;
  using dmx::transport::FrameHeader;
  std::atomic<std::uint64_t> echoes{0};
  EventLoop* second_ptr = nullptr;
  EventLoop first(
      {1}, [&](const FrameHeader&, dmx::net::MessagePtr) {
        echoes.fetch_add(1, std::memory_order_release);
      },
      [](dmx::NodeId) {});
  EventLoop second(
      {2},
      [&](const FrameHeader& header, dmx::net::MessagePtr message) {
        second_ptr->send(header.from, header.epoch, header.resource, *message,
                         /*block_on_backpressure=*/false);
      },
      [](dmx::NodeId) {});
  second_ptr = &second;
  const std::uint16_t port = first.listen();
  second.listen();
  second.connect(1, port);
  first.start();
  second.start();
  if (!first.wait_for_peers(1, std::chrono::seconds(10)) ||
      !second.wait_for_peers(1, std::chrono::seconds(10))) {
    second.stop();
    first.stop();
    throw std::runtime_error("loop_rtt probe: loopback loops did not connect");
  }
  const dmx::core::PrivilegeMessage privilege;
  LatencyHistogram out;
  for (int i = 0; i < kRttSamples; ++i) {
    const std::uint64_t expected = echoes.load() + 1;
    const std::uint64_t t0 = now_ns();
    first.send(2, 0, 0, privilege);
    while (echoes.load(std::memory_order_acquire) < expected) {
      std::this_thread::yield();
    }
    out.record(now_ns() - t0);
  }
  second.stop();
  first.stop();
  return out;
}

}  // namespace

ProbeResults run_probes(SpanBuffer& spans, std::uint64_t parent) {
  ProbeResults probes;
  std::uint64_t t0 = now_ns();
  probes.submit_to_run = probe_submit_to_run();
  spans.add("probe.exec_submit", 3, parent, t0, now_ns());
  t0 = now_ns();
  const auto [encode_ns, decode_ns] = probe_codec();
  probes.encode_ns = encode_ns;
  probes.decode_ns = decode_ns;
  spans.add("probe.codec", 4, parent, t0, now_ns());
  t0 = now_ns();
  probes.loop_rtt = probe_loop_rtt();
  spans.add("probe.loop_rtt", 5, parent, t0, now_ns());
  return probes;
}

}  // namespace perfbench
