// The hardware workloads: `handoff` and `zipf` on service::ThreadedLockSpace
// and `tcp` on three transport::DistributedLockSpace instances meshed over
// loopback TCP inside this process.
//
// All clients are closed-loop — a lock caller blocks until granted — and
// live in this process, so one exclusivity witness sees every critical
// section. Every acquire goes through try_lock_for with a fixed deadline:
// a wedged resource shows up as failed acquires, not as a hung run.
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.hpp"
#include "service/threaded_lock_space.hpp"
#include "telemetry/telemetry.hpp"
#include "transport/distributed_lock_space.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dmx::service::LockError;

constexpr auto kDeadline = std::chrono::milliseconds(2000);
/// Extra set-ups timed (and torn down) before each instance of the
/// untraced run; with the instances' own, 40 samples of setup_s.
constexpr int kSetupsPerInstance = 4;
/// The untraced window is spread over this many fresh system instances:
/// thread placement is settled per instance, so one unlucky placement
/// moves an eighth of the window, not the whole run.
constexpr int kInstances = 8;
constexpr double kWarmupSeconds = 0.2;
/// Length of each client's pre-generated resource sequence (a power of
/// two; the client cycles through it).
constexpr std::size_t kSequenceLength = std::size_t{1} << 16;
constexpr std::size_t kSpansPerClient = 8192;
constexpr std::uint64_t kWorkloadSpan = 1;
constexpr std::uint64_t kSetupSpan = 2;

std::vector<std::string> resource_names(int resources) {
  std::vector<std::string> names;
  for (int i = 0; i < resources; ++i) {
    names.push_back("perfbench/r" + std::to_string(i));
  }
  return names;
}

struct Client {
  int node = 0;
  std::vector<std::int32_t> sequence;
  std::size_t cursor = 0;
  /// kOk acquires on the current system instance (warm-up included).
  std::uint64_t total_ok = 0;
};

/// One client's tallies for one segment; cache-line separated.
struct alignas(64) ClientWindow {
  LatencyHistogram acquire;
  LatencyHistogram unlock;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
};

struct Segment {
  double wall_s = 0;
  double cpu_s = 0;
  LatencyHistogram acquire;
  LatencyHistogram unlock;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::vector<double> per_client_ok;
};

/// Runs every client against `system` for `seconds` of wall time. With
/// `spans`, each entry also records its acquire and release spans and the
/// unlock latency.
template <class System>
Segment run_segment(System& system, std::vector<Client>& clients,
                    Witness& witness, double seconds,
                    std::vector<std::unique_ptr<SpanBuffer>>* spans) {
  const std::size_t n = clients.size();
  std::vector<std::unique_ptr<ClientWindow>> windows;
  for (std::size_t k = 0; k < n; ++k) {
    windows.push_back(std::make_unique<ClientWindow>());
  }
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  auto body = [&](std::size_t k) {
    Client& client = clients[k];
    ClientWindow& w = *windows[k];
    SpanBuffer* trace = spans != nullptr ? (*spans)[k].get() : nullptr;
    const std::size_t mask = client.sequence.size() - 1;
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    while (!stop.load(std::memory_order_relaxed)) {
      const int r = client.sequence[client.cursor++ & mask];
      const std::uint64_t t0 = now_ns();
      const LockError rc = system.try_lock(client.node, r);
      const std::uint64_t t1 = now_ns();
      ++w.attempted;
      if (rc != LockError::kOk) {
        ++w.failed;
        continue;
      }
      witness.enter(r);
      witness.exit(r);
      if (trace != nullptr) {
        const std::uint64_t request =
            (static_cast<std::uint64_t>(k + 1) << 40) | client.total_ok;
        const std::uint64_t t2 = now_ns();
        system.unlock(client.node, r);
        const std::uint64_t t3 = now_ns();
        trace->add("acquire", request, kWorkloadSpan, t0, t1);
        trace->add("release", request, kWorkloadSpan, t2, t3);
        w.unlock.record(t3 - t2);
      } else {
        system.unlock(client.node, r);
      }
      w.acquire.record(t1 - t0);
      ++w.ok;
      ++client.total_ok;
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < n; ++k) threads.emplace_back(body, k);
  while (ready.load() < static_cast<int>(n)) std::this_thread::yield();
  const double cpu0 = process_cpu_seconds();
  const std::uint64_t t0 = now_ns();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& thread : threads) thread.join();
  const std::uint64_t t1 = now_ns();
  Segment s;
  s.cpu_s = process_cpu_seconds() - cpu0;
  s.wall_s = static_cast<double>(t1 - t0) / 1e9;
  for (const auto& w : windows) {
    s.acquire.merge(w->acquire);
    s.unlock.merge(w->unlock);
    s.attempted += w->attempted;
    s.ok += w->ok;
    s.failed += w->failed;
    s.per_client_ok.push_back(static_cast<double>(w->ok));
  }
  return s;
}

/// The checks every run makes on the system it measured: no two clients
/// ever inside one critical section, no protocol or transport error, and
/// every kOk the clients saw is an entry the system counted.
template <class System>
void check(const System& system, const std::vector<Client>& clients,
           const Witness& witness, Report& report) {
  if (witness.violations() != 0) {
    report.violation("exclusivity witness saw " +
                     std::to_string(witness.violations()) +
                     " overlapping critical sections");
  }
  for (const std::string& error : system.errors()) {
    report.violation("first_error: " + error);
  }
  std::uint64_t ok = 0;
  for (const Client& client : clients) ok += client.total_ok;
  if (ok != system.total_entries()) {
    report.violation("clients saw " + std::to_string(ok) +
                     " kOk acquires but the system counted " +
                     std::to_string(system.total_entries()) + " entries");
  }
}

/// The shared measurement plan of the hardware workloads. Untraced: the
/// window is split evenly over kInstances fresh instances, each warmed up
/// first; setup_s is the median of every timed set-up. Traced: set up
/// once, warm up, then alternate untraced and traced quarter windows (the
/// difference is the tracing overhead), tear down, and run the layer
/// probes alone.
template <class Make>
Report run_hardware(const Options& options, int resources,
                    std::vector<Client> clients, const Make& make) {
  using System = typename decltype(make())::element_type;
  Report report;
  Witness witness(resources);
  if (!options.trace) {
    // Set-ups are timed throughout the run, kSetupsPerInstance before each
    // instance, so the median covers whatever the machine did meanwhile.
    std::vector<double> setup_s;
    const auto timed_make = [&] {
      const std::uint64_t t0 = now_ns();
      std::unique_ptr<System> system = make();
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      return system;
    };
    // The first set-up pays one-time process warm-up (codec registration,
    // telemetry interning, message-pool fill) and is not counted.
    make();
    EndToEnd e2e;
    for (int instance = 0; instance < kInstances; ++instance) {
      for (int i = 0; i < kSetupsPerInstance; ++i) timed_make();
      const std::unique_ptr<System> system = timed_make();
      for (Client& client : clients) client.total_ok = 0;
      run_segment(*system, clients, witness, kWarmupSeconds, nullptr);
      const Segment s = run_segment(*system, clients, witness,
                                    options.seconds / kInstances, nullptr);
      e2e.add_window(static_cast<double>(s.ok), s.wall_s, s.cpu_s,
                     s.acquire);
      report.attempted += s.attempted;
      report.failed += s.failed;
      check(*system, clients, witness, report);
    }
    add_end_to_end_metrics(report, e2e, median(setup_s));
    return report;
  }

  SpanBuffer main_spans(64, 0);
  std::vector<std::unique_ptr<SpanBuffer>> spans;
  for (std::size_t k = 0; k < clients.size(); ++k) {
    spans.push_back(std::make_unique<SpanBuffer>(
        kSpansPerClient, static_cast<std::uint32_t>(k + 1)));
  }
  const std::uint64_t s0 = now_ns();
  std::unique_ptr<System> system = make();
  main_spans.add("setup", kSetupSpan, 0, s0, now_ns());
  run_segment(*system, clients, witness, kWarmupSeconds, nullptr);

  TracedWindow window;
  const LayerCounts before = system->counts();
  const std::uint64_t w0 = now_ns();
  Segment untraced;
  Segment traced;
  std::vector<double> per_client(clients.size(), 0.0);
  for (int i = 0; i < 4; ++i) {
    const bool tracing = i % 2 == 1;
    const Segment s = run_segment(*system, clients, witness,
                                  options.seconds / 4,
                                  tracing ? &spans : nullptr);
    Segment& into = tracing ? traced : untraced;
    into.wall_s += s.wall_s;
    into.acquire.merge(s.acquire);
    into.unlock.merge(s.unlock);
    into.ok += s.ok;
    report.attempted += s.attempted;
    report.failed += s.failed;
    for (std::size_t k = 0; k < per_client.size(); ++k) {
      per_client[k] += s.per_client_ok[k];
    }
  }
  window.counts = system->counts() - before;
  main_spans.add("workload", kWorkloadSpan, 0, w0, now_ns());
  check(*system, clients, witness, report);
  system.reset();

  window.counts.entries = static_cast<double>(untraced.ok + traced.ok);
  window.acquire.merge(untraced.acquire);
  window.acquire.merge(traced.acquire);
  window.acquire_untraced = untraced.acquire;
  window.unlock = traced.unlock;
  window.untraced_entries_per_s =
      static_cast<double>(untraced.ok) / untraced.wall_s;
  window.traced_entries_per_s = static_cast<double>(traced.ok) / traced.wall_s;
  window.per_client_entries = per_client;

  const ProbeResults probes = run_probes(main_spans, 0);
  std::vector<const SpanBuffer*> buffers{&main_spans};
  for (const auto& buffer : spans) buffers.push_back(buffer.get());
  const std::string path = span_file_path(options);
  if (!write_chrome_trace(path, buffers)) {
    report.violation("could not write span file " + path);
  }
  add_layer_metrics(report, window, probes);
  return report;
}

// ---- ThreadedLockSpace -----------------------------------------------------

class ThreadedSystem {
 public:
  ThreadedSystem(int nodes, int resources, int workers)
      : space_(config(nodes, resources, workers)) {}

  LockError try_lock(int node, int r) {
    return space_.try_lock_for(r, node, kDeadline);
  }
  void unlock(int node, int r) { space_.unlock(r, node); }

  std::vector<std::string> errors() const {
    if (auto error = space_.first_error()) return {*error};
    return {};
  }
  std::uint64_t total_entries() const { return space_.total_entries(); }

  LayerCounts counts() const {
    const dmx::telemetry::MetricsSnapshot snap = space_.telemetry_snapshot();
    LayerCounts c;
    c.messages = static_cast<double>(space_.messages_sent());
    c.tasks = static_cast<double>(snap.counter("exec.tasks_executed"));
    c.steals = static_cast<double>(snap.counter("exec.steals"));
    c.parks = static_cast<double>(snap.counter("exec.parks"));
    if (const auto* batch = snap.histogram("exec.strand_batch")) {
      c.strand_batch_sum = static_cast<double>(batch->sum);
      c.strand_batch_count = static_cast<double>(batch->count);
    }
    c.chained = static_cast<double>(space_.chained_grants());
    c.yields = static_cast<double>(space_.lease_yields());
    for (int r = 0; r < space_.resource_count(); ++r) {
      c.repairs += static_cast<double>(space_.epoch(r));
    }
    return c;
  }

 private:
  static dmx::service::ThreadedLockSpaceConfig config(int nodes,
                                                      int resources,
                                                      int workers) {
    dmx::service::ThreadedLockSpaceConfig config;
    config.n = nodes;
    config.algorithm = dmx::baselines::algorithm_by_name("Neilsen");
    config.resources = resource_names(resources);
    config.workers = workers;
    return config;
  }

  dmx::service::ThreadedLockSpace space_;
};

Report run_threaded(const Options& options, int nodes, int clients_per_node,
                    int resources, int workers) {
  std::vector<Client> clients;
  for (int v = 1; v <= nodes; ++v) {
    for (int c = 0; c < clients_per_node; ++c) {
      Client client;
      client.node = v;
      client.sequence =
          zipf_sequence(input_stream(options.seed, clients.size()),
                        resources, 0.99, kSequenceLength);
      clients.push_back(std::move(client));
    }
  }
  return run_hardware(
      options, resources, std::move(clients), [=] {
        return std::make_unique<ThreadedSystem>(nodes, resources, workers);
      });
}

// ---- DistributedLockSpace mesh ----------------------------------------------

class TcpSystem {
 public:
  TcpSystem(int nodes, int resources) {
    for (int v = 1; v <= nodes; ++v) {
      dmx::transport::DistributedLockSpaceConfig config;
      config.self = v;
      config.n = nodes;
      config.algorithm = dmx::baselines::algorithm_by_name("Neilsen");
      config.resources = resource_names(resources);
      spaces_.push_back(
          std::make_unique<dmx::transport::DistributedLockSpace>(
              std::move(config)));
    }
    std::vector<std::uint16_t> ports;
    for (auto& space : spaces_) ports.push_back(space->listen());
    for (int v = 1; v <= nodes; ++v) {
      for (int peer = 1; peer < v; ++peer) {
        spaces_[static_cast<std::size_t>(v - 1)]->connect(
            peer, ports[static_cast<std::size_t>(peer - 1)]);
      }
    }
    for (auto& space : spaces_) space->start();
    for (auto& space : spaces_) {
      if (!space->wait_connected(std::chrono::seconds(10))) {
        throw std::runtime_error("tcp mesh did not connect");
      }
    }
  }
  ~TcpSystem() {
    for (auto& space : spaces_) space->shutdown();
  }
  TcpSystem(const TcpSystem&) = delete;
  TcpSystem& operator=(const TcpSystem&) = delete;

  LockError try_lock(int node, int r) {
    return spaces_[static_cast<std::size_t>(node - 1)]->try_lock_for(
        r, kDeadline);
  }
  void unlock(int node, int r) {
    spaces_[static_cast<std::size_t>(node - 1)]->unlock(r);
  }

  std::vector<std::string> errors() const {
    std::vector<std::string> out;
    for (const auto& space : spaces_) {
      if (auto error = space->first_error()) out.push_back(*error);
    }
    return out;
  }
  std::uint64_t total_entries() const {
    std::uint64_t total = 0;
    for (const auto& space : spaces_) total += space->total_entries();
    return total;
  }

  LayerCounts counts() const {
    LayerCounts c;
    for (std::size_t i = 0; i < spaces_.size(); ++i) {
      const auto& space = *spaces_[i];
      const dmx::telemetry::MetricsSnapshot snap = space.telemetry_snapshot();
      c.tasks += static_cast<double>(snap.counter("exec.tasks_executed"));
      c.steals += static_cast<double>(snap.counter("exec.steals"));
      c.parks += static_cast<double>(snap.counter("exec.parks"));
      // The strand histogram is process-wide: read it once.
      if (i == 0) {
        if (const auto* batch = snap.histogram("exec.strand_batch")) {
          c.strand_batch_sum = static_cast<double>(batch->sum);
          c.strand_batch_count = static_cast<double>(batch->count);
        }
      }
      const dmx::transport::EventLoopStats& wire = space.transport_stats();
      const auto load = [](const std::atomic<std::uint64_t>& x) {
        return static_cast<double>(x.load(std::memory_order_relaxed));
      };
      c.messages += load(wire.frames_sent);
      c.frames_sent += load(wire.frames_sent);
      c.frames_received += load(wire.frames_received);
      c.wire_bytes += load(wire.bytes_sent);
      c.wakeups += load(wire.epoll_wakeups);
      c.partial_frames += load(wire.partial_frames);
      c.backpressure_waits += load(wire.backpressure_waits);
      c.chained += static_cast<double>(space.chained_grants());
      c.yields += static_cast<double>(space.lease_yields());
      for (int r = 0; r < space.resource_count(); ++r) {
        c.repairs += static_cast<double>(space.epoch(r));
      }
    }
    return c;
  }

 private:
  std::vector<std::unique_ptr<dmx::transport::DistributedLockSpace>> spaces_;
};

}  // namespace

// `handoff`: 4 nodes, one resource, one client per node, 2 pool workers.
// Every entry is a protocol hand-off along the DAG.
Report run_handoff(const Options& options) {
  return run_threaded(options, /*nodes=*/4, /*clients_per_node=*/1,
                      /*resources=*/1, /*workers=*/2);
}

// `zipf`: 2 nodes x 2 clients over 64 Zipf(0.99) resources, 2 workers.
// Half the acquires find the token local; some chain locally.
Report run_zipf(const Options& options) {
  return run_threaded(options, /*nodes=*/2, /*clients_per_node=*/2,
                      /*resources=*/64, /*workers=*/2);
}

// `tcp`: 3 meshed DistributedLockSpaces, one client per node, 4 resources
// taken round-robin. Every hand-off crosses
// the codec and the event loop.
Report run_tcp(const Options& options) {
  static constexpr int kNodes = 3;
  static constexpr int kResources = 4;
  // Clients start one resource apart, so the seed only relabels the
  // resources: every seed runs the same contention pattern.
  InputRng rng = input_stream(options.seed, 0);
  const auto base = static_cast<std::int32_t>(rng.below(kResources));
  std::vector<Client> clients;
  for (int v = 1; v <= kNodes; ++v) {
    Client client;
    client.node = v;
    const std::int32_t offset = base + v - 1;
    client.sequence.resize(kSequenceLength);
    for (std::size_t i = 0; i < kSequenceLength; ++i) {
      client.sequence[i] =
          (offset + static_cast<std::int32_t>(i % kResources)) % kResources;
    }
    clients.push_back(std::move(client));
  }
  return run_hardware(options, kResources, std::move(clients), [] {
    return std::make_unique<TcpSystem>(kNodes, kResources);
  });
}

}  // namespace perfbench
