// `sim-faults`: the deterministic simulator under a seeded crash/recover
// plan. 16 nodes, 64 Zipf(0.99) resources, 4 closed-loop clients per node
// with co-located queueing (queue_local) under the default lease, holds of
// 0-2 ticks. Single thread: it exercises the sim kernel, the network, the
// protocol handlers and fault/quorum regeneration, which no hardware
// workload reaches.
//
// The run is a sequence of identical episodes: a fresh LockSpace, the
// same inputs, kEpisodeEntries entries, drained to quiescence. The
// end-to-end figures sum every untraced episode. Virtual time makes every
// episode's counts repeat exactly, so any difference between episodes is
// a determinism violation. LockSpace re-checks exclusivity and token
// uniqueness after every event and throws on a violation; the benchmark
// adds its own occupancy witness on top.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.hpp"
#include "fault/fault_plan.hpp"
#include "service/lock_space.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dmx::NodeId;
using dmx::ResourceId;
using dmx::Tick;

constexpr int kNodes = 16;
constexpr int kResources = 64;
constexpr int kClientsPerNode = 4;
constexpr std::uint64_t kEpisodeEntries = 100000;
constexpr std::size_t kSequenceLength = 8192;
constexpr int kEpisodesPerCpu = 4;
/// Virtual-time span the fault plan covers: about one episode at the
/// rate the service reaches, fixed so the plan is an input that does not
/// depend on the code under test.
constexpr Tick kPlanHorizon = 24000;
constexpr int kCrashes = 2;
constexpr Tick kCrashTicks = 1000;
constexpr std::size_t kSpans = 16384;
constexpr std::uint64_t kWorkloadSpan = 1;
constexpr std::uint64_t kSetupSpan = 2;

struct Inputs {
  /// Per client: resource in the low 16 bits, hold ticks above.
  std::vector<std::vector<std::uint32_t>> draws;
  dmx::fault::FaultPlan plan;
};

std::unique_ptr<dmx::service::LockSpace> make_space(
    const dmx::fault::FaultPlan& plan) {
  dmx::service::LockSpaceConfig config;
  config.n = kNodes;
  config.algorithm = dmx::baselines::algorithm_by_name("Neilsen");
  config.fault_plan = plan;
  config.queue_local = true;
  auto space = std::make_unique<dmx::service::LockSpace>(std::move(config));
  for (int i = 0; i < kResources; ++i) {
    space->open("perfbench/r" + std::to_string(i));
  }
  return space;
}

/// Client draws and a crash/recover plan of nodes that are home to no
/// resource, one node down at a time, spread over kPlanHorizon.
Inputs make_inputs(std::uint64_t seed) {
  Inputs inputs;
  for (int k = 0; k < kNodes * kClientsPerNode; ++k) {
    const std::vector<std::int32_t> resources =
        zipf_sequence(input_stream(seed, 2 * k), kResources, 0.99,
                      kSequenceLength);
    InputRng holds = input_stream(seed, 2 * k + 1);
    std::vector<std::uint32_t> draws(kSequenceLength);
    for (std::size_t i = 0; i < kSequenceLength; ++i) {
      draws[i] = static_cast<std::uint32_t>(resources[i]) |
                 static_cast<std::uint32_t>(holds.below(3) << 16);
    }
    inputs.draws.push_back(std::move(draws));
  }
  const auto probe = make_space({});
  std::vector<NodeId> candidates;
  for (NodeId v = 1; v <= kNodes; ++v) {
    bool home = false;
    for (ResourceId r = 0; r < kResources; ++r) home |= probe->home_node(r) == v;
    if (!home) candidates.push_back(v);
  }
  if (candidates.empty()) {
    for (NodeId v = 2; v <= kNodes; ++v) candidates.push_back(v);
  }
  InputRng rng = input_stream(seed, 1u << 20);
  const Tick slot = kPlanHorizon / kCrashes;
  for (int i = 0; i < kCrashes; ++i) {
    const Tick at = i * slot + 1 +
                    static_cast<Tick>(rng.below(
                        static_cast<std::uint64_t>(slot - kCrashTicks - 2)));
    const NodeId v = candidates[rng.below(candidates.size())];
    inputs.plan.crash(at, v).recover(at + kCrashTicks, v);
  }
  return inputs;
}

/// Everything one episode produced that must repeat exactly.
struct EpisodeCounts {
  std::uint64_t entries = 0;
  std::uint64_t messages = 0;
  Tick makespan = 0;
  Tick max_wait = 0;
  std::uint64_t repairs = 0;
  std::uint64_t chained = 0;
  std::uint64_t yields = 0;
  std::uint64_t acquires = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t stalled = 0;
  bool operator==(const EpisodeCounts&) const = default;
};

struct Episode {
  EpisodeCounts counts;
  /// Construction and resource open of the episode's space.
  std::uint64_t setup_start_ns = 0;
  std::uint64_t setup_end_ns = 0;
  double wall_s = 0;
  double cpu_s = 0;
  LatencyHistogram acquire;
  LatencyHistogram release;
  std::vector<double> per_client;
};

/// The closed-loop clients of one episode.
class ClientLoops {
 public:
  ClientLoops(dmx::service::LockSpace& space, const Inputs& inputs,
         SpanBuffer* spans, Report& report)
      : space_(space), inputs_(inputs), spans_(spans), report_(report),
        clients_(inputs.draws.size()),
        holder_(static_cast<std::size_t>(kResources), dmx::kNilNode) {
    for (std::size_t k = 0; k < clients_.size(); ++k) {
      clients_[k].node = static_cast<NodeId>(k / kClientsPerNode + 1);
    }
    space_.set_membership_hook([this](NodeId v, bool up) {
      for (std::size_t k = 0; k < clients_.size(); ++k) {
        Client& c = clients_[k];
        if (c.node != v) continue;
        if (!up) {
          ++c.generation;
          if (c.waiting) ++counts_.abandoned;
          c.waiting = false;
        } else {
          schedule_acquire(k);
        }
      }
      if (!up) {
        for (NodeId& holder : holder_) {
          if (holder == v) holder = dmx::kNilNode;
        }
      }
    });
  }

  Episode run() {
    Episode episode;
    const double cpu0 = process_cpu_seconds();
    const std::uint64_t t0 = now_ns();
    const Tick started = space_.simulator().now();
    for (std::size_t k = 0; k < clients_.size(); ++k) start_acquire(k);
    space_.run_to_quiescence();
    space_.check_all_invariants();
    episode.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    episode.cpu_s = process_cpu_seconds() - cpu0;
    space_.set_membership_hook(nullptr);

    counts_.entries = completed_;
    counts_.messages = space_.network().stats().total_sent;
    counts_.makespan = space_.simulator().now() - started;
    for (ResourceId r = 0; r < kResources; ++r) {
      counts_.repairs += space_.epoch(r);
    }
    counts_.chained = space_.chained_grants();
    counts_.yields = space_.lease_yields();
    for (const Client& c : clients_) {
      if (c.waiting) ++counts_.stalled;
      episode.per_client.push_back(static_cast<double>(c.entries));
    }
    if (granted_ != space_.total_entries()) {
      report_.violation("clients saw " + std::to_string(granted_) +
                        " grants but the space counted " +
                        std::to_string(space_.total_entries()) + " entries");
    }
    if (violations_ != 0) {
      report_.violation("exclusivity witness saw " +
                        std::to_string(violations_) +
                        " overlapping critical sections");
    }
    episode.counts = counts_;
    episode.acquire = acquire_;
    episode.release = release_;
    return episode;
  }

 private:
  struct Client {
    NodeId node = dmx::kNilNode;
    std::size_t cursor = 0;
    std::uint32_t generation = 0;
    std::uint32_t draw = 0;
    bool waiting = false;
    Tick requested_tick = 0;
    std::uint64_t requested_ns = 0;
    std::uint64_t entries = 0;
  };

  static std::uint64_t key(std::size_t k, std::uint32_t generation) {
    return (static_cast<std::uint64_t>(k) << 32) | generation;
  }

  void schedule_acquire(std::size_t k) {
    space_.simulator().schedule_after(1, [this, k] { start_acquire(k); });
  }

  void start_acquire(std::size_t k) {
    Client& c = clients_[k];
    if (stopped_ || !space_.is_node_up(c.node)) return;
    const auto& draws = inputs_.draws[k];
    c.draw = draws[c.cursor++ % draws.size()];
    c.waiting = true;
    c.requested_tick = space_.simulator().now();
    c.requested_ns = now_ns();
    ++counts_.acquires;
    const std::uint64_t id = key(k, c.generation);
    space_.acquire(static_cast<ResourceId>(c.draw & 0xffff), c.node,
                   [this, id](ResourceId r, NodeId v) { on_grant(id, r, v); });
  }

  void on_grant(std::uint64_t id, ResourceId r, NodeId v) {
    Client& c = clients_[id >> 32];
    const std::uint64_t granted_ns = now_ns();
    ++granted_;
    c.waiting = false;
    acquire_.record(granted_ns - c.requested_ns);
    counts_.max_wait =
        std::max(counts_.max_wait, space_.simulator().now() - c.requested_tick);
    if (holder_[static_cast<std::size_t>(r)] != dmx::kNilNode) ++violations_;
    holder_[static_cast<std::size_t>(r)] = v;
    if (spans_ != nullptr) {
      spans_->add("acquire", request_id(id, c), kWorkloadSpan, c.requested_ns,
                  granted_ns);
    }
    space_.simulator().schedule_after(c.draw >> 16,
                                      [this, id, r] { release(id, r); });
  }

  void release(std::uint64_t id, ResourceId r) {
    Client& c = clients_[id >> 32];
    if (holder_[static_cast<std::size_t>(r)] == c.node) {
      holder_[static_cast<std::size_t>(r)] = dmx::kNilNode;
    }
    // A node that crashed inside its critical section releases a ghost,
    // which the space ignores; the entry still happened.
    const std::uint64_t t0 = now_ns();
    space_.release(r, c.node);
    if (spans_ != nullptr) {
      const std::uint64_t t1 = now_ns();
      release_.record(t1 - t0);
      spans_->add("release", request_id(id, c), kWorkloadSpan, t0, t1);
    }
    ++c.entries;
    if (++completed_ >= kEpisodeEntries) stopped_ = true;
    if (!stopped_ && static_cast<std::uint32_t>(id) == c.generation) {
      schedule_acquire(id >> 32);
    }
  }

  static std::uint64_t request_id(std::uint64_t id, const Client& c) {
    return ((id >> 32) + 1) << 40 | c.cursor;
  }

  dmx::service::LockSpace& space_;
  const Inputs& inputs_;
  SpanBuffer* spans_;
  Report& report_;
  std::vector<Client> clients_;
  std::vector<NodeId> holder_;
  EpisodeCounts counts_;
  LatencyHistogram acquire_;
  LatencyHistogram release_;
  std::uint64_t granted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t violations_ = 0;
  bool stopped_ = false;
};

/// Sets up a fresh space and runs one episode on it.
Episode run_episode(const Inputs& inputs, SpanBuffer* spans, Report& report) {
  const std::uint64_t t0 = now_ns();
  const auto space = make_space(inputs.plan);
  const std::uint64_t t1 = now_ns();
  auto loops = std::make_unique<ClientLoops>(*space, inputs, spans, report);
  Episode episode = loops->run();
  episode.setup_start_ns = t0;
  episode.setup_end_ns = t1;
  return episode;
}

}  // namespace

Report run_sim_faults(const Options& options) {
  Report report;
  const Inputs inputs = make_inputs(options.seed);
  if (const std::string problem = inputs.plan.validate(kNodes);
      !problem.empty()) {
    report.violation("fault plan: " + problem);
    return report;
  }

  SpanBuffer main_spans(64, 0);
  // Warm-up episode: message pool, simulator slots and the allocator.
  const Episode reference = run_episode(inputs, nullptr, report);
  main_spans.add("setup", kSetupSpan, 0, reference.setup_start_ns,
                 reference.setup_end_ns);

  std::unique_ptr<SpanBuffer> spans;
  if (options.trace) spans = std::make_unique<SpanBuffer>(kSpans, 1);
  // Untraced and traced episodes, summed separately; an untraced run
  // has only the first.
  EndToEnd windows[2];
  std::vector<double> setup_s;
  LatencyHistogram release;
  std::vector<double> per_client(reference.per_client.size(), 0.0);
  // Episodes rotate over every CPU this process may use, kEpisodesPerCpu
  // at a time: contention from other work on the machine moves from core
  // to core, and a run that stayed on whichever core it started on would
  // measure that core.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof allowed, &allowed);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  const std::uint64_t w0 = now_ns();
  for (int i = 0; windows[0].wall_s + windows[1].wall_s < options.seconds;
       ++i) {
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[static_cast<std::size_t>(i / kEpisodesPerCpu) %
                   cpus.size()],
              &one);
      sched_setaffinity(0, sizeof one, &one);
    }
    // The traced run alternates untraced and traced episodes; the
    // difference is the tracing overhead.
    const bool traced = options.trace && i % 2 == 1;
    const Episode e =
        run_episode(inputs, traced ? spans.get() : nullptr, report);
    if (!(e.counts == reference.counts)) {
      report.violation("episode " + std::to_string(i) +
                       " diverged from the first: the simulation is not "
                       "deterministic");
    }
    windows[traced].add_window(static_cast<double>(e.counts.entries),
                               e.wall_s, e.cpu_s, e.acquire);
    if (!traced) {
      setup_s.push_back(
          static_cast<double>(e.setup_end_ns - e.setup_start_ns) / 1e9);
    }
    release.merge(e.release);
    for (std::size_t k = 0; k < per_client.size(); ++k) {
      per_client[k] += e.per_client[k];
    }
    report.attempted += e.counts.acquires - e.counts.abandoned;
    report.failed += e.counts.stalled;
  }
  sched_setaffinity(0, sizeof allowed, &allowed);
  if (!options.trace) {
    add_end_to_end_metrics(report, windows[0], median(setup_s));
    return report;
  }

  main_spans.add("workload", kWorkloadSpan, 0, w0, now_ns());
  TracedWindow window;
  const EpisodeCounts& c = reference.counts;
  window.counts.entries = static_cast<double>(c.entries);
  window.counts.messages = static_cast<double>(c.messages);
  window.counts.repairs = static_cast<double>(c.repairs);
  window.counts.chained = static_cast<double>(c.chained);
  window.counts.yields = static_cast<double>(c.yields);
  window.counts.sim_entries_per_ktick =
      1000.0 * static_cast<double>(c.entries) / static_cast<double>(c.makespan);
  window.counts.sim_max_wait_ticks = static_cast<double>(c.max_wait);
  window.acquire = windows[0].acquire;
  window.acquire.merge(windows[1].acquire);
  window.acquire_untraced = windows[0].acquire;
  window.unlock = release;
  window.untraced_entries_per_s = windows[0].entries / windows[0].wall_s;
  window.traced_entries_per_s =
      windows[1].wall_s > 0 ? windows[1].entries / windows[1].wall_s : 0.0;
  window.per_client_entries = per_client;

  const ProbeResults probes = run_probes(main_spans, 0);
  const std::string path = span_file_path(options);
  if (!write_chrome_trace(path, {&main_spans, spans.get()})) {
    report.violation("could not write span file " + path);
  }
  add_layer_metrics(report, window, probes);
  return report;
}

}  // namespace perfbench
