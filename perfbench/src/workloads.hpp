// The four workloads and the layer probes. Each workload runner builds its
// system from the seed's inputs, measures, checks, and fills a Report with
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run); see perfbench/README.md for what each number means.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

Report run_handoff(const Options& options);
Report run_zipf(const Options& options);
Report run_tcp(const Options& options);
Report run_sim_faults(const Options& options);

/// Costs of single layer operations, measured after the workload's
/// window by timing calls into each layer's public functions.
struct ProbeResults {
  /// exec::Executor::submit into a parked 2-worker pool, until the task
  /// starts running.
  LatencyHistogram submit_to_run;
  /// transport::Codec::encode_frame / decode_header + decode, mean per
  /// frame over the Neilsen REQUEST and PRIVILEGE frames.
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  /// transport::EventLoop::send ping-pong between two loopback loops.
  LatencyHistogram loop_rtt;
};

/// Runs every probe, recording one span per probe into `spans`.
ProbeResults run_probes(SpanBuffer& spans, std::uint64_t parent);

/// Per-entry layer counts a workload measured across its window; the
/// traced run turns them, plus the probes, into the per-layer metrics.
struct LayerCounts {
  double entries = 0;
  double messages = 0;
  double tasks = 0;
  double steals = 0;
  double parks = 0;
  double strand_batch_sum = 0;
  double strand_batch_count = 0;
  double chained = 0;
  double yields = 0;
  double wire_bytes = 0;
  double frames_sent = 0;
  double frames_received = 0;
  double wakeups = 0;
  double partial_frames = 0;
  double backpressure_waits = 0;
  double repairs = 0;
  /// Simulated workloads only: exact virtual-time counts.
  double sim_entries_per_ktick = 0;
  double sim_max_wait_ticks = 0;

  LayerCounts operator-(const LayerCounts& base) const;
};

/// What the traced run measured directly, besides the layer counts.
struct TracedWindow {
  LayerCounts counts;
  /// Acquire latency over the whole traced run (untraced and traced
  /// segments alike: tracing adds work only after the grant).
  LatencyHistogram acquire;
  /// Acquire latency in the untraced segments only (the budget's base).
  LatencyHistogram acquire_untraced;
  /// Span around unlock()/release(), traced segments only.
  LatencyHistogram unlock;
  double untraced_entries_per_s = 0;
  double traced_entries_per_s = 0;
  /// Completed entries per client over the whole traced run.
  std::vector<double> per_client_entries;
};

/// The untraced run's window, measured in pieces (one per system instance
/// or sim episode) and summed: each end-to-end figure covers every entry
/// of the window, slow stretches included. Rates and CPU cost are totals
/// over the pieces; latency quantiles come from their merged histograms.
struct EndToEnd {
  double entries = 0;
  double wall_s = 0;
  double cpu_s = 0;
  LatencyHistogram acquire;

  void add_window(double entries, double wall_s, double cpu_s,
                  const LatencyHistogram& acquire);
};

/// Adds every end-to-end metric to `report`, in BENCHMARK.json order.
void add_end_to_end_metrics(Report& report, const EndToEnd& window,
                            double setup_s);

/// Adds every per-layer metric to `report`, in BENCHMARK.json order.
void add_layer_metrics(Report& report, const TracedWindow& window,
                       const ProbeResults& probes);

/// Where the traced run writes its span file:
/// <trace_dir>/perfbench-<workload>-seed<seed>.trace.json.
std::string span_file_path(const Options& options);

}  // namespace perfbench
