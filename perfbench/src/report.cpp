// The report: span file, medians, and the end-to-end and per-layer
// metric tables every workload shares.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {
namespace {

/// Jain's fairness index of `x` (1 = perfectly even).
double jain_fairness(const std::vector<double>& x) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double v : x) {
    sum += v;
    sum_sq += v * v;
  }
  return sum_sq == 0.0 ? 1.0
                       : sum * sum / (static_cast<double>(x.size()) * sum_sq);
}

}  // namespace

bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanBuffer*>& buffers) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"traceEvents\": [", out);
  bool first = true;
  for (const SpanBuffer* buffer : buffers) {
    for (std::size_t i = 0; i < buffer->size(); ++i) {
      const Span& span = (*buffer)[i];
      std::fprintf(out,
                   "%s\n  {\"name\": \"%s\", \"cat\": \"perfbench\", "
                   "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
                   "\"dur\": %.3f, \"args\": {\"request\": %llu, "
                   "\"parent\": %llu}}",
                   first ? "" : ",", span.name, span.tid,
                   static_cast<double>(span.start_ns) / 1000.0,
                   static_cast<double>(span.end_ns - span.start_ns) / 1000.0,
                   static_cast<unsigned long long>(span.request),
                   static_cast<unsigned long long>(span.parent));
      first = false;
    }
  }
  std::uint64_t dropped = 0;
  for (const SpanBuffer* buffer : buffers) dropped += buffer->dropped();
  std::fprintf(out, "\n], \"droppedSpans\": %llu}\n",
               static_cast<unsigned long long>(dropped));
  return std::fclose(out) == 0;
}

double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

void EndToEnd::add_window(double window_entries, double window_wall_s,
                          double window_cpu_s,
                          const LatencyHistogram& window_acquire) {
  entries += window_entries;
  wall_s += window_wall_s;
  cpu_s += window_cpu_s;
  acquire.merge(window_acquire);
}

void add_end_to_end_metrics(Report& report, const EndToEnd& window,
                            double setup_s) {
  report.add("entries_per_s", window.entries / window.wall_s, "1/s");
  report.add("acquire_p50_us", window.acquire.quantile(0.50) / 1e3, "us");
  report.add("acquire_p99_us", window.acquire.quantile(0.99) / 1e3, "us");
  report.add("cpu_us_per_entry",
             window.cpu_s * 1e6 / std::max(window.entries, 1.0), "us");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("setup_s", setup_s, "s");
}

LayerCounts LayerCounts::operator-(const LayerCounts& base) const {
  LayerCounts d = *this;
  d.entries -= base.entries;
  d.messages -= base.messages;
  d.tasks -= base.tasks;
  d.steals -= base.steals;
  d.parks -= base.parks;
  d.strand_batch_sum -= base.strand_batch_sum;
  d.strand_batch_count -= base.strand_batch_count;
  d.chained -= base.chained;
  d.yields -= base.yields;
  d.wire_bytes -= base.wire_bytes;
  d.frames_sent -= base.frames_sent;
  d.frames_received -= base.frames_received;
  d.wakeups -= base.wakeups;
  d.partial_frames -= base.partial_frames;
  d.backpressure_waits -= base.backpressure_waits;
  // Repairs are reported as the final epoch sum, not a delta.
  d.repairs = repairs;
  return d;
}

std::string span_file_path(const Options& options) {
  return options.trace_dir + "/perfbench-" + options.workload + "-seed" +
         std::to_string(options.seed) + ".trace.json";
}


void add_layer_metrics(Report& report, const TracedWindow& window,
                       const ProbeResults& probes) {
  const LayerCounts& c = window.counts;
  const auto per = [](double x, double base) {
    return base > 0 ? x / base : 0.0;
  };
  const double entries = c.entries;
  const double submit_p50_us = probes.submit_to_run.quantile(0.50) / 1e3;
  const double rtt_p50_us = probes.loop_rtt.quantile(0.50) / 1e3;
  const double frames_per_entry = per(c.frames_sent, entries);

  report.add("core.msgs_per_entry", per(c.messages, entries), "msgs/entry");
  report.add("exec.tasks_per_entry", per(c.tasks, entries), "tasks/entry");
  report.add("exec.parks_per_entry", per(c.parks, entries), "parks/entry");
  report.add("exec.steals_per_entry", per(c.steals, entries), "steals/entry");
  report.add("exec.strand_batch_mean",
             per(c.strand_batch_sum, c.strand_batch_count), "tasks");
  report.add("exec.submit_to_run_p50_us", submit_p50_us, "us");
  report.add("exec.submit_to_run_p99_us",
             probes.submit_to_run.quantile(0.99) / 1e3, "us");
  report.add("service.unlock_p50_us", window.unlock.quantile(0.50) / 1e3,
             "us");
  report.add("service.unlock_p99_us", window.unlock.quantile(0.99) / 1e3,
             "us");
  report.add("service.acquire_p999_us", window.acquire.quantile(0.999) / 1e3,
             "us");
  report.add("service.acquire_over_1ms",
             static_cast<double>(window.acquire.count_at_least(1000000)),
             "count");
  report.add("service.chained_frac", per(c.chained, entries), "ratio");
  report.add("service.lease_yields_per_kentry", 1000.0 * per(c.yields, entries),
             "1/kentry");
  report.add("service.jain_fairness", jain_fairness(window.per_client_entries),
             "ratio");
  report.add("wire.bytes_per_entry", per(c.wire_bytes, entries),
             "bytes/entry");
  report.add("wire.frames_per_wakeup", per(c.frames_received, c.wakeups),
             "frames/wakeup");
  report.add("wire.partial_frames_per_kframe",
             1000.0 * per(c.partial_frames, c.frames_received), "1/kframe");
  report.add("wire.backpressure_waits", c.backpressure_waits, "count");
  report.add("codec.encode_ns", probes.encode_ns, "ns");
  report.add("codec.decode_ns", probes.decode_ns, "ns");
  report.add("loop.rtt_p50_us", rtt_p50_us, "us");
  // What the probes do not account for: the untraced acquire median minus
  // each operation an entry performs times that operation's probe cost.
  // The submit probe prices waking a parked pool, which an entry pays
  // about once per park; a frame costs one encode, one decode and one
  // loopback one-way trip.
  const double explained_us =
      per(c.parks, entries) * submit_p50_us +
      frames_per_entry *
          ((probes.encode_ns + probes.decode_ns) / 1e3 + rtt_p50_us / 2.0);
  report.add("budget.unexplained_us",
             window.acquire_untraced.quantile(0.50) / 1e3 - explained_us,
             "us");
  report.add("sim.entries_per_ktick", c.sim_entries_per_ktick,
             "entries/ktick");
  report.add("sim.max_wait_ticks", c.sim_max_wait_ticks, "ticks");
  report.add("fault.repairs", c.repairs, "count");
  report.add("trace.overhead_pct",
             100.0 * per(window.untraced_entries_per_s -
                              window.traced_entries_per_s,
                          window.untraced_entries_per_s),
             "%");
}

}  // namespace perfbench
