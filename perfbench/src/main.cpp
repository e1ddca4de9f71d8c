// perfbench: one run of one workload of the lock service benchmark.
//
//   perfbench --workload <handoff|zipf|tcp|sim-faults> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Prints a context line, then as the last line of standard output one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 when a correctness check failed and 2 on bad arguments or an
// exception. perfbench/run.py builds this binary and runs it.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "telemetry/telemetry.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

void usage() {
  std::cerr << "usage: perfbench --workload <handoff|zipf|tcp|sim-faults> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]\n";
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--trace-dir") {
        options.trace_dir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty() && options.seconds > 0;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

void print_context(const Options& options) {
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  std::printf(
      "{\"context\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %ld, \"build_type\": %s, "
      "\"DMX_TELEMETRY\": %d, \"compiler\": %s, \"commit\": %s}}\n",
      json_string(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      json_string(PERFBENCH_BUILD_TYPE).c_str(), DMX_TELEMETRY,
      json_string(PERFBENCH_COMPILER).c_str(),
      commit != nullptr && commit[0] != '\0' ? json_string(commit).c_str()
                                             : "null");
}

void print_result(const Report& report) {
  for (const std::string& violation : report.violations) {
    std::cerr << "perfbench: VIOLATION: " << violation << "\n";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.violations.empty() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    std::printf("%s%s: {\"value\": %.17g, \"unit\": %s}", i == 0 ? "" : ", ",
                json_string(m.name).c_str(), m.value,
                json_string(m.unit).c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    usage();
    return 2;
  }
  Report (*run)(const Options&) = nullptr;
  if (options.workload == "handoff") run = perfbench::run_handoff;
  if (options.workload == "zipf") run = perfbench::run_zipf;
  if (options.workload == "tcp") run = perfbench::run_tcp;
  if (options.workload == "sim-faults") run = perfbench::run_sim_faults;
  if (run == nullptr) {
    std::cerr << "perfbench: unknown workload '" << options.workload << "'\n";
    usage();
    return 2;
  }
  print_context(options);
  std::fflush(stdout);
  Report report;
  try {
    report = run(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what()
              << "\n";
    return 2;
  }
  if (report.attempted == 0) report.violation("no acquire was attempted");
  for (perfbench::Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.violation("metric " + m.name + " is not a finite number");
      m.value = 0.0;
    }
  }
  print_result(report);
  return report.violations.empty() ? 0 : 1;
}
