// Shared vocabulary of the perfbench program: run options, the seeded input
// generators, the fixed-size latency histogram, the exclusivity witness,
// the span recorder, and the report every workload fills in.
//
// The benchmark only calls the library's public API; everything here is
// the benchmark's own instrumentation, so a change to the library cannot
// change how it is measured.
#pragma once

#include <sys/resource.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its Chrome-trace span file into.
  std::string trace_dir = ".";
};

// ---- Clocks ----------------------------------------------------------------

/// Nanoseconds on the steady clock since the first call in this process.
inline std::uint64_t now_ns() {
  static const auto anchor = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - anchor)
          .count());
}

/// Process user + system CPU seconds so far (every thread).
inline double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec +
                             usage.ru_stime.tv_usec) /
             1e6;
}

/// Peak resident set size of this program image, in MiB: VmHWM, which
/// execve resets (getrusage's ru_maxrss would also count the memory of
/// the launching process from before the exec).
double peak_rss_mb();

// ---- Seeded inputs ---------------------------------------------------------

/// SplitMix64: the benchmark's own generator, so the inputs a seed makes
/// do not depend on any generator inside the library under test.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform01() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Independent stream `stream` of run seed `seed`.
inline InputRng input_stream(std::uint64_t seed, std::uint64_t stream) {
  InputRng mix(seed ^ (0xd1b54a32d192ed03ULL * (stream + 1)));
  return InputRng(mix.next());
}

/// `length` Zipf(s) draws over ranks 0..m-1 (rank 0 hottest), by inverse
/// CDF.
inline std::vector<std::int32_t> zipf_sequence(InputRng rng, int m, double s,
                                               std::size_t length) {
  std::vector<double> cdf(static_cast<std::size_t>(m));
  double total = 0.0;
  for (int k = 0; k < m; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[static_cast<std::size_t>(k)] = total;
  }
  std::vector<std::int32_t> out(length);
  for (std::size_t i = 0; i < length; ++i) {
    const double u = rng.uniform01() * total;
    std::size_t lo = 0;
    std::size_t hi = cdf.size() - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cdf[mid] <= u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    out[i] = static_cast<std::int32_t>(lo);
  }
  return out;
}

// ---- Latency histogram -----------------------------------------------------

/// Fixed-size log-linear histogram of nanosecond values: exact below 128,
/// then 64 linear sub-buckets per power of two, so every bucket is at
/// most 1/64 of its lower bound wide. Quantiles report the bucket
/// midpoint: relative error <= 0.8%, far below any bound the benchmark
/// fixes. 18 KiB per histogram, no allocation while recording.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr int kLinear = 2 << kSubBits;  // values stored exactly
  static constexpr int kMaxShift = 34;           // caps values near 2^41 ns
  static constexpr int kBuckets = kLinear + kMaxShift * (1 << kSubBits);

  void record(std::uint64_t ns) {
    ++buckets_[static_cast<std::size_t>(index_of(ns))];
    ++count_;
  }

  void merge(const LatencyHistogram& other) {
    for (int i = 0; i < kBuckets; ++i) {
      buckets_[static_cast<std::size_t>(i)] +=
          other.buckets_[static_cast<std::size_t>(i)];
    }
    count_ += other.count_;
  }

  /// Value (ns) at quantile q in [0, 1]; 0 when empty.
  double quantile(double q) const {
    if (count_ == 0) return 0.0;
    auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    if (rank < 1) rank = 1;
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += buckets_[static_cast<std::size_t>(i)];
      if (seen >= rank) return midpoint(i);
    }
    return midpoint(kBuckets - 1);
  }

  /// Samples whose bucket lies wholly at or above `ns`.
  std::uint64_t count_at_least(std::uint64_t ns) const {
    std::uint64_t n = 0;
    for (int i = index_of(ns); i < kBuckets; ++i) {
      if (lower_bound(i) >= ns) n += buckets_[static_cast<std::size_t>(i)];
    }
    return n;
  }

 private:
  static int index_of(std::uint64_t v) {
    if (v < static_cast<std::uint64_t>(kLinear)) return static_cast<int>(v);
    int shift = std::bit_width(v) - kSubBits - 1;
    if (shift > kMaxShift) return kBuckets - 1;
    return kLinear + (shift - 1) * (1 << kSubBits) +
           static_cast<int>((v >> shift) - (1u << kSubBits));
  }
  static std::uint64_t lower_bound(int i) {
    if (i < kLinear) return static_cast<std::uint64_t>(i);
    const int shift = (i - kLinear) / (1 << kSubBits) + 1;
    const auto sub =
        static_cast<std::uint64_t>((i - kLinear) % (1 << kSubBits)) +
        (1u << kSubBits);
    return sub << shift;
  }
  static double midpoint(int i) {
    if (i < kLinear) return static_cast<double>(i);
    const int shift = (i - kLinear) / (1 << kSubBits) + 1;
    return static_cast<double>(lower_bound(i)) +
           static_cast<double>((std::uint64_t{1} << shift) - 1) / 2.0;
  }

  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
};

// ---- Exclusivity witness ---------------------------------------------------

/// Per-resource occupancy flags set and cleared by the client inside each
/// critical section. Every client of a hardware workload lives in this
/// process, so one witness sees them all.
class Witness {
 public:
  explicit Witness(int resources)
      : slots_(std::make_unique<Slot[]>(static_cast<std::size_t>(resources))) {
  }
  void enter(int r) {
    if (slots_[static_cast<std::size_t>(r)].occupancy.fetch_add(
            1, std::memory_order_acq_rel) != 0) {
      violations_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void exit(int r) {
    slots_[static_cast<std::size_t>(r)].occupancy.fetch_sub(
        1, std::memory_order_acq_rel);
  }
  std::uint64_t violations() const {
    return violations_.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<int> occupancy{0};
  };
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> violations_{0};
};

// ---- Spans -----------------------------------------------------------------

/// One completed span. `request` groups the spans of one acquire; `parent`
/// names the enclosing span's request id (0 for a root).
struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t request = 0;
  std::uint64_t parent = 0;
  const char* name = "";
  std::uint32_t tid = 0;
};

/// Preallocated single-writer span buffer; spans past capacity are
/// counted, not stored, so recording never allocates.
class SpanBuffer {
 public:
  SpanBuffer(std::size_t capacity, std::uint32_t tid)
      : spans_(capacity), tid_(tid) {}
  void add(const char* name, std::uint64_t request, std::uint64_t parent,
           std::uint64_t start_ns, std::uint64_t end_ns) {
    if (used_ == spans_.size()) {
      ++dropped_;
      return;
    }
    spans_[used_++] = {start_ns, end_ns, request, parent, name, tid_};
  }
  std::size_t size() const { return used_; }
  std::uint64_t dropped() const { return dropped_; }
  const Span& operator[](std::size_t i) const { return spans_[i]; }

 private:
  std::vector<Span> spans_;
  std::size_t used_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint32_t tid_;
};

/// Writes every buffer as one Chrome-trace JSON document in the flight
/// recorder's format ({"traceEvents": [...]}, one "X" event per span),
/// plus "droppedSpans", the spans that found their buffer full. Returns
/// false if the file could not be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanBuffer*>& buffers);

// ---- Report ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run of one workload measured and checked.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness violations (exclusivity, first_error(), entry count,
  /// determinism); any entry makes the run incorrect.
  std::vector<std::string> violations;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void violation(std::string what) { violations.push_back(std::move(what)); }
};

/// Median of a non-empty sample.
double median(std::vector<double> values);

}  // namespace perfbench
