// Shared plumbing of the repository benchmark: the run's arguments, the
// report it prints, clocks, order statistics, memory probes and the latency
// histogram the traced run keeps per host thread.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Everything one run reports. `metrics` keeps insertion order; `info`
/// lines describe the input and are printed before the result line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void info(const std::string& line) { info_.push_back(line); }
  /// A correctness violation: recorded, printed, and it fails the run.
  void violation(const std::string& what) {
    correct_ = false;
    info_.push_back("VIOLATION: " + what);
  }
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return correct_ && failed_ == 0 && attempted_ > 0; }
  /// Prints the info lines, then the one-line JSON result.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> info_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
template <typename T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1 - frac) +
         static_cast<double>(v[hi]) * frac;
}

template <typename T>
double median(const std::vector<T>& v) {
  return quantile(v, 0.5);
}

/// Keeps a computed value alive so a timed loop is not optimized away.
template <typename T>
void keep(const T& v) {
  asm volatile("" : : "r,m"(v) : "memory");
}

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();
/// Bytes the allocator currently hands out (heap plus mmapped chunks).
std::uint64_t heap_bytes();
/// Host cores this process may run on.
int host_cores();

/// FNV-1a over 64-bit words: input and final-state digests.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
};

/// Log-linear histogram of nanosecond durations: exact below 16 ns, then 16
/// buckets per power of two (about 6% resolution) up to 2^40 ns. Cheap
/// enough to record every call of a traced op.
class LatencyHistogram {
 public:
  void record(std::uint64_t ns) {
    ++counts_[bucket(ns)];
    ++calls_;
    sum_ns_ += ns;
  }
  void merge(const LatencyHistogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    calls_ += o.calls_;
    sum_ns_ += o.sum_ns_;
  }
  std::uint64_t calls() const { return calls_; }
  std::uint64_t sum_ns() const { return sum_ns_; }
  /// Midpoint of the bucket holding quantile q; 0 with no calls.
  double quantile_ns(double q) const {
    if (calls_ == 0) return 0;
    const std::uint64_t rank =
        static_cast<std::uint64_t>(q * static_cast<double>(calls_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen > rank) return (lower(i) + lower(i + 1)) / 2.0;
    }
    return lower(kBuckets);
  }

 private:
  static constexpr int kSub = 16;  // buckets per octave
  static constexpr int kSubBits = 4;
  static constexpr std::size_t kBuckets = kSub + kSub * 36;
  static std::size_t bucket(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int e = 63 - std::countl_zero(v);  // e >= kSubBits
    const std::uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
    return std::min<std::size_t>(
        kSub + static_cast<std::size_t>(e - kSubBits) * kSub + sub,
        kBuckets - 1);
  }
  static double lower(std::size_t b) {
    if (b < kSub) return static_cast<double>(b);
    const int octave = static_cast<int>((b - kSub) / kSub);
    const double sub = static_cast<double>((b - kSub) % kSub);
    return std::ldexp(kSub + sub, octave);
  }
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t calls_ = 0;
  std::uint64_t sum_ns_ = 0;
};

void run_sim_list32(const Args& args, Report& report);
void run_conc_read_mostly(const Args& args, Report& report);
void run_conc_contended(const Args& args, Report& report);

/// Outside-in calibration probes (traced runs only).
void probe_sim_layers(Report& report);
void probe_conc_layers(Report& report);

}  // namespace perfbench
