#ifndef QBENCH_STATS_H_
#define QBENCH_STATS_H_

// The one percentile rule every qbench metric uses, plus latency series
// that keep failed operations in the sample instead of dropping them.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace qbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// A latency sample standing for a failed operation: it misses every bound.
constexpr double kFailedSample = std::numeric_limits<double>::infinity();

// Nearest-rank percentile: the value at rank ceil(pct/100 * n) of the
// sorted samples. `beyond` counts the samples ranked above it.
struct PercentileResult {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

// Minimum number of samples that must rank above a reported percentile.
constexpr std::size_t kMinBeyond = 10;

// Rank (1-based) of the pct-th percentile among n samples; integer math so
// that e.g. 99% of 1000 is exactly rank 990.
std::size_t NearestRank(std::size_t n, int pct);

// Computes the pct-th percentile. Returns false (leaving `out` with the
// sample counts filled in) when fewer than kMinBeyond samples rank above
// it: such a percentile is not reported.
bool Percentile(std::vector<double> samples, int pct, PercentileResult* out);

// Latencies of one operation type, in milliseconds.
class LatencySeries {
 public:
  void Add(double ms) { samples_.push_back(ms); }
  void AddFailure() {
    samples_.push_back(kFailedSample);
    ++failed_;
  }
  void Append(const LatencySeries& other);

  const std::vector<double>& samples() const { return samples_; }
  std::size_t attempted() const { return samples_.size(); }
  std::size_t failed() const { return failed_; }

 private:
  std::vector<double> samples_;
  std::size_t failed_ = 0;
};

// Peak resident set of this process (VmHWM), in MiB; 0 if unavailable.
double PeakRssMiB();

}  // namespace qbench

#endif  // QBENCH_STATS_H_
