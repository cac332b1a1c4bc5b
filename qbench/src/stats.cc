#include "stats.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace qbench {

std::size_t NearestRank(std::size_t n, int pct) {
  if (n == 0) return 0;
  std::size_t rank = (static_cast<std::size_t>(pct) * n + 99) / 100;
  return std::max<std::size_t>(rank, 1);
}

bool Percentile(std::vector<double> samples, int pct, PercentileResult* out) {
  *out = PercentileResult{};
  out->samples = samples.size();
  if (samples.empty() || pct <= 0 || pct > 100) return false;
  const std::size_t rank = NearestRank(samples.size(), pct);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  out->value = samples[rank - 1];
  out->beyond = samples.size() - rank;
  return out->beyond >= kMinBeyond;
}

void LatencySeries::Append(const LatencySeries& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  failed_ += other.failed_;
}

double PeakRssMiB() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::atof(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

}  // namespace qbench
