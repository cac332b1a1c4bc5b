#ifndef QBENCH_WORKLOADS_H_
#define QBENCH_WORKLOADS_H_

// The four workloads and the helpers they share. Each workload sets
// itself up, generates its seeded schedule, runs a timed phase, checks
// the system's outputs and records metrics on a Report. The traced run
// (--trace 1) first runs the untraced phase for its query_p50_ms, then
// the same schedule again on a fresh set-up with spans and replays, and
// reports per-layer metrics plus the tracing overhead.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "query/view.h"
#include "report.h"
#include "stats.h"
#include "trace.h"

namespace qbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  // Sizes each run's fixed work: about this many seconds of timed work on
  // a 4-core x86 machine.
  int seconds = 10;
  bool trace = false;
  // Where the traced run writes its spans (JSON lines).
  std::string trace_path;
};

void RunServe(const RunOptions& options, Report* report);
void RunFeedback(const RunOptions& options, Report* report);
void RunOnboard(const RunOptions& options, Report* report);
void RunCatalog(const RunOptions& options, Report* report);

// --- shared helpers --------------------------------------------------------

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return MsBetween(a, b) / 1e3;
}

inline double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  return xs[(xs.size() - 1) / 2];
}

// Request ids: the issuing thread in the high bits, the op index below.
inline std::uint64_t RequestId(std::size_t thread, std::size_t op) {
  return (static_cast<std::uint64_t>(thread) << 40) | op;
}

// Starts one thread per body behind a common start line, joins them all
// and returns the wall seconds from the start line to the last join.
double RunTogether(const std::vector<std::function<void()>>& bodies);

// Compares two view outputs: tree costs (and edge ids when
// `compare_edges`), compiled-query count, result columns and every ranked
// row. Appends the first difference to `why`.
bool SameViewOutput(const q::query::ViewSnapshot& a,
                    const q::query::ViewSnapshot& b, bool compare_edges,
                    std::string* why);

// Records the end-to-end metrics every workload reports: setup_s (median
// of the set-up repetitions), the query latency percentiles, the query
// rate over `wall_s` seconds and the peak RSS.
void ReportEndToEnd(const std::vector<double>& setup_s,
                    const LatencySeries& queries, double wall_s,
                    double rss_mb, Report* report);

// Records trace.query_p50_overhead_ms: the traced run's query p50 minus
// the untraced run's.
void ReportTraceOverhead(const LatencySeries& untraced,
                         const LatencySeries& traced, Report* report);

// Writes the traced run's spans to options.trace_path, when set.
void WriteTrace(const Trace& trace, const RunOptions& options,
                Report* report);

// Number of set-up repetitions a run makes for setup_s.
constexpr int kSetupReps = 5;

// Prints where a phase's wall time went: the measured set-up, the timed
// phase, the checks, and the remaining set-up repetitions.
void PrintPhaseSeconds(Clock::time_point start, Clock::time_point setup_done,
                       Clock::time_point timed_done,
                       Clock::time_point checks_done);

}  // namespace qbench

#endif  // QBENCH_WORKLOADS_H_
