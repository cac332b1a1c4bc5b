#ifndef QBENCH_REPORT_H_
#define QBENCH_REPORT_H_

// Metric definitions and the per-run report. The table in report.cc is
// the single source of each metric's unit, better direction, the
// workloads that measure it and, for a per-layer metric, the end-to-end
// metric it should move; BENCHMARK.json lists the same names and units
// (run.py checks that they agree).

#include <cstddef>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "stats.h"

namespace qbench {

enum class MetricKind {
  // Measured by every workload's untraced run; gated by BENCHMARK.json.
  kEndToEnd,
  // End-to-end figures printed in the report but not in the result line:
  // the query p99 (on this shared-CPU machine class it follows hypervisor
  // preemption more than the system) and the writer latencies, which
  // only the workloads that write can measure.
  kReport,
  // Per-layer metrics of the traced run.
  kLayer,
};

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  // "lower" or "higher"
  MetricKind kind;
  const char* workloads;  // where the metric is measured
  const char* moves;      // per-layer: the end-to-end metric it should move
  const char* definition;
};

const std::vector<MetricDef>& MetricTable();
const MetricDef* FindMetric(std::string_view name);

class Report {
 public:
  // Records a metric value with the number of samples behind it.
  void Set(std::string_view name, double value, std::size_t samples);
  // Records the pct-th nearest-rank percentile of `samples`; fewer than
  // kMinBeyond samples above it fails the run.
  void SetPercentile(std::string_view name, const std::vector<double>& samples,
                     int pct);
  // num / den, or 0 when den is 0 (nothing attempted).
  void SetRatio(std::string_view name, double num, double den);
  // A per-layer metric this workload does not reach: reported as 0.
  void NotReached(std::string_view name);

  // Attempted/failed accounting per op type.
  void CountOps(const std::string& op, std::size_t attempted,
                std::size_t failed);
  void CountOps(const std::string& op, const LatencySeries& series) {
    CountOps(op, series.attempted(), series.failed());
  }

  // Marks the run incorrect; no metric is printed.
  void Fail(const std::string& why);
  bool ok() const { return failures_.empty(); }

  // Marks every per-layer metric not set yet as not reached.
  void FillNotReached();

  // Human-readable lines: op accounting, then every recorded metric of
  // the given kinds with unit, better direction and sample count.
  void PrintHuman(FILE* out, bool layers) const;
  // The final result line: {"correct", "attempted", "failed", "metrics"}
  // with every metric of `kind` (or none when the run failed). Returns
  // whether the run was correct.
  bool PrintResultLine(FILE* out, MetricKind kind) const;

 private:
  struct Value {
    double value = 0.0;
    std::size_t samples = 0;
    std::size_t beyond = 0;
    bool reached = true;
  };
  struct Ops {
    std::size_t attempted = 0;
    std::size_t failed = 0;
  };
  const MetricDef& Def(std::string_view name);

  std::map<std::string, Value, std::less<>> values_;
  std::map<std::string, Ops> ops_;
  std::vector<std::string> failures_;
};

}  // namespace qbench

#endif  // QBENCH_REPORT_H_
