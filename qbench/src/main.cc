// qbench: the benchmark of the Q system. Drives Q only through its public
// API; see qbench/run.py for how it is built and invoked.
//
// Usage:
//   qbench --workload serve|feedback|onboard|catalog --seed N --seconds S
//          --trace 0|1 [--trace-out PATH]
//   qbench --list-metrics
//
// Prints the op accounting and every metric with its unit, better
// direction and sample count, then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). Exits 1 when
// a check fails or an op fails, 2 on bad usage.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload serve|feedback|onboard|catalog "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n"
               "       %s --list-metrics\n",
               argv0, argv0);
  return 2;
}

void ListMetrics() {
  const char* kinds[] = {"end_to_end", "report", "per_layer"};
  std::printf("[\n");
  const auto& table = qbench::MetricTable();
  for (std::size_t i = 0; i < table.size(); ++i) {
    const qbench::MetricDef& m = table[i];
    std::printf("  {\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\", "
                "\"kind\": \"%s\", \"workloads\": \"%s\", \"moves\": \"%s\", "
                "\"definition\": \"%s\"}%s\n",
                m.name, m.unit, m.better,
                kinds[static_cast<int>(m.kind)], m.workloads, m.moves,
                m.definition, i + 1 < table.size() ? "," : "");
  }
  std::printf("]\n");
}

}  // namespace

int main(int argc, char** argv) {
  qbench::RunOptions options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      ListMetrics();
      return 0;
    }
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::atoi(value);
      have_seconds = true;
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      have_trace = std::strcmp(value, "0") == 0 || options.trace;
    } else if (arg == "--trace-out") {
      options.trace_path = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_seed || !have_seconds || !have_trace || options.seconds < 1) {
    return Usage(argv[0]);
  }

  qbench::Report report;
  if (options.workload == "serve") {
    qbench::RunServe(options, &report);
  } else if (options.workload == "feedback") {
    qbench::RunFeedback(options, &report);
  } else if (options.workload == "onboard") {
    qbench::RunOnboard(options, &report);
  } else if (options.workload == "catalog") {
    qbench::RunCatalog(options, &report);
  } else {
    return Usage(argv[0]);
  }
  if (options.trace && report.ok()) report.FillNotReached();
  std::printf("workload=%s seed=%llu seconds=%d trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  report.PrintHuman(stdout, /*layers=*/options.trace);
  const bool correct = report.PrintResultLine(
      stdout, options.trace ? qbench::MetricKind::kLayer
                            : qbench::MetricKind::kEndToEnd);
  return correct ? 0 : 1;
}
