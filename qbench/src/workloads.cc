#include "workloads.h"

#include <cstdio>

namespace qbench {

double RunTogether(const std::vector<std::function<void()>>& bodies) {
  std::atomic<bool> go{false};
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(bodies.size());
  for (const auto& body : bodies) {
    threads.emplace_back([&go, &ready, &body] {
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      body();
    });
  }
  while (ready.load(std::memory_order_acquire) < bodies.size()) {
    std::this_thread::yield();
  }
  const auto start = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  return SecondsBetween(start, Clock::now());
}

void ReportEndToEnd(const std::vector<double>& setup_s,
                    const LatencySeries& queries, double wall_s,
                    double rss_mb, Report* report) {
  report->Set("setup_s", Median(setup_s), setup_s.size());
  report->SetPercentile("query_p50_ms", queries.samples(), 50);
  report->SetPercentile("query_p90_ms", queries.samples(), 90);
  report->SetPercentile("query_p99_ms", queries.samples(), 99);
  report->Set("query_per_s", static_cast<double>(queries.attempted()) / wall_s,
              queries.attempted());
  report->Set("rss_peak_mb", rss_mb, 1);
}

void ReportTraceOverhead(const LatencySeries& untraced,
                         const LatencySeries& traced, Report* report) {
  PercentileResult before;
  PercentileResult after;
  Percentile(untraced.samples(), 50, &before);
  Percentile(traced.samples(), 50, &after);
  report->Set("trace.query_p50_overhead_ms", after.value - before.value,
              traced.attempted());
}

void WriteTrace(const Trace& trace, const RunOptions& options,
                Report* report) {
  if (!options.trace_path.empty() &&
      !trace.WriteJsonLines(options.trace_path)) {
    report->Fail("cannot write " + options.trace_path);
  }
}

void PrintPhaseSeconds(Clock::time_point start, Clock::time_point setup_done,
                       Clock::time_point timed_done,
                       Clock::time_point checks_done) {
  std::printf(
      "phase seconds: set-up %.2f, timed %.2f, checks %.2f, more set-ups "
      "%.2f\n",
      SecondsBetween(start, setup_done), SecondsBetween(setup_done, timed_done),
      SecondsBetween(timed_done, checks_done),
      SecondsBetween(checks_done, Clock::now()));
}

bool SameViewOutput(const q::query::ViewSnapshot& a,
                    const q::query::ViewSnapshot& b, bool compare_edges,
                    std::string* why) {
  auto differ = [why](const std::string& what) {
    *why = what;
    return false;
  };
  if (a.trees.size() != b.trees.size()) return differ("tree count");
  for (std::size_t i = 0; i < a.trees.size(); ++i) {
    if (a.trees[i].cost != b.trees[i].cost) {
      return differ("cost of tree " + std::to_string(i));
    }
    if (compare_edges && a.trees[i].edges != b.trees[i].edges) {
      return differ("edges of tree " + std::to_string(i));
    }
  }
  if (a.queries.size() != b.queries.size()) return differ("query count");
  if (a.results.columns != b.results.columns) return differ("columns");
  if (a.results.rows.size() != b.results.rows.size()) {
    return differ("row count");
  }
  for (std::size_t i = 0; i < a.results.rows.size(); ++i) {
    const auto& ra = a.results.rows[i];
    const auto& rb = b.results.rows[i];
    if (ra.cost != rb.cost || ra.query_index != rb.query_index ||
        !(ra.values == rb.values)) {
      return differ("row " + std::to_string(i));
    }
  }
  return true;
}

}  // namespace qbench
