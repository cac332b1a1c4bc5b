// qbench's own tests: the percentile rule, the self-time arithmetic and
// schedule determinism. Run with `python3 qbench/run.py --selftest`.

#include <cmath>
#include <cstdio>
#include <vector>

#include "data/synthetic.h"
#include "graph/cost_model.h"
#include "report.h"
#include "schedule.h"
#include "stats.h"
#include "trace.h"
#include "util/random.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

using qbench::Clock;

void TestNearestRank() {
  EXPECT(qbench::NearestRank(100, 50) == 50);
  EXPECT(qbench::NearestRank(101, 50) == 51);
  EXPECT(qbench::NearestRank(1000, 99) == 990);
  EXPECT(qbench::NearestRank(200, 95) == 190);
  EXPECT(qbench::NearestRank(100, 90) == 90);
  EXPECT(qbench::NearestRank(1, 50) == 1);
  EXPECT(qbench::NearestRank(3, 1) == 1);
  EXPECT(qbench::NearestRank(0, 50) == 0);
}

void TestPercentileRule() {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);  // unsorted input
  qbench::PercentileResult p;
  EXPECT(qbench::Percentile(xs, 50, &p));
  EXPECT(p.value == 50.0 && p.samples == 100 && p.beyond == 50);
  EXPECT(qbench::Percentile(xs, 90, &p));
  EXPECT(p.value == 90.0 && p.beyond == 10);
  // Nine samples beyond the p91: not reportable.
  EXPECT(!qbench::Percentile(xs, 91, &p));
  EXPECT(p.beyond == 9 && p.samples == 100);
  EXPECT(!qbench::Percentile(xs, 99, &p));
  EXPECT(!qbench::Percentile({}, 50, &p));
  // A p50 needs 20 samples.
  EXPECT(!qbench::Percentile(std::vector<double>(19, 1.0), 50, &p));
  EXPECT(qbench::Percentile(std::vector<double>(20, 1.0), 50, &p));

  // Failed ops rank last and miss every bound.
  qbench::LatencySeries series;
  for (int i = 0; i < 980; ++i) series.Add(1.0);
  for (int i = 0; i < 20; ++i) series.AddFailure();
  EXPECT(series.attempted() == 1000 && series.failed() == 20);
  EXPECT(qbench::Percentile(series.samples(), 50, &p) && p.value == 1.0);
  EXPECT(qbench::Percentile(series.samples(), 99, &p) && std::isinf(p.value));
}

void TestReport() {
  qbench::Report ok;
  std::vector<double> xs(1000, 2.0);
  ok.SetPercentile("query_p99_ms", xs, 99);
  ok.SetRatio("steiner.sp_hit_ratio", 0.0, 0.0);
  EXPECT(ok.ok());
  qbench::Report short_tail;
  short_tail.SetPercentile("query_p99_ms", std::vector<double>(999, 2.0), 99);
  EXPECT(!short_tail.ok());
  qbench::Report failed_ops;
  failed_ops.CountOps("serve.QueryView", 10, 1);
  EXPECT(!failed_ops.ok());
}

void TestUnionLength() {
  EXPECT(qbench::UnionLengthNs({}) == 0);
  EXPECT(qbench::UnionLengthNs({{0, 10}, {5, 15}, {20, 30}}) == 25);
  EXPECT(qbench::UnionLengthNs({{0, 100}, {10, 20}}) == 100);
  EXPECT(qbench::UnionLengthNs({{20, 30}, {0, 10}, {10, 20}}) == 30);
  EXPECT(qbench::UnionLengthNs({{5, 5}, {7, 3}}) == 0);
}

void TestSelfTime() {
  const Clock::time_point t0 = Clock::now();
  auto at = [t0](int ms) { return t0 + std::chrono::milliseconds(ms); };
  qbench::SpanLog log(t0);
  // Nested, overlapping children: 10..30 and 20..40 cover 30 ms of 100.
  const auto parent = log.Record("parent", at(0), at(100), 1);
  log.Record("child", at(10), at(30), 1, parent);
  log.Record("child", at(20), at(40), 1, parent);
  // Replayed children run after the parent: 120..150 and 150..170.
  const auto real = log.Record("real", at(200), at(300), 2);
  log.Record("replay", at(300), at(330), 2, real);
  log.Record("replay", at(330), at(350), 2, real);
  // A grandchild counts against its own parent only.
  const auto mid = log.Record("mid", at(400), at(450), 3);
  const auto inner = log.Record("inner", at(405), at(445), 3, mid);
  log.Record("leaf", at(410), at(420), 3, inner);
  // A reported child is placed at its parent's start.
  const auto reg = log.Record("register", at(500), at(560), 4);
  log.RecordReported("align", 25.0, reg);

  const std::vector<double> self = qbench::SelfTimesMs(log.spans());
  auto near = [](double a, double b) { return std::fabs(a - b) < 1e-6; };
  EXPECT(near(self[0], 70.0));
  EXPECT(near(self[1], 20.0) && near(self[2], 20.0));
  EXPECT(near(self[3], 50.0));
  EXPECT(near(self[6], 10.0));
  EXPECT(near(self[7], 30.0));
  EXPECT(near(self[9], 35.0));
  EXPECT(near(self[10], 25.0));

  qbench::Trace trace;
  qbench::SpanLog* a = trace.NewLog();
  const auto q1 = a->Record("q", at(0), at(10), 7);
  a->Record("c", at(10), at(14), 7, q1);
  a->Record("c", at(14), at(15), 7, q1);
  a->Record("q", at(20), at(30), 8);
  const auto replayed = trace.SelfMs("q", /*replayed_only=*/true);
  EXPECT(replayed.size() == 1 && near(replayed[0], 5.0));
  EXPECT(trace.SelfMs("q").size() == 2);
  const auto sums = trace.SumMsPerRequest("c");
  EXPECT(sums.size() == 1 && near(sums[0], 5.0));
}

void TestScheduleDeterminism() {
  using qbench::StreamSeed;
  EXPECT(StreamSeed(1, 0) != StreamSeed(1, 1));
  EXPECT(StreamSeed(1, 0) != StreamSeed(2, 0));

  const auto z1 = qbench::ZipfSequence(StreamSeed(5, 100), 16, 0.99, 5000);
  const auto z2 = qbench::ZipfSequence(StreamSeed(5, 100), 16, 0.99, 5000);
  const auto z3 = qbench::ZipfSequence(StreamSeed(6, 100), 16, 0.99, 5000);
  EXPECT(z1 == z2);
  EXPECT(z1 != z3);
  std::vector<int> counts(16, 0);
  for (auto v : z1) ++counts[v];
  for (int i = 1; i < 16; ++i) EXPECT(counts[0] > counts[i]);
  EXPECT(counts[15] > 0);

  EXPECT(qbench::UniformSequence(3, 64, 100) ==
         qbench::UniformSequence(3, 64, 100));
  EXPECT(qbench::SampleFlags(3, 0.25, 100) ==
         qbench::SampleFlags(3, 0.25, 100));
  const auto b1 = qbench::BalancedSequence(9, 64, 100);
  EXPECT(b1 == qbench::BalancedSequence(9, 64, 100));
  EXPECT(b1 != qbench::BalancedSequence(10, 64, 100));
  std::vector<int> seen(64, 0);
  for (std::size_t i = 0; i < 64; ++i) ++seen[b1[i]];
  for (int count : seen) EXPECT(count == 1);

  const std::vector<std::string> names = {"b", "a", "c", "a", "d", "e"};
  const auto p1 = qbench::MakeOnboardPlan(11, names, 10);
  const auto p2 = qbench::MakeOnboardPlan(11, names, 10);
  EXPECT(p1 == p2);
  EXPECT(p1.held_out.size() == 5 && p1.synthetic_seeds.size() == 5);
  auto s1 = qbench::MakePlannedSyntheticSource(p1, 2);
  auto s2 = qbench::MakePlannedSyntheticSource(p2, 2);
  const auto& t1 = *s1->tables()[0];
  const auto& t2 = *s2->tables()[0];
  EXPECT(t1.num_rows() == t2.num_rows());
  for (std::size_t r = 0; r < t1.num_rows(); ++r) {
    EXPECT(t1.row(r) == t2.row(r));
  }

  // Window requests over a small streaming catalog.
  q::graph::FeatureSpace space;
  q::graph::CostModel model(&space, q::graph::CostModelConfig{});
  q::graph::SearchGraph graph;
  q::util::Rng rng(9100);
  EXPECT(q::data::BuildStreamingCatalog(2000,
                                        q::data::StreamingCatalogOptions{},
                                        &rng, nullptr, &model, &graph)
             .ok());
  q::graph::WeightVector weights(&space);
  const auto w1 = qbench::WindowRequests(graph, weights, 42, 20);
  const auto w2 = qbench::WindowRequests(graph, weights, 42, 20);
  const auto w3 = qbench::WindowRequests(graph, weights, 43, 20);
  EXPECT(w1 == w2);
  EXPECT(w1 != w3);
  for (const auto& terminals : w1) EXPECT(terminals.size() == 3);
}

}  // namespace

int main() {
  TestNearestRank();
  TestPercentileRule();
  TestReport();
  TestUnionLength();
  TestSelfTime();
  TestScheduleDeterminism();
  if (g_failures > 0) {
    std::fprintf(stderr, "qbench selftest: %d failures\n", g_failures);
    return 1;
  }
  std::printf("qbench selftest: all passed\n");
  return 0;
}
