// Pins the paper-reproduction outputs of the InterPro-GO benches: Table 1,
// Table 2, Figs. 10-12 and the matcher ablation. Each expectation is the
// value the matching bench prints, at the precision it prints it, so a
// change anywhere in matching, learning, search or refresh that moves a
// reproduced table or figure fails here instead of going unnoticed. A
// change that moves a pinned value on purpose updates it here and says why
// in CHANGES.md. Fig. 7's comparison counts are deterministic too, but take
// ~20 s and are not pinned.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "match/mad_matcher.h"

namespace q::bench {
namespace {

// Formats a ratio the way the benches print percentages.
std::string Pct(double ratio, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, 100.0 * ratio);
  return buf;
}

// "max recall / best precision at that recall", both as printed
// percentages (one decimal). When the max recall is 100% the second
// figure is the precision at full recall that Figs. 10-11 headline.
std::string RecallCeiling(const std::vector<learn::PrPoint>& curve) {
  double max_recall = 0.0;
  for (const auto& p : curve) max_recall = std::max(max_recall, p.recall);
  double best_p = 0.0;
  for (const auto& p : curve) {
    if (p.recall >= max_recall - 1e-9) best_p = std::max(best_p, p.precision);
  }
  return Pct(max_recall, 1) + " / " + Pct(best_p, 1);
}

std::vector<const relational::Table*> Tables(
    const data::InterProGoDataset& dataset) {
  std::vector<const relational::Table*> tables;
  for (const auto& t : dataset.catalog.AllTables()) tables.push_back(t.get());
  return tables;
}

// The Fig. 11 baseline (bench_fig11_feedback_levels.cc): each attribute
// pair's confidence averaged over both matchers, an absent matcher
// counting 0.
std::vector<match::AlignmentCandidate> AverageMatcherScores(
    const std::vector<match::AlignmentCandidate>& a,
    const std::vector<match::AlignmentCandidate>& b) {
  std::map<std::string, match::AlignmentCandidate> merged;
  for (const auto* list : {&a, &b}) {
    for (const auto& c : *list) {
      auto [it, inserted] = merged.emplace(c.PairKey(), c);
      if (!inserted) it->second.confidence += c.confidence;
    }
  }
  std::vector<match::AlignmentCandidate> out;
  for (auto& [key, c] : merged) {
    c.confidence /= 2.0;
    c.matcher = "average";
    out.push_back(std::move(c));
  }
  return out;
}

TEST(PaperFidelityTest, Table1MatcherQuality) {
  const auto dataset = data::BuildInterProGo(QualityDatasetConfig());
  const auto tables = Tables(dataset);
  struct Row {
    int y;
    const char* metadata;  // P / R / F / edges
    const char* mad;
  };
  for (const Row& row : {Row{1, "31.25 / 62.50 / 41.67 / 16",
                             "88.89 / 100.00 / 94.12 / 9"},
                         Row{2, "23.33 / 87.50 / 36.84 / 30",
                             "66.67 / 100.00 / 80.00 / 12"},
                         Row{5, "14.29 / 87.50 / 24.56 / 49",
                             "61.54 / 100.00 / 76.19 / 13"}}) {
    auto printed = [](const util::PrecisionRecall& pr) {
      return Pct(pr.precision(), 2) + " / " + Pct(pr.recall(), 2) + " / " +
             Pct(pr.f1(), 2) + " / " + std::to_string(pr.predicted);
    };
    match::MetadataMatcher metadata;
    auto metadata_result = metadata.InduceAlignments(tables, row.y);
    ASSERT_TRUE(metadata_result.ok());
    EXPECT_EQ(printed(learn::EvaluateCandidates(*metadata_result,
                                                dataset.gold_edges)),
              row.metadata)
        << "Y = " << row.y;
    match::MadMatcher mad;
    auto mad_result = mad.InduceAlignments(tables, row.y);
    ASSERT_TRUE(mad_result.ok());
    EXPECT_EQ(
        printed(learn::EvaluateCandidates(*mad_result, dataset.gold_edges)),
        row.mad)
        << "Y = " << row.y;
  }
}

TEST(PaperFidelityTest, Table2FeedbackStepsPerRecallLevel) {
  const std::vector<double> levels{12.5, 25.0, 37.5, 50.0,
                                   62.5, 75.0, 87.5, 100.0};
  std::vector<int> first_step(levels.size(), -1);
  auto env = BootstrapQuality(/*top_y=*/2);
  auto record = [&](std::size_t step) {
    auto curve = learn::GraphPrCurve(env.q->search_graph(), env.q->weights(),
                                     env.dataset.gold_edges);
    for (std::size_t i = 0; i < levels.size(); ++i) {
      if (first_step[i] >= 0) continue;
      for (const auto& p : curve) {
        if (p.precision >= 1.0 - 1e-9 &&
            p.recall * 100.0 >= levels[i] - 1e-9) {
          first_step[i] = static_cast<int>(step);
          break;
        }
      }
    }
  };
  record(0);
  EXPECT_EQ(TrainWithFeedback(&env, 10, 4, record), 40u);
  // -1: precision 1 is never reached at that recall level.
  EXPECT_EQ(first_step, (std::vector<int>{0, 0, 2, 2, 4, 7, -1, -1}));
}

TEST(PaperFidelityTest, Fig10PrecisionAtFullRecallPerSeries) {
  const auto dataset = data::BuildInterProGo(QualityDatasetConfig());
  const auto tables = Tables(dataset);
  match::MetadataMatcher metadata;
  auto metadata_cands = metadata.InduceAlignments(tables, 2);
  ASSERT_TRUE(metadata_cands.ok());
  EXPECT_EQ(RecallCeiling(
                learn::CandidatePrCurve(*metadata_cands, dataset.gold_edges)),
            "87.5 / 50.0");
  match::MadMatcher mad;
  auto mad_cands = mad.InduceAlignments(tables, 2);
  ASSERT_TRUE(mad_cands.ok());
  EXPECT_EQ(
      RecallCeiling(learn::CandidatePrCurve(*mad_cands, dataset.gold_edges)),
      "100.0 / 72.7");

  auto env = BootstrapQuality(/*top_y=*/2);
  EXPECT_EQ(TrainWithFeedback(&env, 10, 4), 40u);
  EXPECT_EQ(RecallCeiling(learn::GraphPrCurve(
                env.q->search_graph(), env.q->weights(),
                env.dataset.gold_edges)),
            "100.0 / 42.1");
}

TEST(PaperFidelityTest, Fig11PrecisionAtFullRecallPerFeedbackLevel) {
  const auto dataset = data::BuildInterProGo(QualityDatasetConfig());
  const auto tables = Tables(dataset);
  match::MetadataMatcher metadata;
  auto meta_cands = metadata.InduceAlignments(tables, 2);
  ASSERT_TRUE(meta_cands.ok());
  match::MadMatcher mad;
  auto mad_cands = mad.InduceAlignments(tables, 2);
  ASSERT_TRUE(mad_cands.ok());
  EXPECT_EQ(RecallCeiling(learn::CandidatePrCurve(
                AverageMatcherScores(*meta_cands, *mad_cands),
                dataset.gold_edges)),
            "100.0 / 25.8");

  struct Level {
    std::size_t queries;
    int passes;
    std::size_t steps;
    const char* ceiling;
  };
  for (const Level& level : {Level{1, 1, 1, "100.0 / 25.8"},
                             Level{10, 1, 10, "100.0 / 28.6"},
                             Level{10, 2, 20, "100.0 / 42.1"},
                             Level{10, 4, 40, "100.0 / 42.1"}}) {
    auto env = BootstrapQuality(/*top_y=*/2);
    EXPECT_EQ(TrainWithFeedback(&env, level.queries, level.passes),
              level.steps);
    EXPECT_EQ(RecallCeiling(learn::GraphPrCurve(
                  env.q->search_graph(), env.q->weights(),
                  env.dataset.gold_edges)),
              level.ceiling)
        << "Q (" << level.queries << " x " << level.passes << ")";
  }
}

TEST(PaperFidelityTest, Fig12GoldCostGapWidens) {
  auto env = BootstrapQuality(/*top_y=*/2);
  auto gap = [&] {
    auto g = learn::MeasureGoldCostGap(env.q->search_graph(),
                                       env.q->weights(),
                                       env.dataset.gold_edges);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", g.non_gold_mean - g.gold_mean);
    return std::string(buf);
  };
  const std::string start = gap();
  EXPECT_EQ(TrainWithFeedback(&env, 10, 4), 40u);
  EXPECT_EQ(start + " -> " + gap(), "0.758 -> 7.001");
}

TEST(PaperFidelityTest, AblationMatcherCombination) {
  struct Config {
    bool metadata;
    bool mad;
    const char* row;  // edges / graph recall / best P at full recall
  };
  for (const Config& c : {Config{true, false, "30 / 87.5 / 58.3"},
                          Config{false, true, "12 / 100.0 / 72.7"},
                          Config{true, true, "31 / 100.0 / 42.1"}}) {
    auto env = BootstrapQuality(2, c.metadata, c.mad);
    TrainWithFeedback(&env, 10, 2);
    auto pr = learn::EvaluateGraphAssociations(
        env.q->search_graph(), env.q->weights(), env.dataset.gold_edges,
        std::numeric_limits<double>::infinity());
    const std::string ceiling = RecallCeiling(learn::GraphPrCurve(
        env.q->search_graph(), env.q->weights(), env.dataset.gold_edges));
    // The ablation prints the association-edge recall and the best
    // precision at the curve's max recall (the ceiling's second figure).
    EXPECT_EQ(std::to_string(pr.predicted) + " / " + Pct(pr.recall(), 1) +
                  " / " + ceiling.substr(ceiling.find("/ ") + 2),
              c.row)
        << "metadata " << c.metadata << ", mad " << c.mad;
  }
}

}  // namespace
}  // namespace q::bench
