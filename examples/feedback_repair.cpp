// Feedback-driven alignment repair (Sec. 4): the matchers bootstrap a
// search graph that mixes good and bad alignments; a domain expert
// endorses correct answers; the MIRA learner reprices association edges
// until the gold alignments dominate. Prints the gold/non-gold average
// cost gap after every feedback step (the Fig. 12 signal) and the final
// precision/recall sweep.
//
//   build/examples/feedback_repair
#include <iostream>

#include "core/q_system.h"
#include "data/interpro_go.h"
#include "learn/evaluation.h"
#include "util/string_util.h"

int main() {
  auto dataset = q::data::BuildInterProGo();
  q::core::QSystem q;
  for (const auto& source : dataset.catalog.sources()) {
    Q_CHECK_OK(q.RegisterSource(source));
  }
  Q_CHECK_OK(q.RunInitialAlignment());

  auto initial = q::learn::EvaluateGraphAssociations(
      q.search_graph(), q.weights(), dataset.gold_edges,
      std::numeric_limits<double>::infinity());
  std::cout << "matcher bootstrap: " << initial.predicted
            << " association edges, precision "
            << q::util::FormatDouble(100 * initial.precision(), 1)
            << "%, recall "
            << q::util::FormatDouble(100 * initial.recall(), 1) << "%\n\n";

  q::feedback::SimulatedUser expert(dataset.gold_edges);
  std::cout << "step  query                                   "
            << "gold-cost  non-gold-cost  gap\n";
  int step = 0;
  for (int replay = 0; replay < 2; ++replay) {
    for (const auto& keywords : dataset.keyword_queries) {
      auto view_id = q.CreateView(keywords);
      if (!view_id.ok()) continue;
      // Every view is served through the batched RefreshEngine (one CSR
      // snapshot per view, re-costed after each MIRA update) and
      // must come back with live trees.
      Q_CHECK(!q.view(*view_id).trees().empty());
      auto applied = q.ApplyGoldFeedback(*view_id, expert);
      Q_CHECK_OK(applied.status());
      if (!*applied) continue;
      // Repricing can legitimately leave a view's current top trees
      // row-less mid-learning, but the refreshed tree list itself must
      // never come back empty.
      Q_CHECK(!q.view(*view_id).trees().empty());
      auto gap = q::learn::MeasureGoldCostGap(q.search_graph(), q.weights(),
                                              dataset.gold_edges);
      std::string label = keywords[0] + " / " + keywords[1];
      label.resize(38, ' ');
      std::cout << "  " << ++step << (step < 10 ? "   " : "  ") << label
                << "  " << q::util::FormatDouble(gap.gold_mean, 3)
                << "      " << q::util::FormatDouble(gap.non_gold_mean, 3)
                << "          "
                << q::util::FormatDouble(
                       gap.non_gold_mean - gap.gold_mean, 3)
                << "\n";
    }
  }

  // The learned graph must still answer: every view has trees, and the
  // fleet as a whole produces ranked rows.
  std::size_t total_rows = 0;
  for (std::size_t v = 0; v < q.num_views(); ++v) {
    Q_CHECK(!q.view(v).trees().empty());
    total_rows += q.view(v).results().rows.size();
  }
  Q_CHECK(total_rows > 0);

  const auto& rstats = q.refresh_engine().stats();
  std::cout << "\nrefresh engine: " << rstats.snapshots_built
            << " snapshot builds, " << rstats.snapshots_recosted
            << " weight-only re-costs, " << rstats.searches_run
            << " searches across " << q.num_views() << " views\n";
  std::cout << "repairs: " << rstats.views_full_recost
            << " re-costs that moved a cost, " << rstats.views_skipped_delta
            << " that moved none, " << rstats.edges_repriced
            << " edges repriced\n";
  // The feedback loop only reprices edges, so after the initial build
  // every refresh must have taken the re-cost fast path.
  Q_CHECK(rstats.snapshots_recosted > rstats.snapshots_built);
  // Every view was built exactly once, by CreateView: every refresh after
  // that was a re-cost or a skip, never a rebuild.
  Q_CHECK(rstats.snapshots_built == q.num_views());

  std::cout << "\nprecision/recall sweep over the learned edge costs:\n";
  auto curve = q::learn::GraphPrCurve(q.search_graph(), q.weights(),
                                      dataset.gold_edges);
  for (const auto& p : curve) {
    std::cout << "  threshold " << q::util::FormatDouble(p.threshold, 3)
              << ": precision "
              << q::util::FormatDouble(100 * p.precision, 1)
              << "%  recall " << q::util::FormatDouble(100 * p.recall, 1)
              << "%\n";
  }
  return 0;
}
