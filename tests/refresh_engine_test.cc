// Batched view refresh (core::RefreshEngine): RefreshAll() across N views
// must be bit-identical to N independent TopKView::Refresh() calls under
// every thread-pool setting (sequential / 1 worker / hardware) and with
// the enumeration memo disabled; and the snapshot generation must be
// bumped — with results actually changing — by weight updates, new-source
// registration, and similarity-edge addition (the stale-snapshot
// regressions).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/q_system.h"
#include "data/interpro_go.h"
#include "util/random.h"

namespace q::core {
namespace {

data::InterProGoConfig SmallDataset() {
  data::InterProGoConfig config;
  config.num_go_terms = 80;
  config.num_entries = 60;
  config.num_pubs = 50;
  config.num_journals = 10;
  config.num_methods = 40;
  config.interpro2go_links = 120;
  config.entry2pub_links = 100;
  config.method2pub_links = 80;
  return config;
}

// Full observable view state: trees plus ranked result rows.
struct ViewState {
  std::vector<steiner::SteinerTree> trees;
  std::vector<std::string> columns;
  std::vector<query::ResultRow> rows;
};

ViewState Capture(const query::TopKView& view) {
  return ViewState{view.trees(), view.results().columns,
                   view.results().rows};
}

void ExpectSameState(const ViewState& a, const ViewState& b,
                     const std::string& label) {
  ASSERT_EQ(a.trees.size(), b.trees.size()) << label;
  for (std::size_t i = 0; i < a.trees.size(); ++i) {
    EXPECT_EQ(a.trees[i].edges, b.trees[i].edges) << label << " tree " << i;
    EXPECT_EQ(a.trees[i].cost, b.trees[i].cost) << label << " tree " << i;
  }
  EXPECT_EQ(a.columns, b.columns) << label;
  ASSERT_EQ(a.rows.size(), b.rows.size()) << label;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].cost, b.rows[i].cost) << label << " row " << i;
    EXPECT_EQ(a.rows[i].query_index, b.rows[i].query_index)
        << label << " row " << i;
    EXPECT_EQ(a.rows[i].values, b.rows[i].values) << label << " row " << i;
  }
}

struct Harness {
  data::InterProGoDataset dataset;
  std::unique_ptr<QSystem> q;
  std::vector<std::size_t> view_ids;

  explicit Harness(int steiner_threads, bool use_sp_cache,
                   std::size_t num_views = 3) {
    dataset = data::BuildInterProGo(SmallDataset());
    QSystemConfig config;
    config.steiner_threads = steiner_threads;
    config.view.top_k.use_sp_cache = use_sp_cache;
    config.view.query_graph.min_similarity = 0.5;
    config.view.query_graph.max_matches_per_keyword = 6;
    q = std::make_unique<QSystem>(config);
    for (const auto& src : dataset.catalog.sources()) {
      Q_CHECK_OK(q->RegisterSource(src));
    }
    Q_CHECK_OK(q->RunInitialAlignment());
    for (std::size_t i = 0;
         i < num_views && i < dataset.keyword_queries.size(); ++i) {
      auto id = q->CreateView(dataset.keyword_queries[i]);
      if (id.ok()) view_ids.push_back(*id);
    }
    Q_CHECK(view_ids.size() >= 2);
  }

  // Reference path: refresh every view independently (no snapshot reuse,
  // no batching) and return the states.
  std::vector<ViewState> IndependentRefresh() {
    std::vector<ViewState> states;
    for (std::size_t id : view_ids) {
      Q_CHECK_OK(q->view(id).Refresh(q->search_graph(), q->catalog(),
                                     q->text_index(), &q->cost_model(),
                                     q->weights()));
      states.push_back(Capture(q->view(id)));
    }
    return states;
  }

  std::vector<ViewState> BatchedStates() {
    std::vector<ViewState> states;
    for (std::size_t id : view_ids) states.push_back(Capture(q->view(id)));
    return states;
  }
};

class BatchedIdentityTest
    : public ::testing::TestWithParam<std::pair<int, bool>> {};

// RefreshAll == N independent Refresh calls, bit for bit, across pool and
// cache settings — after creation, after a weight-only update, and after
// a second update (exercising snapshot reuse, re-cost, and re-cost again).
TEST_P(BatchedIdentityTest, RefreshAllMatchesIndependentRefreshes) {
  auto [threads, cache] = GetParam();
  Harness h(threads, cache);
  std::string tag = "threads=" + std::to_string(threads) +
                    " cache=" + std::to_string(cache);

  // Initial state (batched path ran inside CreateView).
  auto batched = h.BatchedStates();
  auto independent = h.IndependentRefresh();
  for (std::size_t i = 0; i < batched.size(); ++i) {
    ExpectSameState(independent[i], batched[i], tag + " initial view " +
                                                    std::to_string(i));
  }

  // Two rounds of weight-only updates; each round's batched refresh must
  // match the from-scratch reference exactly.
  for (int round = 0; round < 2; ++round) {
    h.q->mutable_weights().Nudge(graph::FeatureSpace::kDefaultFeature,
                                 0.05 * (round + 1));
    ASSERT_TRUE(h.q->RefreshAllViews().ok());
    batched = h.BatchedStates();
    independent = h.IndependentRefresh();
    for (std::size_t i = 0; i < batched.size(); ++i) {
      ExpectSameState(independent[i], batched[i],
                      tag + " round " + std::to_string(round) + " view " +
                          std::to_string(i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoolAndCacheSettings, BatchedIdentityTest,
    ::testing::Values(std::make_pair(-1, true),   // sequential
                      std::make_pair(1, true),    // 1 worker requested
                      std::make_pair(0, true),    // hardware threads
                      std::make_pair(-1, false),  // memo disabled
                      std::make_pair(2, false))); // pool + memo disabled

TEST(RefreshEngineTest, WeightOnlyUpdateRecostsInsteadOfRebuilding) {
  Harness h(-1, true);
  const RefreshEngine& engine = h.q->refresh_engine();
  auto before = engine.stats();
  std::uint64_t gen_before = engine.generation();

  h.q->mutable_weights().Nudge(graph::FeatureSpace::kDefaultFeature, 0.1);
  ASSERT_TRUE(h.q->RefreshAllViews().ok());

  auto after = engine.stats();
  EXPECT_GT(engine.generation(), gen_before);
  EXPECT_EQ(after.snapshots_built, before.snapshots_built);
  EXPECT_EQ(after.snapshots_recosted,
            before.snapshots_recosted + h.view_ids.size());
}

TEST(RefreshEngineTest, UnchangedStateSkipsRefreshEntirely) {
  Harness h(-1, true);
  const RefreshEngine& engine = h.q->refresh_engine();
  ASSERT_TRUE(h.q->RefreshAllViews().ok());  // settle any pending state
  auto before = engine.stats();
  std::uint64_t gen = engine.generation();
  auto states = h.BatchedStates();

  ASSERT_TRUE(h.q->RefreshAllViews().ok());
  auto after = engine.stats();
  EXPECT_EQ(engine.generation(), gen);
  EXPECT_EQ(after.searches_run, before.searches_run);
  EXPECT_EQ(after.refreshes_skipped,
            before.refreshes_skipped + h.view_ids.size());
  auto unchanged = h.BatchedStates();
  for (std::size_t i = 0; i < states.size(); ++i) {
    ExpectSameState(states[i], unchanged[i], "skip view " +
                                                 std::to_string(i));
  }
}

TEST(RefreshEngineTest, WeightUpdateChangesResults) {
  Harness h(-1, true);
  auto before = h.BatchedStates();
  ASSERT_FALSE(before[0].trees.empty());

  // Raising the shared default-feature weight re-prices every learnable
  // edge, so every tree's cost must move; serving stale snapshot costs
  // would leave them frozen.
  h.q->mutable_weights().Nudge(graph::FeatureSpace::kDefaultFeature, 0.5);
  ASSERT_TRUE(h.q->RefreshAllViews().ok());
  auto after = h.BatchedStates();
  ASSERT_FALSE(after[0].trees.empty());
  EXPECT_NE(before[0].trees[0].cost, after[0].trees[0].cost);
}

TEST(RefreshEngineTest, FeedbackBumpsGenerationAndStaysConsistent) {
  Harness h(-1, true);
  const RefreshEngine& engine = h.q->refresh_engine();
  std::uint64_t gen = engine.generation();

  // Endorse the current best tree of view 0: MIRA updates the weights and
  // QSystem refreshes all views through the engine.
  const auto& trees = h.q->view(h.view_ids[0]).trees();
  ASSERT_FALSE(trees.empty());
  ASSERT_TRUE(h.q->ApplyFeedback(h.view_ids[0], trees[0]).ok());
  EXPECT_GT(engine.generation(), gen);

  auto batched = h.BatchedStates();
  auto independent = h.IndependentRefresh();
  for (std::size_t i = 0; i < batched.size(); ++i) {
    ExpectSameState(independent[i], batched[i],
                    "feedback view " + std::to_string(i));
  }
}

TEST(RefreshEngineTest, NewSourceRegistrationRebuildsSnapshots) {
  Harness h(-1, true);
  const RefreshEngine& engine = h.q->refresh_engine();
  auto before = engine.stats();
  std::uint64_t gen = engine.generation();

  // Clone one relation as a brand-new source; registration must bump the
  // generation and force full snapshot rebuilds (the query graphs gain
  // nodes/edges), not in-place re-costs.
  auto table = h.dataset.catalog.FindTable("interpro.pub");
  ASSERT_NE(table, nullptr);
  auto source = std::make_shared<relational::DataSource>("newsrc");
  auto copy = std::make_shared<relational::Table>(relational::RelationSchema(
      "newsrc", "pub", table->schema().attributes()));
  for (const auto& row : table->rows()) {
    ASSERT_TRUE(copy->AppendRow(row).ok());
  }
  ASSERT_TRUE(source->AddTable(copy).ok());
  ASSERT_TRUE(h.q->RegisterAndAlignSource(source).ok());

  auto after = engine.stats();
  EXPECT_GT(engine.generation(), gen);
  EXPECT_GE(after.snapshots_built,
            before.snapshots_built + h.view_ids.size());

  auto batched = h.BatchedStates();
  auto independent = h.IndependentRefresh();
  for (std::size_t i = 0; i < batched.size(); ++i) {
    ExpectSameState(independent[i], batched[i],
                    "register view " + std::to_string(i));
  }
}

TEST(RefreshEngineTest, SimilarityEdgeAdditionInvalidatesSnapshots) {
  Harness h(-1, true);
  const RefreshEngine& engine = h.q->refresh_engine();
  std::uint64_t gen = engine.generation();

  // Install an association (similarity) edge between two attributes that
  // the matchers did not link; AddAssociations must invalidate every
  // snapshot so the new edge is visible to the next refresh.
  match::AlignmentCandidate candidate;
  candidate.a = relational::AttributeId{"go", "go_term", "name"};
  candidate.b = relational::AttributeId{"interpro", "method", "name"};
  candidate.matcher = "manual";
  candidate.confidence = 0.9;
  ASSERT_TRUE(h.q->AddAssociations({candidate}).ok());
  ASSERT_TRUE(h.q->RefreshAllViews().ok());
  EXPECT_GT(engine.generation(), gen);

  auto batched = h.BatchedStates();
  auto independent = h.IndependentRefresh();
  for (std::size_t i = 0; i < batched.size(); ++i) {
    ExpectSameState(independent[i], batched[i],
                    "similarity view " + std::to_string(i));
  }
}

// Feature ids present on any edge of a view's current query graph.
std::set<graph::FeatureId> ViewFeatures(const query::TopKView& view) {
  std::set<graph::FeatureId> features;
  const graph::SearchGraph& g = view.query_graph().graph;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    for (const auto& [id, value] : g.edge_features(e).entries()) {
      features.insert(id);
    }
  }
  return features;
}

// A sparse weight-only update must classify every view as delta-recost
// (the touched feature prices some of its edges) or skip (it provably
// prices none), never as a rebuild or full re-cost — and the outputs must
// still match independent refreshes exactly. This is the ISSUE's
// observability contract: weight-only feedback => views_skipped_delta +
// views_delta_recost == num_views, zero rebuilds.
TEST(RefreshEngineTest, SparseWeightUpdateClassifiesSkipOrDelta) {
  Harness h(-1, true);
  ASSERT_TRUE(h.q->RefreshAllViews().ok());  // settle
  const RefreshEngine& engine = h.q->refresh_engine();

  // Pick a non-default feature carried by view 0 (ideally by few views,
  // so both classifications are exercised when keywords do not overlap).
  std::vector<std::set<graph::FeatureId>> presence;
  for (std::size_t id : h.view_ids) {
    presence.push_back(ViewFeatures(h.q->view(id)));
  }
  graph::FeatureId sparse = 0;
  std::size_t best_views = presence.size() + 1;
  for (graph::FeatureId f : presence[0]) {
    if (f == graph::FeatureSpace::kDefaultFeature) continue;
    std::size_t in_views = 0;
    for (const auto& p : presence) in_views += p.count(f) > 0 ? 1 : 0;
    if (in_views < best_views) {
      best_views = in_views;
      sparse = f;
    }
  }
  ASSERT_NE(sparse, graph::FeatureSpace::kDefaultFeature);
  std::size_t expect_delta = 0;
  for (const auto& p : presence) expect_delta += p.count(sparse) > 0 ? 1 : 0;
  ASSERT_GT(expect_delta, 0u);

  auto before = engine.stats();
  h.q->mutable_weights().Nudge(sparse, 0.03);
  ASSERT_TRUE(h.q->RefreshAllViews().ok());
  auto after = engine.stats();

  EXPECT_EQ(after.snapshots_built, before.snapshots_built);  // zero rebuilds
  EXPECT_EQ(after.views_full_recost, before.views_full_recost);
  // A view carrying the feature is either delta-recosted or — when its
  // relevance certificate proves the repriced edges cannot change its
  // output — skipped as irrelevant; a view not carrying it is skipped as
  // a delta-proven no-op.
  EXPECT_EQ((after.views_delta_recost + after.views_skipped_irrelevant) -
                (before.views_delta_recost + before.views_skipped_irrelevant),
            expect_delta);
  EXPECT_EQ(after.views_skipped_delta - before.views_skipped_delta,
            h.view_ids.size() - expect_delta);
  EXPECT_EQ((after.views_skipped_delta + after.views_delta_recost +
             after.views_skipped_irrelevant) -
                (before.views_skipped_delta + before.views_delta_recost +
                 before.views_skipped_irrelevant),
            h.view_ids.size());
  // Every view that took the delta-recost path repriced at least one
  // edge (that is what put it there); relevance-skipped views reprice
  // nothing by design.
  EXPECT_GE(after.edges_repriced - before.edges_repriced,
            after.views_delta_recost - before.views_delta_recost);

  auto batched = h.BatchedStates();
  auto independent = h.IndependentRefresh();
  for (std::size_t i = 0; i < batched.size(); ++i) {
    ExpectSameState(independent[i], batched[i],
                    "sparse view " + std::to_string(i));
  }
}

// A MIRA feedback step is weight-only: no view may be rebuilt, and every
// view must resolve to skip / delta-recost / full-recost.
TEST(RefreshEngineTest, FeedbackStepNeverRebuildsSnapshots) {
  Harness h(-1, true);
  ASSERT_TRUE(h.q->RefreshAllViews().ok());
  const RefreshEngine& engine = h.q->refresh_engine();
  const auto& trees = h.q->view(h.view_ids[0]).trees();
  ASSERT_FALSE(trees.empty());

  auto before = engine.stats();
  ASSERT_TRUE(h.q->ApplyFeedback(h.view_ids[0], trees[0]).ok());
  auto after = engine.stats();

  EXPECT_EQ(after.snapshots_built, before.snapshots_built);
  EXPECT_EQ((after.views_skipped_delta + after.views_delta_recost +
             after.views_full_recost + after.views_skipped_irrelevant) -
                (before.views_skipped_delta + before.views_delta_recost +
                 before.views_full_recost + before.views_skipped_irrelevant),
            h.view_ids.size());

  auto batched = h.BatchedStates();
  auto independent = h.IndependentRefresh();
  for (std::size_t i = 0; i < batched.size(); ++i) {
    ExpectSameState(independent[i], batched[i],
                    "feedback-delta view " + std::to_string(i));
  }
}

// Re-confirming an existing association mutates that edge in place (a
// feature merge); the structural journal records exactly one kEdgeMutated
// entry, so every view must take the propagation path — patch the cached
// query graph and reprice the one edge — instead of re-expanding.
TEST(RefreshEngineTest, EdgeMutationPropagatesWithoutRebuild) {
  Harness h(-1, true);
  match::AlignmentCandidate candidate;
  candidate.a = relational::AttributeId{"go", "go_term", "name"};
  candidate.b = relational::AttributeId{"interpro", "method", "name"};
  candidate.matcher = "manual";
  candidate.confidence = 0.7;
  ASSERT_TRUE(h.q->AddAssociations({candidate}).ok());  // new edge: rebuild
  ASSERT_TRUE(h.q->RefreshAllViews().ok());

  const RefreshEngine& engine = h.q->refresh_engine();
  auto before = engine.stats();
  // Same pair again, stronger vote from another matcher name: merges into
  // the existing edge (kEdgeMutated, no topology change).
  candidate.matcher = "manual2";
  candidate.confidence = 0.95;
  ASSERT_TRUE(h.q->AddAssociations({candidate}).ok());
  ASSERT_TRUE(h.q->RefreshAllViews().ok());
  auto after = engine.stats();

  EXPECT_EQ(after.snapshots_built, before.snapshots_built);
  EXPECT_GT(after.structural_edges_propagated,
            before.structural_edges_propagated);
  EXPECT_EQ((after.views_skipped_delta + after.views_delta_recost +
             after.views_full_recost + after.views_skipped_irrelevant) -
                (before.views_skipped_delta + before.views_delta_recost +
                 before.views_full_recost + before.views_skipped_irrelevant),
            h.view_ids.size());

  auto batched = h.BatchedStates();
  auto independent = h.IndependentRefresh();
  for (std::size_t i = 0; i < batched.size(); ++i) {
    ExpectSameState(independent[i], batched[i],
                    "mutation view " + std::to_string(i));
  }
}

// When the weight journal cannot reach back to a snapshot's revision
// (overflow), the engine must fall back to the wholesale in-place re-cost
// — never serve stale costs, never rebuild.
TEST(RefreshEngineTest, TruncatedJournalFallsBackToFullRecost) {
  Harness h(-1, true);
  ASSERT_TRUE(h.q->RefreshAllViews().ok());
  const RefreshEngine& engine = h.q->refresh_engine();

  h.q->mutable_weights().set_max_journal_entries(1);
  h.q->mutable_weights().Nudge(graph::FeatureSpace::kDefaultFeature, 0.02);
  h.q->mutable_weights().Nudge(graph::FeatureSpace::kDefaultFeature, 0.02);
  h.q->mutable_weights().Nudge(graph::FeatureSpace::kDefaultFeature, 0.02);

  auto before = engine.stats();
  ASSERT_TRUE(h.q->RefreshAllViews().ok());
  auto after = engine.stats();
  EXPECT_EQ(after.snapshots_built, before.snapshots_built);
  EXPECT_EQ(after.views_full_recost - before.views_full_recost,
            h.view_ids.size());
  EXPECT_EQ(after.views_delta_recost, before.views_delta_recost);

  auto batched = h.BatchedStates();
  auto independent = h.IndependentRefresh();
  for (std::size_t i = 0; i < batched.size(); ++i) {
    ExpectSameState(independent[i], batched[i],
                    "truncated view " + std::to_string(i));
  }
}

// Randomized delta sequence at the system level: sparse nudges, dense
// (default-feature) nudges, and association re-confirmations interleave;
// after every step the batched delta pipeline must match independent
// refreshes bit for bit, whatever mix of skip/delta/full/rebuild the
// classification picked.
TEST(RefreshEngineTest, RandomizedDeltaSequenceMatchesIndependent) {
  Harness h(-1, true);
  ASSERT_TRUE(h.q->RefreshAllViews().ok());
  const RefreshEngine& engine = h.q->refresh_engine();
  util::Rng rng(20260728);

  match::AlignmentCandidate candidate;
  candidate.a = relational::AttributeId{"go", "go_term", "name"};
  candidate.b = relational::AttributeId{"interpro", "method", "name"};
  double confidence = 0.55;

  auto start = engine.stats();
  for (int step = 0; step < 8; ++step) {
    switch (rng.Uniform(3)) {
      case 0: {
        std::size_t num_features = h.q->feature_space().size();
        auto f = static_cast<graph::FeatureId>(
            1 + rng.Uniform(num_features - 1));
        h.q->mutable_weights().Nudge(f, 0.01 + 0.05 * rng.UniformDouble());
        break;
      }
      case 1:
        h.q->mutable_weights().Nudge(graph::FeatureSpace::kDefaultFeature,
                                     step % 2 == 0 ? 0.02 : -0.02);
        break;
      case 2:
        candidate.matcher = "manual" + std::to_string(step);
        candidate.confidence = (confidence += 0.05);
        ASSERT_TRUE(h.q->AddAssociations({candidate}).ok());
        break;
    }
    ASSERT_TRUE(h.q->RefreshAllViews().ok());
    auto batched = h.BatchedStates();
    auto independent = h.IndependentRefresh();
    for (std::size_t i = 0; i < batched.size(); ++i) {
      ExpectSameState(independent[i], batched[i],
                      "random step " + std::to_string(step) + " view " +
                          std::to_string(i));
    }
  }
  // The sequence must have exercised the delta pipeline, not only
  // wholesale paths.
  auto end = engine.stats();
  EXPECT_GT(end.views_delta_recost + end.views_skipped_delta +
                end.views_skipped_irrelevant,
            start.views_delta_recost + start.views_skipped_delta +
                start.views_skipped_irrelevant);
}

}  // namespace
}  // namespace q::core
