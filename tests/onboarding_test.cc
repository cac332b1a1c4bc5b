// Streaming source onboarding (async structural deltas): registrations
// routed through the scheduler's structural round must
//
//   * rebuild every view and install it before the ack returns, leaving
//     a vocabulary-disjoint registration's views answering exactly what
//     they answered before it;
//   * bring an onboarded source into the top-k of the view it belongs
//     to;
//   * at quiescence, serve output bit-identical to a twin QSystem that
//     rebuilds serially at every step (randomized differential).
//
// Runs under the ctest `stress` label and the ThreadSanitizer CI job.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "core/q_system.h"
#include "data/onboarding.h"
#include "util/random.h"

namespace q::core {
namespace {

// --- system-level harness ---------------------------------------------------

struct OnbHarness {
  data::OnboardingDataset dataset;
  std::unique_ptr<QSystem> q;
  std::vector<std::size_t> view_ids;

  OnbHarness(std::size_t communities, int k, bool async) {
    dataset = data::BuildOnboardingDataset(communities);
    QSystemConfig config;
    config.view.top_k.k = k;
    config.view.query_graph.min_similarity = 0.5;
    config.view.query_graph.max_matches_per_keyword = 6;
    // MAD only: the metadata matcher would align the shared "lka"/"lkb"
    // link-attribute names across communities and merge the islands.
    config.use_metadata_matcher = false;
    config.steiner_threads = -1;
    config.async_refresh = async;
    config.async_repair_threads = async ? 2 : 0;
    q = std::make_unique<QSystem>(config);
    for (const auto& src : dataset.sources) {
      Q_CHECK_OK(q->RegisterSource(src));
    }
    for (const auto& keywords : dataset.keyword_queries) {
      auto id = q->CreateView(keywords);
      Q_CHECK_OK(id.status());
      view_ids.push_back(*id);
    }
  }
};

// Served answers without tree edge ids: tree costs, the unified output
// schema, and every ranked tuple.
void ExpectSameAnswers(const query::ViewSnapshot& a,
                       const query::ViewSnapshot& b,
                       const std::string& label) {
  ASSERT_EQ(a.trees.size(), b.trees.size()) << label;
  for (std::size_t i = 0; i < a.trees.size(); ++i) {
    EXPECT_EQ(a.trees[i].cost, b.trees[i].cost) << label << " tree " << i;
  }
  EXPECT_EQ(a.results.columns, b.results.columns) << label;
  ASSERT_EQ(a.results.rows.size(), b.results.rows.size()) << label;
  for (std::size_t i = 0; i < a.results.rows.size(); ++i) {
    EXPECT_EQ(a.results.rows[i].cost, b.results.rows[i].cost)
        << label << " row " << i;
    EXPECT_EQ(a.results.rows[i].query_index, b.results.rows[i].query_index)
        << label << " row " << i;
    EXPECT_EQ(a.results.rows[i].values, b.results.rows[i].values)
        << label << " row " << i;
  }
}

// Served-output bit-identity: the answers plus every tree's edge ids.
void ExpectSameViewState(const query::ViewSnapshot& a,
                         const query::ViewSnapshot& b,
                         const std::string& label) {
  ExpectSameAnswers(a, b, label);
  if (::testing::Test::HasFatalFailure()) return;
  for (std::size_t i = 0; i < a.trees.size(); ++i) {
    EXPECT_EQ(a.trees[i].edges, b.trees[i].edges) << label << " tree " << i;
  }
}

// --- disjoint registrations: every view rebuilt, answers unchanged ------

TEST(OnboardingTest, DisjointSourceRebuildsEveryViewToTheSameAnswers) {
  OnbHarness h(/*communities=*/32, /*k=*/2, /*async=*/true);
  ASSERT_TRUE(h.q->DrainRefreshes().ok());

  std::vector<query::ViewResult> before;
  for (std::size_t id : h.view_ids) before.push_back(h.q->ReadView(id));
  const auto sched_before = h.q->async_scheduler()->stats();

  ASSERT_TRUE(h.q->RegisterAndAlignSource(data::MakeDisjointSource(0)).ok());

  // The ack rebuilt and installed every view: each is fresh at the
  // post-registration epoch before any drain.
  const auto sched_after = h.q->async_scheduler()->stats();
  EXPECT_EQ(sched_after.structural_rounds, sched_before.structural_rounds + 1);
  EXPECT_EQ(sched_after.structural_rebuilds,
            sched_before.structural_rebuilds + h.view_ids.size());
  EXPECT_EQ(sched_after.structural_skips, 0u);
  for (std::size_t i = 0; i < h.view_ids.size(); ++i) {
    EXPECT_FALSE(h.q->ReadView(h.view_ids[i]).stale) << "view " << i;
  }
  ASSERT_TRUE(h.q->DrainRefreshes().ok());

  // The new island reaches no view, so every view answers what it did
  // before. Edge ids are not compared here: a rebuilt query graph
  // appends its keyword edges after the grown base graph, so overlay
  // edge ids move.
  for (std::size_t i = 0; i < h.view_ids.size(); ++i) {
    ExpectSameAnswers(*h.q->ReadView(h.view_ids[i]).state, *before[i].state,
                      "before/after view " + std::to_string(i));
  }

  // And a synchronous twin fed the same registration serves the same
  // output, edge ids included.
  OnbHarness twin(/*communities=*/32, /*k=*/2, /*async=*/false);
  ASSERT_TRUE(
      twin.q->RegisterAndAlignSource(data::MakeDisjointSource(0)).ok());
  for (std::size_t i = 0; i < h.view_ids.size(); ++i) {
    ExpectSameViewState(*h.q->ReadView(h.view_ids[i]).state,
                        *twin.q->ReadView(twin.view_ids[i]).state,
                        "twin view " + std::to_string(i));
  }
}

// --- first appearance: the onboarded source enters the top-k --------------

TEST(OnboardingTest, OnboardedSourceAppearsInRelevantViewTopK) {
  // k=3 leaves head-room above the two base trees, so the tree routed
  // through the onboarded table's association edge enters the ranking.
  constexpr std::size_t kTarget = 1;
  OnbHarness h(/*communities=*/4, /*k=*/3, /*async=*/true);
  ASSERT_TRUE(h.q->DrainRefreshes().ok());
  ASSERT_EQ(h.q->ReadView(h.view_ids[kTarget]).state->trees.size(), 2u);

  ASSERT_TRUE(
      h.q->RegisterAndAlignSource(data::MakeOverlappingSource(0, kTarget))
          .ok());
  ASSERT_TRUE(
      h.q->WaitViewFresh(h.view_ids[kTarget], std::chrono::milliseconds(30000)));
  ASSERT_TRUE(h.q->DrainRefreshes().ok());

  query::ViewResult fresh = h.q->ReadView(h.view_ids[kTarget]);
  EXPECT_EQ(fresh.state->trees.size(), 3u);
  // Output columns carry bare attribute names (and the onboarded
  // attribute deliberately reuses the keyword name), so appearance is
  // detected through the compiled queries' relation atoms.
  bool appears = false;
  for (const auto& query : fresh.state->queries) {
    for (const std::string& atom : query.atoms) {
      if (atom.find("osrc") != std::string::npos) appears = true;
    }
  }
  EXPECT_TRUE(appears)
      << "onboarded source joins no compiled query of the relevant view";
}

// --- randomized differential vs a from-scratch serial twin ----------------

// One recorded operation, replayable into a fresh system. Feedback is
// recorded as (view, tree index), not as the tree object: each replaying
// system endorses ITS OWN trees[index] at the matching quiescence point,
// where the systems' served outputs are bit-identical (that is what the
// differential proves step by step).
struct OnbOp {
  enum Kind { kDisjoint, kOverlap, kFeedback } kind;
  std::size_t serial = 0;      // source serial for registrations
  std::size_t target = 0;      // overlap target community
  std::size_t view = 0;        // feedback view
  std::size_t tree_index = 0;  // feedback: index into the view's trees
};

void Replay(OnbHarness* sys, const std::vector<OnbOp>& ops) {
  for (const OnbOp& op : ops) {
    switch (op.kind) {
      case OnbOp::kDisjoint:
        ASSERT_TRUE(
            sys->q->RegisterAndAlignSource(data::MakeDisjointSource(op.serial))
                .ok());
        break;
      case OnbOp::kOverlap:
        ASSERT_TRUE(sys->q
                        ->RegisterAndAlignSource(
                            data::MakeOverlappingSource(op.serial, op.target))
                        .ok());
        break;
      case OnbOp::kFeedback: {
        query::ViewResult read = sys->q->ReadView(sys->view_ids[op.view]);
        ASSERT_NE(read.state, nullptr);
        ASSERT_LT(op.tree_index, read.state->trees.size());
        ASSERT_TRUE(sys->q
                        ->ApplyFeedback(sys->view_ids[op.view],
                                        read.state->trees[op.tree_index])
                        .ok());
        break;
      }
    }
  }
}

TEST(OnboardingTest, RandomizedDifferentialMatchesSerialRebuildTwin) {
  constexpr std::size_t kCommunities = 6;
  constexpr int kOps = 9;
  OnbHarness h(kCommunities, /*k=*/2, /*async=*/true);
  ASSERT_TRUE(h.q->DrainRefreshes().ok());

  util::Rng rng(20260808);
  std::vector<OnbOp> ops;
  for (int step = 0; step < kOps; ++step) {
    OnbOp op;
    switch (rng.Uniform(3)) {
      case 0:
        op.kind = OnbOp::kDisjoint;
        op.serial = ops.size();
        break;
      case 1:
        op.kind = OnbOp::kOverlap;
        op.serial = ops.size();
        op.target = rng.Uniform(kCommunities);
        break;
      default: {
        op.kind = OnbOp::kFeedback;
        op.view = rng.Uniform(kCommunities);
        // Chosen at quiescence, by index, so the twin endorses its own
        // copy of the identical tree at the same point in the sequence.
        query::ViewResult read = h.q->ReadView(h.view_ids[op.view]);
        ASSERT_NE(read.state, nullptr);
        ASSERT_FALSE(read.state->trees.empty());
        op.tree_index = rng.Uniform(read.state->trees.size());
        break;
      }
    }
    std::vector<OnbOp> single{op};
    Replay(&h, single);
    if (HasFatalFailure()) return;
    ops.push_back(std::move(op));
    ASSERT_TRUE(h.q->DrainRefreshes().ok());

    // Quiescence point: a twin built from scratch and replayed serially
    // must match every view bit for bit.
    OnbHarness twin(kCommunities, /*k=*/2, /*async=*/false);
    Replay(&twin, ops);
    if (HasFatalFailure()) return;
    for (std::size_t i = 0; i < h.view_ids.size(); ++i) {
      ExpectSameViewState(*h.q->ReadView(h.view_ids[i]).state,
                          *twin.q->ReadView(twin.view_ids[i]).state,
                          "step " + std::to_string(step) + " view " +
                              std::to_string(i));
    }
    if (HasFatalFailure()) return;
  }

  // Every registration rebuilt every view.
  std::size_t registrations = 0;
  for (const OnbOp& op : ops) {
    registrations += op.kind == OnbOp::kFeedback ? 0 : 1;
  }
  ASSERT_GT(registrations, 0u);
  const auto stats = h.q->async_scheduler()->stats();
  EXPECT_EQ(stats.structural_rebuilds, registrations * kCommunities);
  EXPECT_EQ(stats.structural_skips, 0u);
}

}  // namespace
}  // namespace q::core
