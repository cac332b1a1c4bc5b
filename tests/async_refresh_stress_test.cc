// Concurrency stress for the async view-refresh pipeline
// (core::AsyncRefreshScheduler): feedback threads race reader threads
// over 32+ views while repair tasks run on a dedicated pool, asserting
//
//   * epoch monotonicity — a reader never sees a view's staleness epoch
//     (ViewResult::generation) or search serial go backwards;
//   * no mixed-generation reads — every snapshot a reader holds is
//     internally consistent (rows index queries from the same search);
//   * quiescent bit-identity — after DrainRefreshes, the async system's
//     published output equals a twin synchronous QSystem fed the exact
//     same feedback sequence in commit order, bit for bit.
//
// Runs under the ctest `stress` label and the ThreadSanitizer CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/q_system.h"
#include "data/interpro_go.h"
#include "util/random.h"

namespace q::core {
namespace {

constexpr std::size_t kNumViews = 32;
constexpr int kFeedbackThreads = 3;
constexpr int kFeedbackRounds = 4;  // per thread
constexpr int kReaderThreads = 3;

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

QSystemConfig BaseConfig() {
  QSystemConfig config;
  config.view.query_graph.min_similarity = 0.5;
  config.view.query_graph.max_matches_per_keyword = 6;
  // Sequential per-search solving; concurrency comes from the scheduler's
  // repair pool, which is the subsystem under stress.
  config.steiner_threads = -1;
  return config;
}

// One committed feedback event, recorded in commit order so the twin
// synchronous system can replay the identical MIRA trajectory.
struct FeedbackEvent {
  std::size_t view_id;
  steiner::SteinerTree endorsed;
};

struct AsyncHarness {
  data::InterProGoDataset dataset;
  std::unique_ptr<QSystem> q;
  std::vector<std::size_t> view_ids;

  explicit AsyncHarness(bool async) {
    dataset = data::BuildInterProGo(SmallDataset());
    QSystemConfig config = BaseConfig();
    config.async_refresh = async;
    config.async_repair_threads = async ? 3 : 0;
    q = std::make_unique<QSystem>(config);
    for (const auto& src : dataset.catalog.sources()) {
      Q_CHECK_OK(q->RegisterSource(src));
    }
    Q_CHECK_OK(q->RunInitialAlignment());
    // 32+ views cycling the trial keyword queries: repeats model distinct
    // users sharing an information need — each gets its own snapshot
    // and repair task.
    for (std::size_t i = 0; i < kNumViews; ++i) {
      auto id = q->CreateView(
          dataset.keyword_queries[i % dataset.keyword_queries.size()]);
      Q_CHECK_OK(id.status());
      view_ids.push_back(*id);
    }
  }
};

void ExpectInternallyConsistent(const query::ViewResult& read,
                                const std::string& label) {
  ASSERT_NE(read.state, nullptr) << label;
  const query::ViewSnapshot& s = *read.state;
  // One search produced everything in the snapshot: every ranked row's
  // provenance index resolves, and trees/queries pair one to one. A read
  // mixing two generations would break these immediately.
  EXPECT_EQ(s.trees.size(), s.queries.size()) << label;
  for (std::size_t r = 0; r < s.results.rows.size(); ++r) {
    ASSERT_LT(s.results.rows[r].query_index, s.queries.size())
        << label << " row " << r;
  }
  for (std::size_t t = 0; t < s.trees.size(); ++t) {
    EXPECT_EQ(s.trees[t].edges, s.queries[t].tree.edges)
        << label << " tree/query " << t;
  }
}

void ExpectSameViewState(const query::ViewSnapshot& a,
                         const query::ViewSnapshot& b,
                         const std::string& label) {
  ASSERT_EQ(a.trees.size(), b.trees.size()) << label;
  for (std::size_t i = 0; i < a.trees.size(); ++i) {
    EXPECT_EQ(a.trees[i].edges, b.trees[i].edges) << label << " tree " << i;
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

// The tentpole stress: N feedback threads and M reader threads race over
// 32 views; repairs coalesce and interleave arbitrarily; the end state
// must be bit-identical to the synchronous twin.
TEST(AsyncRefreshStressTest, FeedbackRacesReadersAndMatchesSyncTwin) {
  AsyncHarness h(/*async=*/true);
  ASSERT_NE(h.q->async_scheduler(), nullptr);

  std::mutex log_mu;
  std::vector<FeedbackEvent> log;  // commit order == replay order
  std::atomic<bool> done{false};
  std::atomic<int> feedback_failures{0};

  std::vector<std::thread> threads;
  for (int f = 0; f < kFeedbackThreads; ++f) {
    threads.emplace_back([&, f] {
      util::Rng rng(7100 + f);
      for (int round = 0; round < kFeedbackRounds; ++round) {
        std::size_t view =
            h.view_ids[rng.Uniform(h.view_ids.size())];
        // Read a (possibly stale) snapshot and endorse one of its trees —
        // exactly the feedback-on-stale-state the async contract allows.
        query::ViewResult read = h.q->ReadView(view);
        if (read.state->trees.empty()) continue;
        steiner::SteinerTree endorsed =
            read.state->trees[rng.Uniform(read.state->trees.size())];
        // The commit lock spans the call so the recorded order is the
        // order the MIRA updates actually applied in.
        std::lock_guard<std::mutex> lock(log_mu);
        util::Status status = h.q->ApplyFeedback(view, endorsed);
        if (!status.ok()) {
          ++feedback_failures;
          continue;
        }
        log.push_back(FeedbackEvent{view, std::move(endorsed)});
      }
    });
  }
  for (int r = 0; r < kReaderThreads; ++r) {
    threads.emplace_back([&, r] {
      util::Rng rng(7200 + r);
      std::vector<std::uint64_t> last_generation(h.view_ids.size(), 0);
      std::vector<std::uint64_t> last_serial(h.view_ids.size(), 0);
      while (!done.load(std::memory_order_acquire)) {
        std::size_t i = rng.Uniform(h.view_ids.size());
        query::ViewResult read = h.q->ReadView(h.view_ids[i]);
        std::string label = "reader " + std::to_string(r) + " view " +
                            std::to_string(i);
        ExpectInternallyConsistent(read, label);
        // Epoch monotonicity: validated epochs and search serials never
        // regress for any single reader.
        EXPECT_GE(read.generation, last_generation[i]) << label;
        last_generation[i] = read.generation;
        EXPECT_GE(read.state->search_serial, last_serial[i]) << label;
        last_serial[i] = read.state->search_serial;
        if (rng.Uniform(8) == 0) {
          // WaitFresh from a reader thread: when it reports fresh, the
          // view's epoch must have caught up to the epoch at call time —
          // which is at least the one this reader last observed.
          if (h.q->WaitViewFresh(h.view_ids[i],
                                 std::chrono::milliseconds(5000))) {
            query::ViewResult fresh = h.q->ReadView(h.view_ids[i]);
            EXPECT_GE(fresh.generation, last_generation[i]) << label;
            last_generation[i] = fresh.generation;
          }
        }
      }
    });
  }
  for (int t = 0; t < kFeedbackThreads; ++t) threads[t].join();
  done.store(true, std::memory_order_release);
  for (std::size_t t = kFeedbackThreads; t < threads.size(); ++t) {
    threads[t].join();
  }
  EXPECT_EQ(feedback_failures.load(), 0);
  ASSERT_FALSE(log.empty());

  // Quiesce: every queued repair lands; all views validated at the final
  // epoch and no read is stale anymore.
  ASSERT_TRUE(h.q->DrainRefreshes().ok());
  const AsyncRefreshStats sstats = h.q->async_scheduler()->stats();
  EXPECT_EQ(sstats.feedback_rounds, log.size());
  EXPECT_GT(sstats.repairs_run, 0u);
  for (std::size_t id : h.view_ids) {
    query::ViewResult read = h.q->ReadView(id);
    EXPECT_FALSE(read.stale) << "view " << id << " stale after drain";
    EXPECT_EQ(read.generation, h.q->async_scheduler()->epoch());
  }

  // Twin synchronous system replays the committed feedback sequence: each
  // MIRA update is a deterministic function of (query graph, live
  // weights, endorsed tree), so the weight trajectories coincide and the
  // quiescent outputs must be bit-identical.
  AsyncHarness twin(/*async=*/false);
  for (const FeedbackEvent& event : log) {
    ASSERT_TRUE(twin.q->ApplyFeedback(event.view_id, event.endorsed).ok());
  }
  for (std::size_t i = 0; i < h.view_ids.size(); ++i) {
    ExpectSameViewState(*h.q->ReadView(h.view_ids[i]).state,
                        *twin.q->ReadView(twin.view_ids[i]).state,
                        "quiescent view " + std::to_string(i));
  }
}

// Feedback ack should not wait for repairs: after ApplyFeedback returns,
// affected views may still be stale — and WaitFresh is the explicit
// synchronization point that clears them.
TEST(AsyncRefreshStressTest, WaitFreshClearsStalenessAfterAck) {
  AsyncHarness h(/*async=*/true);
  // A feedback update on one view; the ack returns immediately.
  query::ViewResult read = h.q->ReadView(h.view_ids[0]);
  ASSERT_FALSE(read.state->trees.empty());
  ASSERT_TRUE(
      h.q->ApplyFeedback(h.view_ids[0], read.state->trees.back()).ok());

  // Every view becomes fresh within the deadline, and the fresh read
  // carries the post-feedback epoch.
  const std::uint64_t epoch = h.q->async_scheduler()->epoch();
  for (std::size_t id : h.view_ids) {
    ASSERT_TRUE(h.q->WaitViewFresh(id, std::chrono::milliseconds(30000)))
        << "view " << id;
    query::ViewResult fresh = h.q->ReadView(id);
    EXPECT_FALSE(fresh.stale);
    EXPECT_GE(fresh.generation, epoch);
  }
  ASSERT_TRUE(h.q->DrainRefreshes().ok());

  // And the quiescent state matches the synchronous engine's.
  AsyncHarness twin(/*async=*/false);
  ASSERT_TRUE(
      twin.q->ApplyFeedback(twin.view_ids[0], read.state->trees.back())
          .ok());
  for (std::size_t i = 0; i < h.view_ids.size(); ++i) {
    ExpectSameViewState(*h.q->ReadView(h.view_ids[i]).state,
                        *twin.q->ReadView(twin.view_ids[i]).state,
                        "view " + std::to_string(i));
  }
}

// Structural changes quiesce the pipeline: registering a new source mid
// async operation must drain repairs, rebuild snapshots serially, and
// leave every view fresh and identical to the synchronous twin.
TEST(AsyncRefreshStressTest, StructuralChangeQuiescesAndRebuilds) {
  AsyncHarness h(/*async=*/true);
  query::ViewResult read = h.q->ReadView(h.view_ids[1]);
  ASSERT_FALSE(read.state->trees.empty());
  ASSERT_TRUE(
      h.q->ApplyFeedback(h.view_ids[1], read.state->trees[0]).ok());

  // While repairs may still be in flight, register a brand-new source (a
  // clone of an existing relation) — the structural path must quiesce and
  // rebuild the affected views beside their slots, installing each whole.
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

  // Every view converges to fresh once the queued structural searches
  // drain; a reader is never blocked meanwhile.
  for (std::size_t id : h.view_ids) {
    ASSERT_TRUE(h.q->WaitViewFresh(id, std::chrono::milliseconds(30000)))
        << "view " << id;
    EXPECT_FALSE(h.q->ReadView(id).stale);
  }
  ASSERT_TRUE(h.q->DrainRefreshes().ok());

  AsyncHarness twin(/*async=*/false);
  ASSERT_TRUE(
      twin.q->ApplyFeedback(twin.view_ids[1], read.state->trees[0]).ok());
  auto twin_source = std::make_shared<relational::DataSource>("newsrc");
  auto twin_copy =
      std::make_shared<relational::Table>(relational::RelationSchema(
          "newsrc", "pub", table->schema().attributes()));
  for (const auto& row : table->rows()) {
    ASSERT_TRUE(twin_copy->AppendRow(row).ok());
  }
  ASSERT_TRUE(twin_source->AddTable(twin_copy).ok());
  ASSERT_TRUE(twin.q->RegisterAndAlignSource(twin_source).ok());
  for (std::size_t i = 0; i < h.view_ids.size(); ++i) {
    ExpectSameViewState(*h.q->ReadView(h.view_ids[i]).state,
                        *twin.q->ReadView(twin.view_ids[i]).state,
                        "post-structural view " + std::to_string(i));
  }
}

}  // namespace
}  // namespace q::core
