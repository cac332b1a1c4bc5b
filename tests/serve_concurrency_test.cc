// Concurrent query serving: N reader threads run QueryView searches
// against shared pinned snapshots while a feedback writer races them,
// asserting
//
//   * certificate/serial publication — no reader ever observes a
//     published snapshot whose certificate serial disagrees with its
//     search serial (the torn-publication regression);
//   * per-read internal consistency — every QueryView result pairs
//     trees/queries/rows from one search, never a mix of generations;
//   * quiescent bit-identity — once drained, QueryView output equals the
//     published snapshot and the synchronous twin system, bit for bit;
//   * failed-barrier wakeups — a SyncBarrier failure wakes WaitFresh
//     waiters promptly instead of burning their full deadline (the
//     missed-error regression in the epoch/predicate interaction);
//   * feature interning under the serving gate — registrations that
//     install new association features never grow the FeatureSpace under
//     a reader's served weights (the use-after-free regression);
//   * cold column indexes — readers that race each table column's first
//     index build get the single-threaded answer.
//
// Runs under the ctest `stress` label and the ThreadSanitizer CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/async_refresh.h"
#include "core/q_system.h"
#include "core/refresh_engine.h"
#include "data/gbco.h"
#include "data/interpro_go.h"
#include "data/onboarding.h"
#include "graph/graph_builder.h"
#include "query/executor.h"
#include "util/random.h"

namespace q::core {
namespace {

constexpr std::size_t kNumViews = 16;
constexpr int kQueryReaders = 4;  // the acceptance floor
constexpr int kFeedbackRounds = 10;

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
  // Sequential per-search solving; the concurrency under test is
  // many whole searches sharing one engine, not intra-search fan-out.
  config.steiner_threads = -1;
  return config;
}

struct Harness {
  data::InterProGoDataset dataset;
  std::unique_ptr<QSystem> q;
  std::vector<std::size_t> view_ids;

  explicit Harness(bool async) {
    dataset = data::BuildInterProGo(SmallDataset());
    QSystemConfig config = BaseConfig();
    config.async_refresh = async;
    config.async_repair_threads = async ? 2 : 0;
    q = std::make_unique<QSystem>(config);
    for (const auto& src : dataset.catalog.sources()) {
      Q_CHECK_OK(q->RegisterSource(src));
    }
    Q_CHECK_OK(q->RunInitialAlignment());
    for (std::size_t i = 0; i < kNumViews; ++i) {
      auto id = q->CreateView(
          dataset.keyword_queries[i % dataset.keyword_queries.size()]);
      Q_CHECK_OK(id.status());
      view_ids.push_back(*id);
    }
  }
};

void ExpectInternallyConsistent(const query::ViewSnapshot& s,
                                const std::string& label) {
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

// --- satellite 2: certificate/serial publication -------------------------

// Readers hammer ReadView while feedback publishes new snapshots: every
// published snapshot must carry certificate.serial == search_serial (one
// critical section publishes both), and QueryView results — which are
// unpublished — must carry zeroed serials with a fully consistent body.
TEST(ServeConcurrencyTest, CertificateSerialNeverTearsFromSearchSerial) {
  Harness h(/*async=*/true);
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kQueryReaders; ++r) {
    readers.emplace_back([&, r] {
      util::Rng rng(9100 + r);
      while (!done.load(std::memory_order_acquire)) {
        std::size_t id = h.view_ids[rng.Uniform(h.view_ids.size())];
        query::ViewResult read = h.q->ReadView(id);
        if (read.state == nullptr) continue;
        if (read.state->certificate.serial != read.state->search_serial) {
          ++violations;
        }
        if (rng.Uniform(4) == 0) {
          auto fresh = h.q->QueryView(id);
          if (fresh.ok()) {
            EXPECT_EQ(fresh->search_serial, 0u);
            EXPECT_EQ(fresh->certificate.serial, 0u);
            ExpectInternallyConsistent(*fresh,
                                       "queryview view " + std::to_string(id));
          }
        }
      }
    });
  }

  util::Rng rng(9199);
  for (int round = 0; round < kFeedbackRounds; ++round) {
    std::size_t id = h.view_ids[rng.Uniform(h.view_ids.size())];
    query::ViewResult read = h.q->ReadView(id);
    if (read.state == nullptr || read.state->trees.empty()) continue;
    ASSERT_TRUE(
        h.q->ApplyFeedback(id, read.state->trees[rng.Uniform(
                                   read.state->trees.size())])
            .ok());
  }
  ASSERT_TRUE(h.q->DrainRefreshes().ok());
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_EQ(violations.load(), 0);
}

// --- tentpole: QueryView readers race the feedback writer ----------------

// One committed feedback event, recorded in commit order so the twin
// synchronous system can replay the identical MIRA trajectory.
struct FeedbackEvent {
  std::size_t view_id;
  steiner::SteinerTree endorsed;
};

// Registers a clone of an existing table as a brand-new source `name` —
// the structural operation both the live run and the twin replay use.
void RegisterClonedSource(Harness* h, const std::string& table_name,
                          const std::string& name) {
  auto table = h->dataset.catalog.FindTable(table_name);
  ASSERT_NE(table, nullptr);
  auto source = std::make_shared<relational::DataSource>(name);
  auto copy = std::make_shared<relational::Table>(relational::RelationSchema(
      name, table->schema().relation(), table->schema().attributes()));
  for (const auto& row : table->rows()) {
    ASSERT_TRUE(copy->AppendRow(row).ok());
  }
  ASSERT_TRUE(source->AddTable(copy).ok());
  ASSERT_TRUE(h->q->RegisterAndAlignSource(source).ok());
}

// >= 4 query workers run live QueryView searches (plus ReadView probes)
// while a writer thread applies feedback and — mid-run — registers a new
// source (the structural path, which takes the serving gate exclusively).
// Every result must be internally consistent; at quiescence QueryView
// must reproduce the published snapshot bit for bit, and the whole system
// must match a synchronous twin fed the same committed sequence.
TEST(ServeConcurrencyTest, QueryViewRacesWriterAndMatchesSyncTwin) {
  Harness h(/*async=*/true);

  std::mutex log_mu;
  std::vector<FeedbackEvent> log;  // commit order == replay order
  // Number of committed feedback events that preceded the structural
  // registration (the writer records it at commit time so the twin can
  // replay the registration at the same position).
  std::size_t structural_split = 0;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> searches_ok{0};

  std::vector<std::thread> threads;
  for (int r = 0; r < kQueryReaders; ++r) {
    threads.emplace_back([&, r] {
      util::Rng rng(9300 + r);
      while (!done.load(std::memory_order_acquire)) {
        std::size_t i = rng.Uniform(h.view_ids.size());
        std::string label =
            "worker " + std::to_string(r) + " view " + std::to_string(i);
        auto result = h.q->QueryView(h.view_ids[i]);
        // InvalidArgument only for ids never created; created views have
        // refreshed snapshots before the threads start.
        ASSERT_TRUE(result.ok()) << label << ": "
                                 << result.status().ToString();
        ExpectInternallyConsistent(*result, label);
        searches_ok.fetch_add(1, std::memory_order_relaxed);
        if (rng.Uniform(4) == 0) {
          query::ViewResult read = h.q->ReadView(h.view_ids[i]);
          ASSERT_NE(read.state, nullptr) << label;
          ExpectInternallyConsistent(*read.state, label + " (published)");
        }
      }
    });
  }

  // The writer: feedback rounds with a structural registration wedged in
  // the middle, so readers cross the exclusive serving gate both ways.
  {
    util::Rng rng(9399);
    for (int round = 0; round < kFeedbackRounds; ++round) {
      if (round == kFeedbackRounds / 2) {
        RegisterClonedSource(&h, "interpro.pub", "newsrc");
        structural_split = log.size();
      }
      std::size_t view = h.view_ids[rng.Uniform(h.view_ids.size())];
      query::ViewResult read = h.q->ReadView(view);
      if (read.state == nullptr || read.state->trees.empty()) continue;
      steiner::SteinerTree endorsed =
          read.state->trees[rng.Uniform(read.state->trees.size())];
      std::lock_guard<std::mutex> lock(log_mu);
      ASSERT_TRUE(h.q->ApplyFeedback(view, endorsed).ok());
      log.push_back(FeedbackEvent{view, std::move(endorsed)});
    }
  }
  ASSERT_TRUE(h.q->DrainRefreshes().ok());
  done.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  EXPECT_GT(searches_ok.load(), 0u);
  ASSERT_FALSE(log.empty());

  // Quiescence: a fresh QueryView search must reproduce the published
  // snapshot exactly — same pinned CSR costs, same frozen weights, same
  // deterministic enumeration.
  for (std::size_t id : h.view_ids) {
    auto fresh = h.q->QueryView(id);
    ASSERT_TRUE(fresh.ok()) << "view " << id;
    query::ViewResult published = h.q->ReadView(id);
    ASSERT_NE(published.state, nullptr);
    ExpectSameViewState(*fresh, *published.state,
                        "quiescent query-vs-published view " +
                            std::to_string(id));
  }

  // And the twin synchronous system replaying the committed sequence —
  // feedback events in commit order with the structural registration at
  // its recorded position — lands on bit-identical published state.
  Harness twin(/*async=*/false);
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (i == structural_split) {
      RegisterClonedSource(&twin, "interpro.pub", "newsrc");
    }
    ASSERT_TRUE(twin.q->ApplyFeedback(log[i].view_id, log[i].endorsed).ok());
  }
  if (structural_split == log.size()) {
    // Every committed feedback event preceded the registration.
    RegisterClonedSource(&twin, "interpro.pub", "newsrc");
  }
  for (std::size_t i = 0; i < h.view_ids.size(); ++i) {
    ExpectSameViewState(*h.q->ReadView(h.view_ids[i]).state,
                        *twin.q->ReadView(twin.view_ids[i]).state,
                        "quiescent twin view " + std::to_string(i));
  }
}

// --- onboarding while serving: registrations race QueryView readers ------

// Served-output comparator for onboarding runs: a structurally skipped
// view keeps serving its pre-registration snapshot, whose keyword-overlay
// edge ids were numbered off a smaller base graph — so tree edge ids are
// not comparable against a twin that rebuilt, while tree costs, the
// output schema, and every ranked tuple must still agree bit for bit.
void ExpectSameServedOutput(const query::ViewSnapshot& a,
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

// A registration writer streams new sources — alternating provably
// irrelevant islands with sources relevant to one community — while
// >= 4 reader threads run live QueryView searches and ReadView probes
// throughout. Certificate-skipped acks never quiesce serving, so readers
// stay live across every registration; the gate's classification is
// deterministic (readers never move weights), so the skip/rebuild stats
// come out exact; and at quiescence QueryView reproduces the published
// snapshot bit for bit while a synchronous twin fed the same
// registrations serves identical output.
TEST(ServeConcurrencyTest, OnboardingRegistrationsRaceQueryReaders) {
  constexpr std::size_t kCommunities = 8;
  constexpr int kRegistrations = 8;
  data::OnboardingDataset dataset =
      data::BuildOnboardingDataset(kCommunities);

  auto build_system = [&](bool async) {
    QSystemConfig config = BaseConfig();
    config.view.top_k.k = 2;
    // MAD only: the metadata matcher would align the shared link-attribute
    // names across communities and merge the islands.
    config.use_metadata_matcher = false;
    config.async_refresh = async;
    config.async_repair_threads = async ? 2 : 0;
    auto q = std::make_unique<QSystem>(config);
    for (const auto& src : dataset.sources) {
      Q_CHECK_OK(q->RegisterSource(src));
    }
    std::vector<std::size_t> ids;
    for (const auto& keywords : dataset.keyword_queries) {
      auto id = q->CreateView(keywords);
      Q_CHECK_OK(id.status());
      ids.push_back(*id);
    }
    return std::make_pair(std::move(q), std::move(ids));
  };

  auto [q, view_ids] = build_system(/*async=*/true);
  ASSERT_TRUE(q->DrainRefreshes().ok());
  const auto sched_before = q->async_scheduler()->stats();

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> searches_ok{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kQueryReaders; ++r) {
    readers.emplace_back([&, r, &q = q, &view_ids = view_ids] {
      util::Rng rng(9700 + r);
      while (!done.load(std::memory_order_acquire)) {
        std::size_t i = rng.Uniform(view_ids.size());
        std::string label =
            "reader " + std::to_string(r) + " view " + std::to_string(i);
        auto result = q->QueryView(view_ids[i]);
        ASSERT_TRUE(result.ok()) << label << ": "
                                 << result.status().ToString();
        ExpectInternallyConsistent(*result, label);
        searches_ok.fetch_add(1, std::memory_order_relaxed);
        if (rng.Uniform(4) == 0) {
          query::ViewResult read = q->ReadView(view_ids[i]);
          ASSERT_NE(read.state, nullptr) << label;
          ExpectInternallyConsistent(*read.state, label + " (published)");
        }
      }
    });
  }

  // The registration stream: even serials are vocabulary-disjoint islands
  // (every view skips), odd serials overlap one community (that view
  // rebuilds, the rest skip by distance).
  for (int i = 0; i < kRegistrations; ++i) {
    if (i % 2 == 0) {
      ASSERT_TRUE(q->RegisterAndAlignSource(
                       data::MakeDisjointSource(static_cast<std::size_t>(i)))
                      .ok());
    } else {
      ASSERT_TRUE(q->RegisterAndAlignSource(data::MakeOverlappingSource(
                                                static_cast<std::size_t>(i),
                                                static_cast<std::size_t>(i) %
                                                    kCommunities))
                      .ok());
    }
  }
  ASSERT_TRUE(q->DrainRefreshes().ok());
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_GT(searches_ok.load(), 0u);

  const auto sched_after = q->async_scheduler()->stats();
  EXPECT_EQ(sched_after.structural_rounds,
            sched_before.structural_rounds + kRegistrations);
  EXPECT_EQ(sched_after.structural_skips,
            sched_before.structural_skips +
                (kRegistrations / 2) * kCommunities +
                (kRegistrations / 2) * (kCommunities - 1));
  EXPECT_EQ(sched_after.structural_rebuilds,
            sched_before.structural_rebuilds + kRegistrations / 2);

  // Quiescence: a live search against each pinned slot reproduces the
  // published snapshot exactly (skipped slots kept their engine, so even
  // edge ids agree here).
  for (std::size_t id : view_ids) {
    auto fresh = q->QueryView(id);
    ASSERT_TRUE(fresh.ok()) << "view " << id;
    query::ViewResult published = q->ReadView(id);
    ASSERT_NE(published.state, nullptr);
    ExpectSameViewState(*fresh, *published.state,
                        "quiescent query-vs-published view " +
                            std::to_string(id));
  }

  // And the synchronous twin — which quiesces and rebuilds at every
  // registration — serves the same output.
  auto [twin, twin_ids] = build_system(/*async=*/false);
  for (int i = 0; i < kRegistrations; ++i) {
    if (i % 2 == 0) {
      ASSERT_TRUE(twin->RegisterAndAlignSource(
                         data::MakeDisjointSource(static_cast<std::size_t>(i)))
                      .ok());
    } else {
      ASSERT_TRUE(twin->RegisterAndAlignSource(data::MakeOverlappingSource(
                                                   static_cast<std::size_t>(i),
                                                   static_cast<std::size_t>(
                                                       i) %
                                                       kCommunities))
                      .ok());
    }
  }
  for (std::size_t i = 0; i < view_ids.size(); ++i) {
    ExpectSameServedOutput(*q->ReadView(view_ids[i]).state,
                           *twin->ReadView(twin_ids[i]).state,
                           "quiescent twin view " + std::to_string(i));
  }
}

// Registrations whose alignments install new association features race
// QueryView readers. A served weight snapshot reads every feature it never
// set through the live FeatureSpace (WeightVector::At falls back to the
// feature's initial weight), so interning a feature — which may reallocate
// the space's initial-weight array under a reader — needs the exclusive
// serving gate. Association installation (new association edges, matcher
// bins, missing-vote penalties) interns such features; run under
// ThreadSanitizer this test reports the race unless that step holds the
// gate. GBCO's held-out sources align against many views, so each
// registration installs a batch of new association features.
TEST(ServeConcurrencyTest, AssociationFeatureInterningRacesQueryReaders) {
  constexpr std::size_t kHeldOutTrials = 3;
  constexpr int kReaders = 2;
  data::GbcoDataset dataset = data::BuildGbco();
  std::vector<std::string> held_out;
  for (std::size_t t = 0; t < kHeldOutTrials && t < dataset.trials.size();
       ++t) {
    for (const std::string& name : dataset.trials[t].new_sources) {
      held_out.push_back(name);
    }
  }
  std::sort(held_out.begin(), held_out.end());
  held_out.erase(std::unique(held_out.begin(), held_out.end()),
                 held_out.end());
  ASSERT_FALSE(held_out.empty());

  QSystemConfig config = BaseConfig();
  config.view.top_k.k = 3;
  config.strategy = AlignStrategy::kViewBased;
  config.use_metadata_matcher = true;
  config.use_mad_matcher = true;
  config.async_refresh = true;
  config.async_repair_threads = 2;
  QSystem q(config);
  std::vector<std::shared_ptr<relational::DataSource>> arrivals;
  for (const auto& src : dataset.catalog.sources()) {
    if (std::binary_search(held_out.begin(), held_out.end(), src->name())) {
      arrivals.push_back(src);
    } else {
      ASSERT_TRUE(q.RegisterSource(src).ok()) << src->name();
    }
  }
  ASSERT_TRUE(q.RunInitialAlignment().ok());
  for (const auto& trial : dataset.trials) {
    // A trial whose keywords matched only held-out relations has no view.
    (void)q.CreateView(trial.keywords);
  }
  ASSERT_GT(q.num_views(), 0u);
  ASSERT_TRUE(q.DrainRefreshes().ok());
  const std::size_t num_views = q.num_views();
  const std::size_t features_before = q.feature_space().size();

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> searches_ok{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      util::Rng rng(4100 + r);
      while (!done.load(std::memory_order_acquire)) {
        const std::size_t v = rng.Uniform(num_views);
        auto result = q.QueryView(v);
        ASSERT_TRUE(result.ok()) << "view " << v << ": "
                                 << result.status().ToString();
        ExpectInternallyConsistent(*result, "view " + std::to_string(v));
        searches_ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (const auto& src : arrivals) {
    ASSERT_TRUE(q.RegisterAndAlignSource(src).ok()) << src->name();
    ASSERT_TRUE(q.DrainRefreshes().ok());
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_GT(searches_ok.load(), 0u);
  EXPECT_GT(q.feature_space().size(), features_before);

  for (std::size_t v = 0; v < num_views; ++v) {
    auto fresh = q.QueryView(v);
    ASSERT_TRUE(fresh.ok()) << "view " << v;
    query::ViewResult published = q.ReadView(v);
    ASSERT_NE(published.state, nullptr);
    ExpectSameViewState(*fresh, *published.state,
                        "quiescent query-vs-published view " +
                            std::to_string(v));
  }
}

// --- satellite 3: WaitFresh vs. failed barriers and structural ops -------

// A SyncBarrier that fails (here: the text index is emptied and the graph
// structurally bumped, so every rebuild's keyword lookup reports
// NotFound) bumps the epoch without validating any view. WaitFresh's
// predicate could then never become true — before the fix the scheduler
// did not record the barrier's failure, so waiters burned their entire
// deadline. They must wake promptly with `false`, and recover to `true`
// once the base state is repaired.
TEST(ServeConcurrencyTest, FailedSyncBarrierWakesWaitFreshPromptly) {
  data::InterProGoDataset dataset = data::BuildInterProGo(SmallDataset());
  graph::FeatureSpace space;
  graph::CostModel model(&space, graph::CostModelConfig{});
  graph::WeightVector weights(&space);
  text::TextIndex index;
  graph::SearchGraph graph;
  for (const auto& src : dataset.catalog.sources()) {
    for (const auto& table : src->tables()) index.IndexTable(*table);
    graph::AddSourceToGraph(*src, &model, &graph);
  }

  query::ViewConfig vconfig;
  vconfig.query_graph.min_similarity = 0.5;
  vconfig.query_graph.max_matches_per_keyword = 6;
  query::TopKView view(dataset.keyword_queries[0], vconfig);

  RefreshEngine engine;
  const std::size_t slot = engine.RegisterView(&view);
  ASSERT_TRUE(engine
                  .RefreshView(slot, graph, dataset.catalog, index, &model,
                               weights)
                  .ok());
  AsyncRefreshScheduler sched(&engine, /*pool=*/nullptr,
                              /*dedicated_threads=*/1, &graph,
                              &dataset.catalog, &index, &model, &weights);
  sched.TrackView(slot, &view);
  ASSERT_TRUE(sched.WaitFresh(slot, std::chrono::milliseconds(1000)));

  // Break the base state: an empty index makes every rebuild fail with
  // keyword-NotFound, and the structural node forces the rebuild
  // classification on the next barrier.
  index = text::TextIndex();
  graph.AddNode(graph::NodeKind::kValue, "orphan");
  ASSERT_FALSE(sched.SyncBarrier().ok());

  // The waiter must observe the failure promptly — well inside the
  // deadline (generous bound for sanitizer builds).
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(sched.WaitFresh(slot, std::chrono::milliseconds(30000)));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(5000));
  EXPECT_FALSE(sched.Drain().ok());

  // Repair the index: the next barrier succeeds, clears the sticky
  // error, and WaitFresh reports fresh again.
  index.IndexCatalog(dataset.catalog);
  ASSERT_TRUE(sched.SyncBarrier().ok());
  EXPECT_TRUE(sched.WaitFresh(slot, std::chrono::milliseconds(30000)));
  EXPECT_TRUE(sched.Drain().ok());
}

// WaitViewFresh deadline semantics at the QSystem boundary: unknown ids
// report false immediately (async and sync), and a waiter racing a
// structural operation (which holds the serving gate exclusively) still
// returns promptly rather than deadlocking against it — the waiter must
// not hold the gate across its blocking wait.
TEST(ServeConcurrencyTest, WaitViewFreshPromptAcrossStructuralOps) {
  Harness h(/*async=*/true);

  auto expect_prompt_false = [&](std::size_t id) {
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(h.q->WaitViewFresh(id, std::chrono::milliseconds(10000)));
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::milliseconds(5000));
  };
  expect_prompt_false(h.view_ids.size() + 100);

  std::atomic<bool> done{false};
  std::thread waiter([&] {
    util::Rng rng(9500);
    while (!done.load(std::memory_order_acquire)) {
      std::size_t id = h.view_ids[rng.Uniform(h.view_ids.size())];
      EXPECT_TRUE(h.q->WaitViewFresh(id, std::chrono::milliseconds(30000)))
          << "view " << id;
    }
  });
  // Structural churn: registrations take the serving gate exclusively
  // and route every view through the serial rebuild path.
  for (int i = 0; i < 2; ++i) {
    RegisterClonedSource(&h, "interpro.pub", "pubsrc" + std::to_string(i));
  }
  done.store(true, std::memory_order_release);
  waiter.join();
  ASSERT_TRUE(h.q->DrainRefreshes().ok());

  // Sync-mode boundary: known ids true, unknown false, both immediate.
  Harness sync(/*async=*/false);
  EXPECT_TRUE(
      sync.q->WaitViewFresh(sync.view_ids[0], std::chrono::milliseconds(1)));
  EXPECT_FALSE(sync.q->WaitViewFresh(sync.view_ids.size() + 100,
                                     std::chrono::milliseconds(1)));
}

// --- cold column indexes ----------------------------------------------------

// Readers released together execute the views' conjunctive queries against
// tables no query has touched, so they race on every column's first index
// build. Each result must equal a single-threaded run against a separate
// cold copy of the tables. Odd readers walk the queries backwards, so first
// uses collide from both ends of the list.
TEST(ServeConcurrencyTest, ColdColumnIndexesUnderConcurrentReaders) {
  std::vector<query::ConjunctiveQuery> queries;
  {
    Harness h(/*async=*/false);
    for (std::size_t id : h.view_ids) {
      auto snapshot = h.q->QueryView(id);
      ASSERT_TRUE(snapshot.ok()) << snapshot.status();
      queries.insert(queries.end(), snapshot->queries.begin(),
                     snapshot->queries.end());
    }
  }
  ASSERT_FALSE(queries.empty());
  // The generator is deterministic: two builds are two cold copies.
  const data::InterProGoDataset shared = data::BuildInterProGo(SmallDataset());
  const data::InterProGoDataset referee =
      data::BuildInterProGo(SmallDataset());
  for (const auto& table : shared.catalog.AllTables()) {
    ASSERT_EQ(table->IndexBytes(), 0u);
  }

  struct Outcome {
    util::StatusCode code = util::StatusCode::kOk;
    std::vector<relational::Row> rows;
  };
  auto run = [](const query::Executor& executor,
                const query::ConjunctiveQuery& cq) {
    auto result = executor.Execute(cq);
    Outcome out;
    out.code = result.status().code();
    if (result.ok()) out.rows = std::move(result).value();
    return out;
  };
  std::vector<Outcome> want;
  const query::Executor single(&referee.catalog);
  for (const auto& cq : queries) want.push_back(run(single, cq));

  std::vector<std::vector<Outcome>> got(kQueryReaders,
                                        std::vector<Outcome>(queries.size()));
  std::atomic<int> waiting{kQueryReaders};
  std::vector<std::thread> readers;
  for (int t = 0; t < kQueryReaders; ++t) {
    readers.emplace_back([&, t] {
      const query::Executor executor(&shared.catalog);
      waiting.fetch_sub(1, std::memory_order_acq_rel);
      while (waiting.load(std::memory_order_acquire) > 0) {
        std::this_thread::yield();
      }
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const std::size_t q = t % 2 == 0 ? i : queries.size() - 1 - i;
        got[t][q] = run(executor, queries[q]);
      }
    });
  }
  for (auto& reader : readers) reader.join();

  std::size_t rows = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    rows += want[q].rows.size();
    for (int t = 0; t < kQueryReaders; ++t) {
      EXPECT_EQ(got[t][q].code, want[q].code) << "reader " << t << " q " << q;
      EXPECT_EQ(got[t][q].rows, want[q].rows) << "reader " << t << " q " << q;
    }
  }
  EXPECT_GT(rows, 0u);
}

}  // namespace
}  // namespace q::core
