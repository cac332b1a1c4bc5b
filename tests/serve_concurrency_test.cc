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
//     index build get the single-threaded answer;
//   * serving from the committed snapshot — QueryView answers from the
//     view's committed snapshot only while its serving pair is the one
//     that snapshot's search ran at, and searches otherwise (an engine
//     swap, a repair window), always equal to an independent search;
//   * staged structural rebuilds — a registration's rebuilt view is
//     installed with its searched snapshot, so readers racing a
//     registration stream never search, and a failed staged search
//     leaves the rebuilt graph searched until a barrier repairs it.
//
// Runs under the ctest `stress` label and the ThreadSanitizer CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
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
#include "steiner/fast_solver.h"
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

// The referee for a served answer: the view's search pipeline on a fresh
// engine without an enumeration memo, over the view's current query graph
// at `weights`.
query::ViewSnapshot IndependentSearch(const query::TopKView& view,
                                      const relational::Catalog& catalog,
                                      const graph::WeightVector& weights) {
  steiner::FastSteinerEngine engine(view.query_graph().graph, weights,
                                    /*use_memo=*/false);
  auto snapshot = view.BuildSearchSnapshot(view.query_graph(), catalog,
                                           weights, &engine, /*pin=*/nullptr);
  Q_CHECK_OK(snapshot.status());
  return std::move(snapshot).value();
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
  // A quiescent QueryView is served from the committed snapshot, so the
  // published snapshot itself is also checked against a search of its own.
  for (std::size_t id : h.view_ids) {
    auto fresh = h.q->QueryView(id);
    ASSERT_TRUE(fresh.ok()) << "view " << id;
    query::ViewResult published = h.q->ReadView(id);
    ASSERT_NE(published.state, nullptr);
    ExpectSameViewState(*fresh, *published.state,
                        "quiescent query-vs-published view " +
                            std::to_string(id));
    ExpectSameViewState(
        *published.state,
        IndependentSearch(h.q->view(id), h.q->catalog(), h.q->weights()),
        "quiescent published-vs-independent view " + std::to_string(id));
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
  // Readers that have completed one QueryView. The registrations wait for
  // all of them, so every reader is live before the first registration
  // (eight registrations can otherwise finish before any search does).
  std::atomic<int> readers_ready{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kQueryReaders; ++r) {
    readers.emplace_back([&, r, &q = q, &view_ids = view_ids] {
      util::Rng rng(9700 + r);
      bool first = true;
      while (!done.load(std::memory_order_acquire)) {
        std::size_t i = rng.Uniform(view_ids.size());
        std::string label =
            "reader " + std::to_string(r) + " view " + std::to_string(i);
        auto result = q->QueryView(view_ids[i]);
        if (first) {
          first = false;
          readers_ready.fetch_add(1, std::memory_order_release);
        }
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

  while (readers_ready.load(std::memory_order_acquire) < kQueryReaders) {
    std::this_thread::yield();
  }
  const RefreshEngineStats serving_before = q->refresh_engine().stats();

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
  // Every read during the stream was answered from a committed snapshot:
  // a rebuilt view is installed together with its searched snapshot, so
  // no reader ever meets one whose search has not landed.
  const RefreshEngineStats serving_after = q->refresh_engine().stats();
  EXPECT_EQ(serving_after.queries_searched, serving_before.queries_searched);
  EXPECT_GT(serving_after.queries_served_committed,
            serving_before.queries_served_committed);

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
    ExpectSameViewState(
        *published.state,
        IndependentSearch(q->view(id), q->catalog(), q->weights()),
        "quiescent published-vs-independent view " + std::to_string(id));
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
    ExpectSameViewState(
        *published.state,
        IndependentSearch(q.view(v), q.catalog(), q.weights()),
        "quiescent published-vs-independent view " + std::to_string(v));
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

// --- serving from the committed snapshot ---------------------------------

// Whether two snapshots return the same trees (edges and costs), for
// asserting that a test's change really moves the answer.
bool SameTrees(const query::ViewSnapshot& a, const query::ViewSnapshot& b) {
  if (a.trees.size() != b.trees.size()) return false;
  for (std::size_t i = 0; i < a.trees.size(); ++i) {
    if (a.trees[i].edges != b.trees[i].edges ||
        a.trees[i].cost != b.trees[i].cost) {
      return false;
    }
  }
  return true;
}

// Runs `serve` (one QueryView or SearchView) and checks the answer against
// `want`, its zeroed serials, and which serving counter moved.
template <typename Serve>
void ExpectServed(const RefreshEngine& engine, Serve serve,
                  const query::ViewSnapshot& want, bool from_committed,
                  const std::string& label) {
  const RefreshEngineStats before = engine.stats();
  util::Result<query::ViewSnapshot> got = serve();
  const RefreshEngineStats after = engine.stats();
  EXPECT_EQ(after.queries_served_committed,
            before.queries_served_committed + (from_committed ? 1 : 0))
      << label;
  EXPECT_EQ(after.queries_searched,
            before.queries_searched + (from_committed ? 0 : 1))
      << label;
  ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
  EXPECT_EQ(got->search_serial, 0u) << label;
  EXPECT_EQ(got->certificate.serial, 0u) << label;
  ExpectSameViewState(*got, want, label);
}

// Feature ids carried by any edge of a view's query graph.
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

// A non-default feature carried by some edge of the view's query graph
// but by none of its certificate edges: an increase of it reprices the
// snapshot where the certificate proves the output cannot move.
bool FindOutsideFeature(const query::TopKView& view, graph::FeatureId* out) {
  const graph::SearchGraph& g = view.query_graph().graph;
  const steiner::RelevanceCertificate& cert = view.certificate();
  if (!cert.valid) return false;
  std::set<graph::FeatureId> inside;
  for (graph::EdgeId e : cert.edges) {
    for (const auto& [id, value] : g.edge_features(e).entries()) {
      inside.insert(id);
    }
  }
  for (graph::FeatureId f : ViewFeatures(view)) {
    if (f != graph::FeatureSpace::kDefaultFeature && inside.count(f) == 0) {
      *out = f;
      return true;
    }
  }
  return false;
}

// In sync mode every path that leaves the serving pair alone keeps the
// committed snapshot serving: the initial refresh, a feedback round, a
// weight delta that reprices nothing in the view (committed without a
// search), and one the relevance gate skips (not committed at all). Each
// answer equals an independent search at the live weights.
TEST(ServeConcurrencyTest, UnchangedServingPairAnswersFromCommittedSnapshot) {
  Harness h(/*async=*/false);
  const RefreshEngine& engine = h.q->refresh_engine();
  auto expect_committed = [&](std::size_t id, const std::string& label) {
    ExpectServed(
        engine, [&] { return h.q->QueryView(id); },
        IndependentSearch(h.q->view(id), h.q->catalog(), h.q->weights()),
        /*from_committed=*/true, label + " view " + std::to_string(id));
  };
  for (std::size_t id : h.view_ids) expect_committed(id, "created");

  const std::size_t first = h.view_ids[0];
  const steiner::SteinerTree endorsed = h.q->view(first).trees().at(0);
  ASSERT_TRUE(h.q->ApplyFeedback(first, endorsed).ok());
  for (std::size_t id : h.view_ids) expect_committed(id, "feedback");

  // A feature some other view's keyword matches carry and the first
  // view's query graph lacks: the first view is committed without a
  // search, its published snapshot untouched.
  const std::set<graph::FeatureId> own = ViewFeatures(h.q->view(first));
  graph::FeatureId foreign = graph::FeatureSpace::kDefaultFeature;
  for (std::size_t id : h.view_ids) {
    for (graph::FeatureId f : ViewFeatures(h.q->view(id))) {
      if (own.count(f) == 0) foreign = f;
    }
  }
  ASSERT_NE(foreign, graph::FeatureSpace::kDefaultFeature);
  auto published = h.q->ReadView(first).state;
  RefreshEngineStats before = engine.stats();
  h.q->mutable_weights().Nudge(foreign, 0.05);
  ASSERT_TRUE(h.q->RefreshAllViews().ok());
  EXPECT_GT(engine.stats().views_skipped_delta, before.views_skipped_delta);
  EXPECT_EQ(h.q->ReadView(first).state, published);
  for (std::size_t id : h.view_ids) expect_committed(id, "no-op commit");

  // An increase outside the first view's certificate: the gate skips it.
  graph::FeatureId outside = 0;
  ASSERT_TRUE(FindOutsideFeature(h.q->view(first), &outside));
  published = h.q->ReadView(first).state;
  before = engine.stats();
  h.q->mutable_weights().Nudge(outside, 0.05);
  ASSERT_TRUE(h.q->RefreshAllViews().ok());
  EXPECT_GT(engine.stats().views_skipped_irrelevant,
            before.views_skipped_irrelevant);
  EXPECT_EQ(h.q->ReadView(first).state, published);
  for (std::size_t id : h.view_ids) expect_committed(id, "gate skip");
}

// One view on its own RefreshEngine over a QSystem's base state (sources
// registered and aligned, no views of its own), so a test can drive the
// engine's repair halves directly.
struct EngineFixture {
  data::InterProGoDataset dataset = data::BuildInterProGo(SmallDataset());
  std::unique_ptr<QSystem> q = std::make_unique<QSystem>(BaseConfig());
  std::unique_ptr<query::TopKView> view;
  RefreshEngine engine;  // after `view`, which must outlive it
  std::size_t slot = 0;

  explicit EngineFixture(std::size_t query) {
    for (const auto& src : dataset.catalog.sources()) {
      Q_CHECK_OK(q->RegisterSource(src));
    }
    Q_CHECK_OK(q->RunInitialAlignment());
    view = std::make_unique<query::TopKView>(dataset.keyword_queries[query],
                                             BaseConfig().view);
    slot = engine.RegisterView(view.get());
    Q_CHECK_OK(engine.RefreshView(slot, q->search_graph(), q->catalog(),
                                  q->text_index(), &q->cost_model(),
                                  q->weights()));
  }

  util::Result<query::ViewSnapshot> Serve() const {
    return engine.SearchView(slot, q->catalog());
  }
  query::ViewSnapshot Independent() const {
    return IndependentSearch(*view, q->catalog(), q->weights());
  }
};

// Registers a copy of InterPro-GO's journal table as source "newsrc"
// with the weight revision unchanged; it changes the answer of the
// EngineFixture's view over query 2.
void RegisterJournalCopy(EngineFixture* f) {
  auto table = f->dataset.catalog.FindTable("interpro.journal");
  ASSERT_NE(table, nullptr);
  auto source = std::make_shared<relational::DataSource>("newsrc");
  auto copy = std::make_shared<relational::Table>(relational::RelationSchema(
      "newsrc", table->schema().relation(), table->schema().attributes()));
  for (const auto& row : table->rows()) {
    ASSERT_TRUE(copy->AppendRow(row).ok());
  }
  ASSERT_TRUE(source->AddTable(copy).ok());
  const std::uint64_t weight_revision = f->q->weights().revision();
  ASSERT_TRUE(f->q->RegisterSource(source).ok());
  ASSERT_EQ(f->q->weights().revision(), weight_revision);
}

// A registration that leaves the weight revision alone rebuilds the
// view's query graph onto a fresh engine, which restarts at generation 0,
// and the synchronous rebuild installs the engine's cached serving weight
// copy of that revision: the very pair the old snapshot was stamped with.
// When the rebuild's search fails (its catalog lacks the view's tables),
// the slot keeps the rebuilt graph and engine without a snapshot, the
// state a failed staged search also leaves
// (FailedStagedSearchLeavesTheRebuiltGraphSearched). Until a repair's
// search lands, QueryView must search the rebuilt query graph, not return
// the old query graph's snapshot.
TEST(ServeConcurrencyTest, EngineSwapSearchesTheRebuiltQueryGraph) {
  EngineFixture f(/*query=*/2);
  const query::ViewSnapshot old_answer = *f.view->Snapshot();
  ASSERT_FALSE(old_answer.trees.empty());
  ExpectServed(f.engine, [&] { return f.Serve(); }, f.Independent(),
               /*from_committed=*/true, "before the registration");
  RegisterJournalCopy(&f);

  const relational::Catalog empty;
  const util::Status failed =
      f.engine.RefreshView(f.slot, f.q->search_graph(), empty,
                           f.q->text_index(), &f.q->cost_model(),
                           f.q->weights());
  ASSERT_TRUE(failed.IsNotFound()) << failed.ToString();
  ExpectSameViewState(*f.view->Snapshot(), old_answer, "published");
  const query::ViewSnapshot rebuilt = f.Independent();
  ASSERT_FALSE(SameTrees(old_answer, rebuilt))
      << "the registration must change the view's answer";
  ExpectServed(f.engine, [&] { return f.Serve(); }, rebuilt,
               /*from_committed=*/false, "rebuilt, search pending");

  // The asynchronous half lands the search: committed serving resumes.
  ASSERT_TRUE(f.engine
                  .RepairViewAsync(f.slot, f.q->search_graph(), f.q->catalog(),
                                   f.q->weights())
                  .ok());
  ExpectServed(f.engine, [&] { return f.Serve(); }, rebuilt,
               /*from_committed=*/true, "rebuilt, search landed");
}

// A staged structural rebuild, driven step by step on the engine: until
// the install, the slot keeps its old pair and answers from its committed
// snapshot of the old query graph; the install swaps query graph, engine,
// serving weights and searched snapshot in together, so the very next
// answer is the rebuilt graph's, again from the committed snapshot. No
// step in between makes SearchView search.
TEST(ServeConcurrencyTest, StagedRebuildInstallsQueryGraphEngineAndSnapshot) {
  EngineFixture f(/*query=*/2);
  const query::ViewSnapshot old_answer = f.Independent();
  ASSERT_FALSE(old_answer.trees.empty());
  ExpectServed(f.engine, [&] { return f.Serve(); }, old_answer,
               /*from_committed=*/true, "before the registration");
  RegisterJournalCopy(&f);
  const std::uint64_t serial_before = f.view->Snapshot()->search_serial;

  RefreshEngine::StagedRebuild staged =
      f.engine.StageRebuild(f.slot, f.q->search_graph(), f.q->weights());
  ExpectServed(f.engine, [&] { return f.Serve(); }, old_answer,
               /*from_committed=*/true, "base copied");
  ASSERT_TRUE(f.engine
                  .ExpandStaged(&staged, f.q->text_index(), &f.q->cost_model())
                  .ok());
  staged.weights = std::make_shared<const graph::WeightVector>(
      f.q->weights().Materialized());
  const RefreshEngineStats before_search = f.engine.stats();
  f.engine.SearchStaged(&staged, f.q->catalog());
  ASSERT_TRUE(staged.snapshot.ok()) << staged.snapshot.status().ToString();
  EXPECT_EQ(f.engine.stats().searches_run, before_search.searches_run + 1);
  ExpectServed(f.engine, [&] { return f.Serve(); }, old_answer,
               /*from_committed=*/true, "staged search landed");
  EXPECT_EQ(f.view->Snapshot()->search_serial, serial_before);

  f.engine.InstallStaged(&staged, f.q->search_graph(), f.q->weights());
  const query::ViewSnapshot rebuilt = f.Independent();
  ASSERT_FALSE(SameTrees(old_answer, rebuilt))
      << "the registration must change the view's answer";
  ExpectServed(f.engine, [&] { return f.Serve(); }, rebuilt,
               /*from_committed=*/true, "installed");
  // Published once, at the install, with a consistent serial pair.
  const auto published = f.view->Snapshot();
  EXPECT_EQ(published->search_serial, serial_before + 1);
  EXPECT_EQ(published->certificate.serial, published->search_serial);
  ExpectSameViewState(*published, rebuilt, "published");
  // The staged rebuild now holds what the install replaced.
  EXPECT_LT(staged.query_graph.graph.num_nodes(),
            f.view->query_graph().graph.num_nodes());
  EXPECT_EQ(f.engine.stats().snapshots_built,
            before_search.snapshots_built + 1);
}

// A staged search that fails (the scheduler's catalog lacks the view's
// tables) installs the rebuilt query graph and engine without a snapshot:
// the EngineSwapSearchesTheRebuiltQueryGraph state. The failure surfaces
// through Drain, which DrainRefreshes returns, and the sync barrier that
// RefreshAllViews runs repairs the view once the catalog is whole.
TEST(ServeConcurrencyTest, FailedStagedSearchLeavesTheRebuiltGraphSearched) {
  EngineFixture f(/*query=*/2);
  const query::ViewSnapshot old_answer = *f.view->Snapshot();
  relational::Catalog catalog;  // the scheduler's: no tables yet
  AsyncRefreshScheduler sched(&f.engine, /*pool=*/nullptr,
                              /*dedicated_threads=*/1, &f.q->search_graph(),
                              &catalog, &f.q->text_index(),
                              &f.q->cost_model(), &f.q->weights());
  sched.TrackView(f.slot, f.view.get());
  RegisterJournalCopy(&f);

  const AsyncRefreshStats before = sched.stats();
  ASSERT_TRUE(sched.NotifyStructuralChange().ok());
  EXPECT_EQ(sched.stats().structural_rebuilds, before.structural_rebuilds + 1);
  EXPECT_TRUE(sched.Read(f.slot).stale);
  // The old published snapshot is still the view's output, while QueryView
  // searches the installed rebuild.
  ExpectSameViewState(*f.view->Snapshot(), old_answer, "published");
  const query::ViewSnapshot rebuilt = f.Independent();
  ASSERT_FALSE(SameTrees(old_answer, rebuilt))
      << "the registration must change the view's answer";
  ExpectServed(f.engine, [&] { return f.Serve(); }, rebuilt,
               /*from_committed=*/false, "staged search failed");
  const util::Status drained = sched.Drain();
  EXPECT_TRUE(drained.IsNotFound()) << drained.ToString();

  for (const auto& source : f.q->catalog().sources()) {
    ASSERT_TRUE(catalog.AddSource(source).ok());
  }
  ASSERT_TRUE(sched.SyncBarrier().ok());
  EXPECT_TRUE(sched.Drain().ok());
  EXPECT_FALSE(sched.Read(f.slot).stale);
  ExpectServed(f.engine, [&] { return f.Serve(); }, rebuilt,
               /*from_committed=*/true, "repaired by the barrier");
  ExpectSameViewState(*f.view->Snapshot(), rebuilt, "republished");
}

// A repair re-costs the slot — publishing the new serving pair — and then
// its search fails (the catalog it was handed lacks the view's tables), so
// nothing is committed. A reader inside that window must get the answer
// at the new pair, not the committed snapshot of the old one.
TEST(ServeConcurrencyTest, RepairWindowSearchesAtTheNewPair) {
  EngineFixture f(/*query=*/0);
  const query::ViewSnapshot old_answer = *f.view->Snapshot();
  ASSERT_FALSE(old_answer.trees.empty());
  ExpectServed(f.engine, [&] { return f.Serve(); }, f.Independent(),
               /*from_committed=*/true, "before the delta");

  // Raising the default-feature weight reprices every learnable edge, so
  // every tree cost moves.
  f.q->mutable_weights().Nudge(graph::FeatureSpace::kDefaultFeature, 0.5);
  const query::ViewSnapshot repriced = f.Independent();
  ASSERT_FALSE(SameTrees(old_answer, repriced))
      << "the delta must change the view's answer";
  const relational::Catalog empty;
  const util::Status failed = f.engine.RepairViewAsync(
      f.slot, f.q->search_graph(), empty, f.q->weights());
  ASSERT_TRUE(failed.IsNotFound()) << failed.ToString();
  ExpectServed(f.engine, [&] { return f.Serve(); }, repriced,
               /*from_committed=*/false, "repair window");

  ASSERT_TRUE(f.engine
                  .RepairViewAsync(f.slot, f.q->search_graph(), f.q->catalog(),
                                   f.q->weights())
                  .ok());
  ExpectServed(f.engine, [&] { return f.Serve(); }, repriced,
               /*from_committed=*/true, "repair landed");
}

}  // namespace
}  // namespace q::core
