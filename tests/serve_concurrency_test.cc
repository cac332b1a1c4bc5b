// Concurrent query serving: N reader threads run QueryView, which copies
// each view's published snapshot, while a feedback writer races them,
// asserting
//
//   * serial publication — every published snapshot a reader observes
//     carries a search serial, and a view's serials never go backwards;
//   * per-read internal consistency — every QueryView result pairs
//     trees/queries/rows from one search, never a mix of generations;
//   * quiescent bit-identity — once drained, QueryView output equals the
//     published snapshot and the synchronous twin system, bit for bit,
//     also when the live system searches sharded on shards small enough
//     that its masks leave part of a view's component out;
//   * failed-round wakeups — a round that fails to rebuild a view wakes
//     WaitFresh waiters promptly instead of burning their full deadline
//     (the missed-error regression in the epoch/predicate interaction);
//   * feature interning beside readers — registrations that install new
//     association features race QueryView readers cleanly;
//   * cold column indexes — readers that race each table column's first
//     index build get the single-threaded answer;
//   * serving the published snapshot — QueryView answers with the view's
//     published snapshot, equal to an independent search at quiescence;
//     inside a repair window it is the baseline-before answer, and a
//     rebuild or staged search that fails installs nothing, so the view
//     keeps its old query graph and answer until a later round lands;
//   * staged structural rebuilds — a registration's rebuilt view is
//     installed with its searched snapshot;
//   * the synchronous mode — a feedback call returns with its round
//     drained and reports that round's failures, and full refreshes race
//     QueryView readers without deadlock.
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
#include <utility>
#include <vector>

#include "core/async_refresh.h"
#include "core/q_system.h"
#include "core/refresh_engine.h"
#include "data/gbco.h"
#include "data/interpro_go.h"
#include "data/onboarding.h"
#include "graph/graph_builder.h"
#include "match/alignment.h"
#include "query/executor.h"
#include "steiner/fast_solver.h"
#include "steiner/shard.h"
#include "util/random.h"

namespace q::core {
namespace {

constexpr std::size_t kNumViews = 16;
constexpr int kQueryReaders = 4;  // the acceptance floor
constexpr int kFeedbackRounds = 10;
// Shard size of the sharded harness: small enough that a view's first
// mask can leave out part of its terminals' 38-44-node component (the
// default 512-node shards hold each component whole).
constexpr std::uint32_t kShardNodes = 4;

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

  explicit Harness(bool async, bool sharded = false) {
    dataset = data::BuildInterProGo(SmallDataset());
    QSystemConfig config = BaseConfig();
    config.async_refresh = async;
    config.async_repair_threads = async ? 2 : 0;
    config.sharded_search = sharded;
    config.view.top_k.sharded.target_shard_nodes = kShardNodes;
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
// engine, over the view's current query graph at `weights`.
query::ViewSnapshot IndependentSearch(const query::TopKView& view,
                                      const relational::Catalog& catalog,
                                      const graph::WeightVector& weights) {
  steiner::FastSteinerEngine engine(view.query_graph().graph, weights);
  auto snapshot = view.BuildSearchSnapshot(view.query_graph(), catalog,
                                           weights, &engine, /*pin=*/nullptr);
  Q_CHECK_OK(snapshot.status());
  return std::move(snapshot).value();
}

// --- serial publication ---------------------------------------------------

// Readers hammer ReadView while feedback publishes new snapshots: every
// published snapshot must carry a search serial (stamped in the critical
// section that publishes it), each reader must see a view's serials only
// grow, and QueryView results — which are unpublished — must carry a
// zeroed serial with a fully consistent body.
TEST(ServeConcurrencyTest, PublishedSearchSerialsOnlyGrow) {
  Harness h(/*async=*/true);
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kQueryReaders; ++r) {
    readers.emplace_back([&, r] {
      util::Rng rng(9100 + r);
      std::vector<std::uint64_t> last_serial(kNumViews, 0);
      while (!done.load(std::memory_order_acquire)) {
        std::size_t v = rng.Uniform(h.view_ids.size());
        std::size_t id = h.view_ids[v];
        query::ViewResult read = h.q->ReadView(id);
        if (read.state == nullptr) continue;
        if (read.state->search_serial == 0 ||
            read.state->search_serial < last_serial[v]) {
          ++violations;
        }
        last_serial[v] = read.state->search_serial;
        if (rng.Uniform(4) == 0) {
          auto fresh = h.q->QueryView(id);
          if (fresh.ok()) {
            EXPECT_EQ(fresh->search_serial, 0u);
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

// >= 4 query workers run QueryView (plus ReadView probes) on the async
// system in `harness` while a writer thread applies feedback and —
// mid-run — registers a new source (the structural path, which rebuilds
// every view).
// Every result must be internally consistent; at quiescence QueryView
// must reproduce the published snapshot bit for bit, and the whole system
// must match a synchronous, unsharded twin fed the same committed
// sequence.
void RaceWriterAndMatchSyncTwin(Harness* harness) {
  Harness& h = *harness;
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
  // the middle, so readers cross repairs and rebuilds.
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

  // Quiescence: QueryView is a copy of the published snapshot, which must
  // equal an independent search — same CSR costs, same weights, same
  // deterministic enumeration.
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

TEST(ServeConcurrencyTest, QueryViewRacesWriterAndMatchesSyncTwin) {
  Harness h(/*async=*/true);
  RaceWriterAndMatchSyncTwin(&h);
}

// Nodes of the connected component holding `view`'s keyword nodes, and of
// the first mask a TerminalLocalizer builds for them over the view's
// query graph at `weights` — the mask its search starts from.
std::pair<std::size_t, std::size_t> ComponentAndFirstMaskNodes(
    const query::TopKView& view, const graph::WeightVector& weights) {
  const query::QueryGraph& qg = view.query_graph();
  steiner::FastSteinerEngine engine(qg.graph, weights);
  const steiner::SnapshotPin pin = engine.Pin();
  const steiner::CsrGraph& csr = *pin.csr;
  std::vector<char> seen(csr.num_nodes, 0);
  std::vector<std::uint32_t> stack = {qg.keyword_nodes.front()};
  seen[stack.front()] = 1;
  std::size_t component = 0;
  while (!stack.empty()) {
    const std::uint32_t v = stack.back();
    stack.pop_back();
    ++component;
    for (std::uint32_t a = csr.offsets[v]; a < csr.offsets[v + 1]; ++a) {
      if (!seen[csr.arc_head[a]]) {
        seen[csr.arc_head[a]] = 1;
        stack.push_back(csr.arc_head[a]);
      }
    }
  }
  steiner::TerminalLocalizer localizer(pin.csr, engine.Shards(kShardNodes),
                                       qg.keyword_nodes);
  return {component, localizer.Acquire().mask->nodes.size()};
}

// The same race with sharded terminal-local search on 4-node shards; the
// unsharded twin must still serve the same trees, edge ids included. The
// views' first searches already solve masked: before the race, some view's
// first mask leaves part of its terminals' component out (4 of the 16
// views, 24 of 38 nodes each). Later masks depend on which trees the
// racing writer endorsed.
TEST(ServeConcurrencyTest, ShardedQueryViewRacesWriterAndMatchesSyncTwin) {
  Harness h(/*async=*/true, /*sharded=*/true);
  std::size_t split = 0;
  for (std::size_t id : h.view_ids) {
    const auto [component, mask] =
        ComponentAndFirstMaskNodes(h.q->view(id), h.q->weights());
    if (mask < component) ++split;
  }
  EXPECT_GT(split, 0u) << "no view's first mask left out part of its "
                          "terminals' component";
  RaceWriterAndMatchSyncTwin(&h);
}

// --- onboarding while serving: registrations race QueryView readers ------

// A registration writer streams new sources — alternating vocabulary-
// disjoint islands with sources relevant to one community — while >= 4
// reader threads run QueryView and ReadView probes throughout. Each ack
// rebuilds every view beside its slot and installs it with its searched
// snapshot, so readers stay live across every registration; the rebuild
// count comes out exact; and at quiescence QueryView reproduces the
// published snapshot bit for bit while a synchronous twin fed the same
// registrations serves identical output, edge ids included.
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

  // The registration stream: even serials are vocabulary-disjoint
  // islands, odd serials overlap one community. Every registration
  // rebuilds every view.
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
  EXPECT_EQ(sched_after.structural_skips, 0u);
  EXPECT_EQ(sched_after.structural_rebuilds,
            sched_before.structural_rebuilds +
                kRegistrations * kCommunities);

  // Quiescence: QueryView reproduces the published snapshot, and that
  // equals an independent search.
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
    ExpectSameViewState(*q->ReadView(view_ids[i]).state,
                        *twin->ReadView(twin_ids[i]).state,
                        "quiescent twin view " + std::to_string(i));
  }
}

// Registrations whose alignments install new association features race
// QueryView readers. Interning a feature may reallocate the FeatureSpace's
// initial-weight array, which a weight vector reads for every feature it
// never set (WeightVector::At), so no reader may price anything while
// association installation (new association edges, matcher bins,
// missing-vote penalties) interns; readers copy published snapshots and
// price nothing, and run under ThreadSanitizer this test reports any read
// that reaches the space. GBCO's held-out sources align against many
// views, so each registration installs a batch of new association
// features.
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

// --- WaitFresh vs. failed rounds and structural ops ----------------------

// Builds (or rebuilds) `slot` through the three staged steps on the
// calling thread and returns the staged search's status (a Stage failure
// leaves the slot untouched).
util::Status StagedBuild(RefreshEngine* engine, std::size_t slot,
                         const graph::SearchGraph& base,
                         const text::TextIndex& index, graph::CostModel* model,
                         const relational::Catalog& catalog,
                         const graph::WeightVector& weights) {
  Q_ASSIGN_OR_RETURN(RefreshEngine::StagedRebuild staged,
                     engine->Stage(slot, base, index, model, weights));
  engine->SearchStaged(&staged, catalog);
  const util::Status searched = staged.snapshot.status();
  engine->InstallStaged(&staged, base, weights);
  return searched;
}

// A round that fails (here: the text index is emptied and the graph
// structurally bumped, so every rebuild's keyword lookup reports NotFound)
// bumps the epoch without validating any view. WaitFresh's predicate
// could then never become true unless the scheduler records the failure,
// so waiters would burn their entire deadline. They must wake promptly
// with `false`, and recover to `true` once the base state is repaired and
// the next round succeeds.
TEST(ServeConcurrencyTest, FailedRoundWakesWaitFreshPromptly) {
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
  ASSERT_TRUE(StagedBuild(&engine, slot, graph, index, &model,
                          dataset.catalog, weights)
                  .ok());
  AsyncRefreshScheduler sched(&engine, /*pool=*/nullptr,
                              /*dedicated_threads=*/1, &graph,
                              &dataset.catalog, &index, &model, &weights);
  sched.TrackView(slot, &view);
  ASSERT_TRUE(sched.WaitFresh(slot, std::chrono::milliseconds(1000)));

  // Break the base state: an empty index makes every rebuild fail with
  // keyword-NotFound, and the structural node forces the rebuild
  // classification on the next round.
  index = text::TextIndex();
  graph.AddNode(graph::NodeKind::kValue, "orphan");
  ASSERT_FALSE(sched.NotifyStructuralChange().ok());

  // The waiter must observe the failure promptly — well inside the
  // deadline (generous bound for sanitizer builds).
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(sched.WaitFresh(slot, std::chrono::milliseconds(30000)));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(5000));
  EXPECT_FALSE(sched.Drain().ok());

  // Repair the index: the next round succeeds, clears the recorded
  // failure, and WaitFresh reports fresh again.
  index.IndexCatalog(dataset.catalog);
  ASSERT_TRUE(sched.NotifyStructuralChange().ok());
  EXPECT_TRUE(sched.WaitFresh(slot, std::chrono::milliseconds(30000)));
  EXPECT_TRUE(sched.Drain().ok());
}

// WaitViewFresh deadline semantics at the QSystem boundary: unknown ids
// report false immediately (async and sync), and a waiter racing a
// structural operation still returns promptly rather than deadlocking
// against it.
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
  // Structural churn: each registration rebuilds every view.
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

// --- serving the published snapshot --------------------------------------

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

// Checks a served answer against `want` and its zeroed serial.
void ExpectServed(const util::Result<query::ViewSnapshot>& got,
                  const query::ViewSnapshot& want, const std::string& label) {
  ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
  EXPECT_EQ(got->search_serial, 0u) << label;
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

// In sync mode QueryView answers with the published snapshot after the
// initial refresh, a feedback round, and a weight delta that reprices
// nothing in the view (committed without a search). Each answer equals an
// independent search at the live weights.
TEST(ServeConcurrencyTest, QueryViewAnswersWithThePublishedSnapshot) {
  Harness h(/*async=*/false);
  const RefreshEngine& engine = h.q->refresh_engine();
  auto expect_committed = [&](std::size_t id, const std::string& label) {
    ExpectServed(
        h.q->QueryView(id),
        IndependentSearch(h.q->view(id), h.q->catalog(), h.q->weights()),
        label + " view " + std::to_string(id));
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
    Q_CHECK_OK(Rebuild(q->catalog()));
  }

  // Rebuilds the view through the staged steps, searching `catalog`.
  util::Status Rebuild(const relational::Catalog& catalog) {
    return StagedBuild(&engine, slot, q->search_graph(), q->text_index(),
                       &q->cost_model(), catalog, q->weights());
  }

  // What QSystem::QueryView would answer: a copy of the published
  // snapshot.
  util::Result<query::ViewSnapshot> Serve() const {
    query::ViewSnapshot answer = *view->Snapshot();
    answer.search_serial = 0;
    return answer;
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

// Raises the cost of one base edge on the EngineFixture view's best tree
// in place (a kEdgeMutated delta): the answer changes, while the weight
// revision and the feature space stay as they are.
void RaiseBestTreeEdge(EngineFixture* f) {
  graph::SearchGraph& base = f->q->mutable_search_graph();
  for (graph::EdgeId e : f->view->Snapshot()->trees.at(0).edges) {
    // Ids past the base graph are the view's own keyword edges.
    if (e >= base.num_edges() || base.edge(e).fixed_zero) continue;
    graph::FeatureVec features = base.edge_features(e);
    if (features.empty()) continue;
    features.Add(features.entries()[0].first, 5.0);
    base.SetEdgeFeatures(e, std::move(features));
    return;
  }
  FAIL() << "the best tree has no priced base edge";
}

// A rebuild whose search fails (its catalog lacks the view's tables)
// installs nothing: the view keeps its old query graph, engine and
// answer, so an independent search of the view's query graph still gives
// the old answer, and no snapshot is counted as built. The next rebuild
// lands its search and installs the rebuilt graph and answer together.
TEST(ServeConcurrencyTest, FailedRebuildKeepsTheOldQueryGraphAndAnswer) {
  EngineFixture f(/*query=*/2);
  const query::ViewSnapshot old_answer = *f.view->Snapshot();
  ASSERT_FALSE(old_answer.trees.empty());
  ExpectServed(f.Serve(), f.Independent(), "before the edge change");
  RaiseBestTreeEdge(&f);
  if (HasFatalFailure()) return;

  const RefreshEngineStats before = f.engine.stats();
  const relational::Catalog empty;
  const util::Status failed = f.Rebuild(empty);
  ASSERT_TRUE(failed.IsNotFound()) << failed.ToString();
  EXPECT_EQ(f.engine.stats().snapshots_built, before.snapshots_built);
  ExpectServed(f.Serve(), old_answer, "rebuild failed");
  ExpectSameViewState(f.Independent(), old_answer, "old query graph kept");

  ASSERT_TRUE(f.Rebuild(f.q->catalog()).ok());
  EXPECT_EQ(f.engine.stats().snapshots_built, before.snapshots_built + 1);
  const query::ViewSnapshot rebuilt = f.Independent();
  ASSERT_FALSE(SameTrees(old_answer, rebuilt))
      << "the edge change must change the view's answer";
  ExpectServed(f.Serve(), rebuilt, "rebuilt, search landed");
}

// A staged structural rebuild, driven step by step on the engine: until
// the install, the view answers with its published snapshot of the old
// query graph; the install swaps query graph, engine and searched
// snapshot in together, so the very next answer is the rebuilt graph's.
TEST(ServeConcurrencyTest, StagedRebuildInstallsQueryGraphEngineAndSnapshot) {
  EngineFixture f(/*query=*/2);
  const query::ViewSnapshot old_answer = f.Independent();
  ASSERT_FALSE(old_answer.trees.empty());
  ExpectServed(f.Serve(), old_answer, "before the registration");
  RegisterJournalCopy(&f);
  const std::uint64_t serial_before = f.view->Snapshot()->search_serial;

  util::Result<RefreshEngine::StagedRebuild> built =
      f.engine.Stage(f.slot, f.q->search_graph(), f.q->text_index(),
                     &f.q->cost_model(), f.q->weights());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  RefreshEngine::StagedRebuild staged = std::move(built).value();
  ExpectServed(f.Serve(), old_answer, "query graph staged");
  const RefreshEngineStats before_search = f.engine.stats();
  f.engine.SearchStaged(&staged, f.q->catalog());
  ASSERT_TRUE(staged.snapshot.ok()) << staged.snapshot.status().ToString();
  EXPECT_EQ(f.engine.stats().searches_run, before_search.searches_run + 1);
  ExpectServed(f.Serve(), old_answer, "staged search landed");
  EXPECT_EQ(f.view->Snapshot()->search_serial, serial_before);

  f.engine.InstallStaged(&staged, f.q->search_graph(), f.q->weights());
  const query::ViewSnapshot rebuilt = f.Independent();
  ASSERT_FALSE(SameTrees(old_answer, rebuilt))
      << "the registration must change the view's answer";
  ExpectServed(f.Serve(), rebuilt, "installed");
  // Published once, at the install.
  const auto published = f.view->Snapshot();
  EXPECT_EQ(published->search_serial, serial_before + 1);
  ExpectSameViewState(*published, rebuilt, "published");
  // The staged rebuild now holds what the install replaced.
  EXPECT_LT(staged.query_graph.graph.num_nodes(),
            f.view->query_graph().graph.num_nodes());
  EXPECT_EQ(f.engine.stats().snapshots_built,
            before_search.snapshots_built + 1);
}

// A staged search that fails in a round (the scheduler's catalog lacks
// the view's tables) installs nothing: the view reads stale with its old
// query graph and answer, and the failure surfaces through Drain, which
// DrainRefreshes returns. The next round (the one RefreshAllViews runs,
// say) rebuilds the view once the catalog is whole.
TEST(ServeConcurrencyTest, FailedStagedSearchInstallsNothing) {
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
  const RefreshEngineStats built_before = f.engine.stats();
  ASSERT_TRUE(sched.NotifyStructuralChange().ok());
  EXPECT_EQ(sched.stats().structural_rebuilds, before.structural_rebuilds + 1);
  EXPECT_EQ(f.engine.stats().snapshots_built, built_before.snapshots_built);
  EXPECT_TRUE(sched.Read(f.slot).stale);
  ExpectServed(f.Serve(), old_answer, "staged search failed");
  ExpectSameViewState(f.Independent(), old_answer, "old query graph kept");
  const util::Status drained = sched.Drain();
  EXPECT_TRUE(drained.IsNotFound()) << drained.ToString();

  for (const auto& source : f.q->catalog().sources()) {
    ASSERT_TRUE(catalog.AddSource(source).ok());
  }
  ASSERT_TRUE(sched.NotifyStructuralChange().ok());
  EXPECT_TRUE(sched.Drain().ok());
  EXPECT_FALSE(sched.Read(f.slot).stale);
  const query::ViewSnapshot rebuilt = f.Independent();
  ASSERT_FALSE(SameTrees(old_answer, rebuilt))
      << "the registration must change the view's answer";
  ExpectServed(f.Serve(), rebuilt, "rebuilt by the next round");
}

// A repair whose search fails (every table's attributes are renamed, so
// executing a view's queries reports NotFound) installs nothing: until a
// later round lands, QueryView answers with the view's published,
// baseline-before snapshot, as it does inside any repair window. With the
// schemas restored, the next round repairs every view to the answer at
// the new weights.
TEST(ServeConcurrencyTest, RepairWindowReadsTheBaselineBefore) {
  Harness h(/*async=*/false);
  std::vector<query::ViewSnapshot> before;
  for (std::size_t id : h.view_ids) {
    before.push_back(*h.q->ReadView(id).state);
    ExpectServed(h.q->QueryView(id), before.back(),
                 "before the delta view " + std::to_string(id));
  }

  std::vector<std::pair<std::shared_ptr<relational::Table>,
                        relational::RelationSchema>>
      saved;
  for (const auto& table : h.q->catalog().AllTables()) {
    saved.emplace_back(table, table->schema());
    std::vector<relational::AttributeDef> renamed =
        table->schema().attributes();
    for (relational::AttributeDef& a : renamed) a.name = "renamed_" + a.name;
    table->mutable_schema() = relational::RelationSchema(
        table->schema().source(), table->schema().relation(), renamed);
  }
  // Raising the default-feature weight reprices every learnable edge, so
  // every view's repair re-costs and searches.
  h.q->mutable_weights().Nudge(graph::FeatureSpace::kDefaultFeature, 0.5);
  const util::Status failed = h.q->RefreshAllViews();
  EXPECT_TRUE(failed.IsNotFound()) << failed.ToString();
  for (std::size_t i = 0; i < h.view_ids.size(); ++i) {
    const std::string label = "repair window view " + std::to_string(i);
    EXPECT_TRUE(h.q->ReadView(h.view_ids[i]).stale) << label;
    ExpectServed(h.q->QueryView(h.view_ids[i]), before[i], label);
  }

  for (auto& [table, schema] : saved) table->mutable_schema() = schema;
  ASSERT_TRUE(h.q->RefreshAllViews().ok());
  for (std::size_t i = 0; i < h.view_ids.size(); ++i) {
    const std::size_t id = h.view_ids[i];
    const query::ViewSnapshot repriced =
        IndependentSearch(h.q->view(id), h.q->catalog(), h.q->weights());
    if (i == 0) {
      ASSERT_FALSE(SameTrees(before[i], repriced))
          << "the delta must change the first view's answer";
    }
    ExpectServed(h.q->QueryView(id), repriced,
                 "repair landed view " + std::to_string(i));
  }
}

// --- synchronous mode: the round plus a drain ----------------------------

// In synchronous mode a feedback call is its round followed by a drain:
// when ApplyFeedback returns, every view is validated at the scheduler's
// epoch, without a DrainRefreshes call. A repair that fails — here every
// table's attributes are renamed, so executing a view's queries reports
// NotFound — is returned by the call whose round it belonged to, and the
// next round, with the schemas restored, retries the views the failure
// left stale and returns OK. The failed repairs installed nothing, so a
// retry with no new weight change re-costs from the installed snapshot,
// moves the same costs and searches; committing without a search would
// keep the pre-failure results.
TEST(ServeConcurrencyTest, SynchronousFeedbackReturnsWithItsRoundDrained) {
  Harness h(/*async=*/false);
  const AsyncRefreshScheduler& sched = *h.q->async_scheduler();
  // Endorsing a tree below the top makes every round a real MIRA update.
  auto endorse = [&](std::size_t id) {
    const auto& trees = h.q->view(id).trees();
    return h.q->ApplyFeedback(id, trees.at(trees.size() > 1 ? 1 : 0));
  };
  auto stale_views = [&] {
    std::size_t stale = 0;
    for (std::size_t id : h.view_ids) {
      const query::ViewResult read = h.q->ReadView(id);
      if (read.stale || read.generation != sched.epoch()) ++stale;
    }
    return stale;
  };

  const std::uint64_t epoch = sched.epoch();
  ASSERT_TRUE(endorse(h.view_ids[0]).ok());
  EXPECT_EQ(sched.epoch(), epoch + 1);
  EXPECT_EQ(stale_views(), 0u);

  std::vector<std::pair<std::shared_ptr<relational::Table>,
                        relational::RelationSchema>>
      saved;
  for (const auto& table : h.q->catalog().AllTables()) {
    saved.emplace_back(table, table->schema());
    std::vector<relational::AttributeDef> renamed =
        table->schema().attributes();
    for (relational::AttributeDef& a : renamed) a.name = "renamed_" + a.name;
    table->mutable_schema() = relational::RelationSchema(
        table->schema().source(), table->schema().relation(), renamed);
  }
  const util::Status failed = endorse(h.view_ids[1]);
  EXPECT_TRUE(failed.IsNotFound()) << failed.ToString();
  EXPECT_GT(stale_views(), 0u);
  EXPECT_FALSE(h.q->DrainRefreshes().ok());

  for (auto& [table, schema] : saved) table->mutable_schema() = schema;
  ASSERT_TRUE(h.q->RefreshAllViews().ok());
  EXPECT_EQ(stale_views(), 0u);
  for (std::size_t id : h.view_ids) {
    ExpectSameViewState(
        *h.q->ReadView(id).state,
        IndependentSearch(h.q->view(id), h.q->catalog(), h.q->weights()),
        "retry view " + std::to_string(id));
  }

  ASSERT_TRUE(endorse(h.view_ids[2]).ok());
  EXPECT_EQ(stale_views(), 0u);
  EXPECT_TRUE(h.q->DrainRefreshes().ok());
  for (std::size_t id : h.view_ids) {
    ExpectSameViewState(
        *h.q->ReadView(id).state,
        IndependentSearch(h.q->view(id), h.q->catalog(), h.q->weights()),
        "retried view " + std::to_string(id));
  }
}

// RefreshAllViews and RunInitialAlignment each run a round: with views
// open and QueryView readers running, both return (no deadlock) and no
// reader fails. The weight nudge gives the first one repairs to run. The re-run alignment's own votes repeat and
// change nothing, so one new association pair, added just before it,
// makes its round rebuild every view.
TEST(ServeConcurrencyTest, SynchronousFullRefreshesRaceQueryReaders) {
  Harness h(/*async=*/false);
  const match::AlignmentCandidate pair{
      relational::AttributeId{"go", "go_term", "definition"},
      relational::AttributeId{"interpro", "entry", "created"}, 0.5, "test"};
  {
    const graph::SearchGraph& g = h.q->search_graph();
    const auto a = g.FindAttributeNode(pair.a);
    const auto b = g.FindAttributeNode(pair.b);
    ASSERT_TRUE(a.has_value() && b.has_value());
    ASSERT_FALSE(g.FindAssociation(*a, *b).has_value());
  }
  std::atomic<bool> done{false};
  std::atomic<std::size_t> reads{0};
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kQueryReaders; ++r) {
    readers.emplace_back([&, r] {
      util::Rng rng(9700 + r);
      while (!done.load(std::memory_order_acquire)) {
        const std::size_t id = h.view_ids[rng.Uniform(h.view_ids.size())];
        const util::Result<query::ViewSnapshot> got = h.q->QueryView(id);
        if (!got.ok()) {
          failures.fetch_add(1);
          continue;
        }
        ExpectInternallyConsistent(*got, "view " + std::to_string(id));
        reads.fetch_add(1);
      }
    });
  }
  const RefreshEngineStats before = h.q->refresh_engine().stats();
  h.q->mutable_weights().Nudge(graph::FeatureSpace::kDefaultFeature, 0.05);
  const util::Status refreshed = h.q->RefreshAllViews();
  const util::Status associated = h.q->AddAssociations({pair});
  const util::Status aligned = h.q->RunInitialAlignment();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  ASSERT_TRUE(refreshed.ok()) << refreshed.ToString();
  ASSERT_TRUE(associated.ok()) << associated.ToString();
  ASSERT_TRUE(aligned.ok()) << aligned.ToString();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  const RefreshEngineStats after = h.q->refresh_engine().stats();
  EXPECT_GE(after.snapshots_recosted - before.snapshots_recosted,
            h.view_ids.size());
  EXPECT_EQ(after.snapshots_built - before.snapshots_built,
            h.view_ids.size());
  for (std::size_t id : h.view_ids) {
    EXPECT_FALSE(h.q->ReadView(id).stale) << "view " << id;
    ExpectSameViewState(
        *h.q->ReadView(id).state,
        IndependentSearch(h.q->view(id), h.q->catalog(), h.q->weights()),
        "refreshed view " + std::to_string(id));
  }
}

}  // namespace
}  // namespace q::core
