#ifndef Q_CORE_REFRESH_ENGINE_H_
#define Q_CORE_REFRESH_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/cost_model.h"
#include "graph/search_graph.h"
#include "query/view.h"
#include "relational/catalog.h"
#include "steiner/fast_solver.h"
#include "text/text_index.h"
#include "util/result.h"
#include "util/status.h"

namespace q::core {

// Aggregate counters for observability and the perf benches; cumulative
// over the engine's lifetime.
// sp_cache_entries_retained, sp_cache_entries_dropped,
// views_skipped_irrelevant, relevance_checks and views_delta_recost
// always read 0: the shortest-path cache, the relevance gate and the
// delta re-cost they counted are gone. They stay because the benchmark
// reads them (ROADMAP item 1 drops them).
struct RefreshEngineStats {
  // Rebuilt views installed (InstallStaged), first builds included.
  std::size_t snapshots_built = 0;
  // In-place refreshes whose re-cost moved a cost, topology kept.
  std::size_t snapshots_recosted = 0;
  // Refreshes that ran no search: nothing moved since the view's last
  // refresh, or the re-cost moved no cost of its snapshot.
  std::size_t refreshes_skipped = 0;
  // Per-view top-k searches actually executed.
  std::size_t searches_run = 0;

  // --- repair classification (per view, per repair) ----------------------
  // The re-cost moved no edge cost of the view's snapshot, so the search
  // was skipped with results provably identical (a subset of
  // refreshes_skipped).
  std::size_t views_skipped_delta = 0;
  // The re-cost moved at least one edge cost, so the view was searched.
  std::size_t views_full_recost = 0;
  // Edge costs the re-costs moved.
  std::size_t edges_repriced = 0;

  // Always 0 (see the struct comment).
  std::size_t views_delta_recost = 0;
  std::size_t views_skipped_irrelevant = 0;
  std::size_t relevance_checks = 0;
  std::size_t sp_cache_entries_retained = 0;
  std::size_t sp_cache_entries_dropped = 0;

  // --- serving path (SearchView, behind QSystem::QueryView) --------------
  // Queries answered from the slot's committed snapshot: the serving pair
  // still equals the one its last committed search ran at.
  std::size_t queries_served_committed = 0;
  // Queries that ran a pinned search: inside a repair window, or after a
  // rebuild whose search has not landed.
  std::size_t queries_searched = 0;
};

// Read-only classification of one view against the current base state,
// computed by RefreshEngine::ClassifyViewForAsync at the start of a
// refresh round (core::AsyncRefreshScheduler), before any repair work
// runs (docs/query_engine.md, "View refresh").
enum class AsyncViewClass {
  // Slot revisions match the base state and the view is refreshed:
  // nothing to do, the published output is current.
  kUpToDate,
  // A weight change over unchanged topology: a repair task re-costs the
  // snapshot in place and re-searches unless the re-cost moved nothing
  // (RepairViewAsync). It never touches the query graph or the feature
  // space, so repairs run beside each other and beside readers.
  kRepair,
  // The query graph must be re-expanded: a first build, topology that
  // depends on the weights, or any structural delta. The round rebuilds
  // it beside the slot through the staged steps (StagedRebuild).
  kRebuild,
};

// View-refresh substrate: owns one versioned CSR snapshot per registered
// view, i.e. per (query-graph topology, weight vector) pair, and serves
// every view's top-k search from it. core::AsyncRefreshScheduler drives
// it one round at a time.
//
// Change detection is pull-based: SearchGraph and WeightVector carry
// monotone revision counters bumped at every mutation site (feedback's
// MIRA updates bump the weight revision; new-source registration and
// association installation bump the graph revision). A round observes
// the revisions (BeginAsyncRound), bumping the engine generation when
// either moved, and classifies every view from them:
//
//   * up to date    — nothing moved since the view's last refresh;
//   * repair        — a weight change over unchanged topology. The repair
//                     re-costs the snapshot in place (CsrGraph::Recost);
//                     a re-cost that moved no cost of the view commits
//                     without a search;
//   * rebuild       — the query graph may have changed (any graph
//                     mutation, including in-place edge mutations, or
//                     weight-dependent topology): the view is rebuilt and
//                     searched beside its slot and installed whole.
//
// Every path produces output bit-identical to an independent
// TopKView::Refresh of the view (the determinism contract,
// docs/query_engine.md, enforced by tests/refresh_engine_test.cc); the
// classes only change how much work reproducing it costs.
//
// A view whose QueryGraphOptions::association_cost_threshold is finite
// has weight-dependent topology (association edges are pruned by current
// cost), so weight updates rebuild that view.
class RefreshEngine {
 public:
  // Registers a view and reserves its snapshot slot; the caller builds the
  // snapshot through the staged steps below. The view must outlive the
  // engine (or be unregistered). Returns the slot id.
  std::size_t RegisterView(query::TopKView* view);

  // Drops the most recently registered view's slot (used to roll back a
  // registration whose first build failed).
  void UnregisterLastView();

  // Answers one keyword search against `slot`'s current serving pair and
  // returns the (unpublished) result, serials 0 — the concurrent read
  // path behind QSystem::QueryView. Under serve_mu_ it reads the serving
  // pair {engine generation, serving weight copy}. While that pair equals
  // the stamp of the slot's last committed search, the answer is a copy
  // of the snapshot that search published: the search is a pure function
  // of the query graph, the CSR costs, the weights, the catalog and the
  // view config, and none of them moves without moving the pair (see
  // Slot::committed). Otherwise — inside a repair window, or after a
  // rebuild whose search failed — it pins the CSR in the same critical
  // section and searches against the frozen pair: the pin freezes the
  // costs for the whole enumeration (mutators copy-on-write) and the
  // weight copy is the vector those costs were last reconciled against,
  // so the search can never mix a new CSR with old weights or vice versa.
  // Any number of SearchView calls may run concurrently with each other
  // and with repairs (RepairViewAsync); installs replace slot engines and
  // query graphs and must be excluded by the caller's serving gate
  // (QSystem holds its serve lock exclusively around them). Fails until
  // the slot's first install.
  util::Result<query::ViewSnapshot> SearchView(
      std::size_t slot, const relational::Catalog& catalog) const;

  // Snapshot generation: bumped whenever a round observes that the graph
  // or weight revision moved. Fresh engines start at 0.
  std::uint64_t generation() const { return generation_; }

  // Counter snapshot (by value: repairs mutate the counters from pool
  // threads, so a reference would race with them).
  RefreshEngineStats stats() const;

  // A priced copy of `weights` (graph::WeightVector::Materialized),
  // memoized by revision and feature-space size, so a round copies the
  // vector once per size no matter how many views it prices, and a served
  // read's WeightVector::At never falls through to the feature space.
  // Reads the feature space: not concurrent with interning.
  std::shared_ptr<const graph::WeightVector> ServingWeights(
      const graph::WeightVector& weights);

  // --- one refresh round (core::AsyncRefreshScheduler) --------------------
  // Calling contract: the caller serializes rounds, guarantees per-slot
  // exclusivity between a slot's classification and its repair (no
  // repair in flight when classifying it), and keeps the base state
  // immutable while any repair runs. Distinct slots' repairs may run
  // concurrently.

  // Observes the base revisions at the start of one round, bumping
  // generation() when either moved since the last round.
  void BeginAsyncRound(const graph::SearchGraph& base,
                       const graph::WeightVector& weights);

  // Classifies `slot` against the base state from its revisions alone,
  // without touching its snapshot (see AsyncViewClass).
  AsyncViewClass ClassifyViewForAsync(std::size_t slot,
                                      const graph::SearchGraph& base,
                                      const graph::WeightVector& weights);

  // Brings one view up to date in place — a re-cost of its snapshot plus
  // RunSearch, skipped when the re-cost moved nothing — against
  // `weights`, the scheduler's ServingWeights copy at the repair's target
  // epoch (immutable, so repairs never race live MIRA updates). A re-cost
  // that moved a cost publishes `weights` as the slot's serving weights.
  // Never touches the query graph, the shared cost model or the text
  // index. A slot classified kRebuild returns an Internal error. A failed
  // search commits nothing: the slot stays dirty and the next round
  // repairs it again.
  util::Status RepairViewAsync(
      std::size_t slot, const graph::SearchGraph& base,
      const relational::Catalog& catalog,
      std::shared_ptr<const graph::WeightVector> weights);

  // --- staged rebuild ------------------------------------------------------
  // A view is built, and rebuilt, beside its slot and installed whole, so
  // readers keep answering from the slot's committed snapshot at its old
  // serving pair until the install, and from the new committed snapshot
  // right after it; no SearchView ever searches a rebuilt view whose
  // search succeeded. The steps, in the order a round (or
  // QSystem::CreateView) runs them:
  //
  //   1. StageRebuild (no gate): copies the base graph.
  //   2. ExpandStaged (exclusive serving gate): expands the keywords,
  //      interning their match features. Views expand in slot order.
  //   3. SearchStaged (any thread): builds the staged engine and searches
  //      the staged pair.
  //   4. InstallStaged (exclusive serving gate): swaps query graph,
  //      engine, serving weights and searched snapshot in together.
  struct StagedRebuild {
    std::size_t slot = 0;
    query::QueryGraph query_graph;
    // The weights the staged engine and search price with, and the
    // slot's serving weights once installed. The caller sets them between
    // steps 2 and 3 to ServingWeights() of the live vector, a copy
    // materialized over every feature interned so far: the search may run
    // while a later view's expansion grows the feature space, which an
    // unset id's initial-weight fallback would read.
    std::shared_ptr<const graph::WeightVector> weights;
    std::unique_ptr<steiner::FastSteinerEngine> engine;
    // Step 3's outcome. An error installs the graph and engine without a
    // snapshot: the slot is left dirty with its committed snapshot
    // cleared, SearchView searches it, and the next round rebuilds it.
    util::Result<query::ViewSnapshot> snapshot =
        util::Status::Internal("staged rebuild not searched");
  };

  // Step 1: a staged rebuild of `slot` holding a copy of `base`. Reads
  // only `base` and `weights` (association-threshold filtering); no
  // serving gate needed.
  StagedRebuild StageRebuild(std::size_t slot, const graph::SearchGraph& base,
                             const graph::WeightVector& weights) const;

  // Step 2: expands the staged graph's keywords against `index`,
  // interning their features into `model`'s feature space, so the caller
  // must hold its exclusive serving gate. On failure (a keyword that
  // matches nothing) drop the staged rebuild: the slot is untouched.
  util::Status ExpandStaged(StagedRebuild* staged,
                            const text::TextIndex& index,
                            graph::CostModel* model) const;

  // Step 3: builds the staged engine at staged->weights and searches the
  // staged pair into staged->snapshot. Touches no slot state, the feature
  // space or the text index, so it may run on a repair thread beside
  // SearchView on the same slot and beside another view's step 2.
  void SearchStaged(StagedRebuild* staged, const relational::Catalog& catalog);

  // Step 4, under the caller's exclusive serving gate: makes the staged
  // query graph and engine the slot's, with staged->weights as its
  // serving weights, then publishes the staged snapshot and commits the
  // slot searched at (base, weights), which stamps the snapshot with the
  // new serving pair. Leaves the replaced query graph and engine in
  // `*staged`, so the caller can free them after releasing the gate.
  void InstallStaged(StagedRebuild* staged, const graph::SearchGraph& base,
                     const graph::WeightVector& weights);

 private:
  struct Slot {
    query::TopKView* view = nullptr;
    std::unique_ptr<steiner::FastSteinerEngine> engine;
    // Base-state revisions the snapshot was last reconciled against.
    std::uint64_t graph_revision = 0;
    std::uint64_t weight_revision = 0;
    bool built = false;
    // Snapshot state (CSR costs, or a whole installed rebuild) changed
    // without a successful search (CommitSlot clears this). While set,
    // the no-op skip is forbidden: a retry's re-cost finds the costs
    // already moved and would otherwise commit the view's stale
    // pre-failure results as up to date. The retry must re-run the
    // search instead.
    bool dirty = false;
    // Frozen copy of the weight values the snapshot's CSR costs were last
    // reconciled against (a ServingWeights copy), read by SearchView
    // under serve_mu_ together with the engine pin, so a serving search
    // prices compile/union reads with the weights its CSR costs came from.
    std::shared_ptr<const graph::WeightVector> serving_weights;
    // The snapshot the last committed search published, stamped with the
    // serving pair that search ran at (engine generation, serving weight
    // copy); SearchView answers from it while the pair is unchanged.
    // Guarded by serve_mu_. Set by CommitSlot(searched=true). Commits
    // without a search keep it: they prove the output unchanged and leave
    // the pair alone. Cleared where an install swaps the engine: the
    // fresh engine restarts at generation 0 and, when neither the weight
    // revision nor the feature space moved, gets the same weight copy, so
    // the stamp would still match a snapshot of the old query graph.
    // Shares the view's published snapshot, so it costs no copy.
    std::shared_ptr<const query::ViewSnapshot> committed;
    std::uint64_t committed_generation = 0;
    std::shared_ptr<const graph::WeightVector> committed_weights;
  };

  // Adds `delta`'s counters into stats_ under stats_mu_.
  void MergeStats(const RefreshEngineStats& delta);

  // Records `slot` reconciled with (base, weights). `searched` marks a
  // commit that followed a successful search: the published snapshot is
  // stamped with the slot's serving pair for SearchView. Commits without
  // a search leave the stamp in place (the snapshot provably did not
  // move, so the stamped snapshot still matches it).
  void CommitSlot(Slot* slot, const graph::SearchGraph& base,
                  const graph::WeightVector& weights, bool searched);

  // ServingWeights' body; caller holds serve_mu_.
  std::shared_ptr<const graph::WeightVector> SnapshotWeightsLocked(
      const graph::WeightVector& weights);

  std::uint64_t generation_ = 0;
  bool observed_any_ = false;
  std::uint64_t last_graph_revision_ = 0;
  std::uint64_t last_weight_revision_ = 0;
  std::vector<Slot> slots_;
  mutable std::mutex stats_mu_;
  RefreshEngineStats stats_;  // guarded by stats_mu_
  // Serving lock: SearchView captures {pin, serving_weights} (or the
  // committed snapshot) under it, and repairs and installs publish
  // {re-costed CSR or new engine, new serving_weights} and the commit
  // stamp under it, so the pair is atomic — a reader can never pin a
  // repriced CSR and then read the pre-repair weights (or vice versa), nor
  // match a stamp against half a pair. One engine-level mutex rather than
  // per-slot (slots_ reallocates on RegisterView, and the critical
  // sections are a few pointer copies). Never held while a view's
  // state_mu_ is taken.
  mutable std::mutex serve_mu_;
  // ServingWeights' memo; guarded by serve_mu_.
  std::shared_ptr<const graph::WeightVector> serving_cache_;
  std::uint64_t serving_cache_revision_ = 0;
  std::size_t serving_cache_features_ = 0;
  // SearchView outcomes, counted inside the critical section SearchView
  // already holds; guarded by serve_mu_.
  mutable std::size_t queries_served_committed_ = 0;
  mutable std::size_t queries_searched_ = 0;
};

}  // namespace q::core

#endif  // Q_CORE_REFRESH_ENGINE_H_
