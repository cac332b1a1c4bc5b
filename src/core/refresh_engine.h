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
};

// Read-only classification of one view against the current base state,
// computed by RefreshEngine::ClassifyViewForAsync at the start of a
// refresh round (core::AsyncRefreshScheduler), before any repair work
// runs (docs/query_engine.md, "View refresh").
enum class AsyncViewClass {
  // Slot revisions match the base state: nothing to do, the published
  // output is current.
  kUpToDate,
  // A weight change over unchanged topology: a repair task re-costs a
  // copy of the snapshot and, unless the re-cost moved nothing, searches
  // it and installs it whole (RepairViewAsync). It never touches the query
  // graph or the feature space, so repairs run beside each other and
  // beside readers.
  kRepair,
  // The query graph must be rebuilt: a first build, or any structural
  // delta. The round rebuilds it beside the slot through the staged steps
  // (StagedRebuild).
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
// association installation bump the graph revision). A round classifies
// every view from them:
//
//   * up to date    — nothing moved since the view's last refresh;
//   * repair        — a weight change over unchanged topology. The repair
//                     re-costs a copy of the snapshot
//                     (FastSteinerEngine::Recosted); a re-cost that moved
//                     no cost of the view commits without a search;
//   * rebuild       — the query graph may have changed (any graph
//                     mutation, including in-place edge mutations): the
//                     view is rebuilt and searched beside its slot and
//                     installed whole.
//
// Every path produces output bit-identical to an independent
// TopKView::Refresh of the view (the determinism contract,
// docs/query_engine.md, enforced by tests/refresh_engine_test.cc); the
// classes only change how much work reproducing it costs. Both searching
// paths build beside the slot and install whole: a failed search
// installs nothing, so the view keeps its published snapshot (readers
// read only that) and the next round retries it.
class RefreshEngine {
 public:
  // Registers a view and reserves its snapshot slot; the caller builds the
  // snapshot through the staged steps below. The view must outlive the
  // engine (or be unregistered). Returns the slot id.
  std::size_t RegisterView(query::TopKView* view);

  // Drops the most recently registered view's slot (used to roll back a
  // registration whose first build failed).
  void UnregisterLastView();

  // Counter snapshot (by value: repairs mutate the counters from pool
  // threads, so a reference would race with them).
  RefreshEngineStats stats() const;

  // A priced copy of `weights` (graph::WeightVector::Materialized),
  // memoized by revision and feature-space size, so a round copies the
  // vector once per size no matter how many views it prices, and a search
  // beside a later view's Stage never falls through to the feature
  // space. Reads the feature space: not concurrent with interning. Callers
  // serialize (the owner's feedback lock).
  std::shared_ptr<const graph::WeightVector> ServingWeights(
      const graph::WeightVector& weights);

  // --- one refresh round (core::AsyncRefreshScheduler) --------------------
  // Calling contract: the caller serializes rounds, guarantees per-slot
  // exclusivity between a slot's classification and its repair (no
  // repair in flight when classifying it), and keeps the base state
  // immutable while any repair runs. Distinct slots' repairs may run
  // concurrently.

  // Classifies `slot` against the base state from its revisions alone,
  // without touching its snapshot (see AsyncViewClass).
  AsyncViewClass ClassifyViewForAsync(std::size_t slot,
                                      const graph::SearchGraph& base,
                                      const graph::WeightVector& weights);

  // Brings one view up to date against `weights`, the scheduler's
  // ServingWeights copy at the repair's target epoch (immutable, so
  // repairs never race live MIRA updates): re-costs a copy of the slot's
  // snapshot with no lock held, commits without a search when no cost
  // moved, and otherwise searches the copy, then installs it, publishes
  // the search and commits. Never touches the query graph, the shared cost
  // model or the text index. A slot classified kRebuild returns an
  // Internal error. A failed search installs and commits nothing: the
  // view keeps its published snapshot and the next round repairs it from
  // the installed one again.
  util::Status RepairViewAsync(
      std::size_t slot, const graph::SearchGraph& base,
      const relational::Catalog& catalog,
      std::shared_ptr<const graph::WeightVector> weights);

  // --- staged rebuild ------------------------------------------------------
  // A view is built, and rebuilt, beside its slot and installed whole, so
  // readers keep reading the view's published snapshot until the install,
  // and the rebuilt one right after it. The steps, in the order a round
  // (or QSystem::CreateView) runs them:
  //
  //   1. Stage (the owner's writer thread): builds the query graph,
  //      interning its match features. Views stage in slot order.
  //   2. SearchStaged (any thread): builds the staged engine and searches
  //      the staged pair.
  //   3. InstallStaged: swaps query graph, engine and searched snapshot in
  //      together, or installs nothing when the search failed.
  struct StagedRebuild {
    std::size_t slot = 0;
    query::QueryGraph query_graph;
    // The weights the staged engine and search price with: ServingWeights()
    // of the live vector, a copy materialized over every feature interned
    // so far, because the search may run while a later view's Stage grows
    // the feature space, which an unset id's initial-weight fallback
    // would read.
    std::shared_ptr<const graph::WeightVector> weights;
    std::unique_ptr<steiner::FastSteinerEngine> engine;
    // Step 2's outcome. An error installs nothing: the slot keeps its
    // query graph, engine and published snapshot, and the next round
    // rebuilds it.
    util::Result<query::ViewSnapshot> snapshot =
        util::Status::Internal("staged rebuild not searched");
  };

  // Step 1: a staged rebuild of `slot` holding its view's query graph over
  // `base` (query::BuildQueryGraph against `index`) and ServingWeights of
  // `weights`. Interns the match features into `model`'s feature space, so
  // it runs on the owner's writer thread. Fails, touching no slot, when a
  // keyword matches nothing.
  util::Result<StagedRebuild> Stage(std::size_t slot,
                                    const graph::SearchGraph& base,
                                    const text::TextIndex& index,
                                    graph::CostModel* model,
                                    const graph::WeightVector& weights);

  // Step 2: builds the staged engine at staged->weights and searches the
  // staged pair into staged->snapshot. Touches no slot state, the feature
  // space or the text index, so it may run on a repair thread beside
  // another view's step 1.
  void SearchStaged(StagedRebuild* staged, const relational::Catalog& catalog);

  // Step 3: when the staged search succeeded, makes the staged query graph
  // and engine the slot's, publishes the staged snapshot and commits the
  // slot at (base, weights); the replaced query graph and engine are left
  // in `*staged`. A failed search installs nothing.
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
  };

  // Adds `delta`'s counters into stats_ under stats_mu_.
  void MergeStats(const RefreshEngineStats& delta);

  // Records `slot` reconciled with (base, weights).
  void CommitSlot(Slot* slot, const graph::SearchGraph& base,
                  const graph::WeightVector& weights);

  std::vector<Slot> slots_;
  mutable std::mutex stats_mu_;
  RefreshEngineStats stats_;  // guarded by stats_mu_
  // ServingWeights' memo.
  std::shared_ptr<const graph::WeightVector> serving_cache_;
  std::uint64_t serving_cache_revision_ = 0;
  std::size_t serving_cache_features_ = 0;
};

}  // namespace q::core

#endif  // Q_CORE_REFRESH_ENGINE_H_
