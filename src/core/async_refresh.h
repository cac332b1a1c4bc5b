#ifndef Q_CORE_ASYNC_REFRESH_H_
#define Q_CORE_ASYNC_REFRESH_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/refresh_engine.h"
#include "graph/feature.h"
#include "graph/search_graph.h"
#include "query/view.h"
#include "relational/catalog.h"
#include "text/text_index.h"
#include "util/status.h"
#include "util/task_queue.h"
#include "util/thread_pool.h"

namespace q::core {

// Counters for the refresh rounds (see stats()).
struct AsyncRefreshStats {
  // NotifyBaseChanged calls — one per acknowledged feedback update.
  std::size_t feedback_rounds = 0;
  // Repair tasks submitted to the per-view queue (before coalescing).
  std::size_t repairs_scheduled = 0;
  // Repair bodies that actually executed.
  std::size_t repairs_run = 0;
  // Views a feedback round rebuilt (weight-dependent topology, or a
  // structural delta no structural round reconciled yet).
  std::size_t serial_repairs = 0;
  // NotifyStructuralChange calls — one per acknowledged registration or
  // full refresh (QSystem::RefreshAllViews).
  std::size_t structural_rounds = 0;
  // Always 0: the structural gate it counted is gone. It stays because
  // the benchmark reads it (ROADMAP item 1 drops it).
  std::size_t structural_skips = 0;
  // Views a structural round rebuilt: query graph, engine and searched
  // snapshot built beside the slot and installed whole inside the round,
  // one per rebuilt view whether or not its staging or search succeeded.
  std::size_t structural_rebuilds = 0;
};

// The view-refresh pipeline (docs/query_engine.md, "View refresh"):
// feedback, registrations and full refreshes reach the views through one
// round.
//
//   * The round (the caller's thread): bumps the epoch, classifies every
//     idle view from its revisions (RefreshEngine::ClassifyViewForAsync)
//     and validates the up-to-date ones at the new epoch on the spot.
//     Views whose query graph must be re-expanded are rebuilt beside
//     their slots and installed before the round returns (RebuildViews);
//     views with a weight delta get a repair task queued.
//   * Repair tasks (pool threads, one per affected view): re-cost a copy
//     of the view's CSR snapshot against a frozen copy of the weight
//     vector (the RefreshEngine::ServingWeights copy at the repair's
//     target epoch) and, unless the re-cost moved nothing, search it,
//     install it, publish the new ViewSnapshot and mark the view
//     validated.
//     util::KeyedTaskQueue gives per-view ordering (repairs of one view
//     never overlap or reorder) and coalesces superseded repairs (a
//     pending repair is subsumed by a newer one, since every repair
//     reconciles to the latest state).
//   * Reads (any thread, never blocking): Read() returns the last
//     committed ViewSnapshot tagged with its staleness epoch; WaitFresh
//     optionally blocks until the view reflects every update committed
//     before the call.
//
// The asynchronous mode acknowledges a feedback update when its round
// returns; the synchronous mode is the same round followed by Drain.
//
// Determinism contract: at quiescence (Drain returned, no feedback in
// flight) every view's published output is bit-identical to an
// independent TopKView::Refresh after the same sequence of base-state
// changes — a repair's re-cost reproduces a fresh snapshot's costs and
// skips the search only when no cost moved, and frozen weight copies
// price like the live vector at their revision. No
// intermediate read ever mixes generations: ViewSnapshot is published
// whole (query/view.h), and a view's CSR snapshot, query graph and
// engine are each installed whole after the search over them succeeded.
//
// Threading contract for the owner (QSystem): all base-state mutation
// and every round / TrackView call are serialized by one caller-held lock
// (the feedback lock); structural mutations quiesce the queue first; while
// any repair may be in flight, base state is immutable except the weight
// vector, which only the feedback thread mutates. Read / WaitFresh /
// Drain are safe from any thread at any time.
class AsyncRefreshScheduler {
 public:
  // `engine` must outlive the scheduler. `pool` runs the repair tasks and
  // staged searches; when it is null or `dedicated_threads` > 0 the
  // scheduler owns a pool of max(1, dedicated_threads) workers instead.
  AsyncRefreshScheduler(RefreshEngine* engine, util::ThreadPool* pool,
                        int dedicated_threads,
                        const graph::SearchGraph* base,
                        const relational::Catalog* catalog,
                        const text::TextIndex* index,
                        graph::CostModel* model,
                        const graph::WeightVector* weights);

  // Drains all in-flight repairs.
  ~AsyncRefreshScheduler();

  AsyncRefreshScheduler(const AsyncRefreshScheduler&) = delete;
  AsyncRefreshScheduler& operator=(const AsyncRefreshScheduler&) = delete;

  // Starts tracking engine slot `slot` (serving `view`), considered
  // freshly validated at the current epoch — callers build the view's
  // snapshot before tracking it. Quiescent contexts only.
  void TrackView(std::size_t slot, query::TopKView* view);

  // The feedback ack: one round after a weight update (see the class
  // comment), counted in feedback_rounds; the views it rebuilds count in
  // serial_repairs. The normal feedback loop (pure weight deltas over
  // weight-independent topologies) rebuilds nothing and returns once the
  // repairs are queued. Returns the first staging failure (see
  // NotifyStructuralChange).
  util::Status NotifyBaseChanged();

  // The structural (onboarding) ack: the same round after a
  // registration, or for a full refresh whatever changed, counted in
  // structural_rounds, its rebuilt views in structural_rebuilds. The
  // caller (QSystem) must have quiesced the queue before mutating the
  // base. Every view the change reaches is rebuilt beside its slot and
  // installed before the call returns, so the ack leaves those views
  // fresh. Per view, in slot order (the order features are interned in),
  // the caller's thread copies the base graph and expands the keywords
  // (expansion interns features); then a repair thread builds the engine,
  // searches the staged pair at a weight copy materialized over every
  // feature interned so far, installs query graph, engine and searched
  // snapshot together and validates the view at the round's epoch. While
  // view i+1 is copied and expanded, earlier views' searches run; at most
  // kMaxStagedViews are staged but not installed. Until its install a
  // view's readers read its old published snapshot. A failed search
  // installs nothing (the view reads stale) and is recorded like a failed
  // repair; the next round rebuilds it again. Returns the first staging
  // failure, a keyword that no longer matches (also recorded, with the
  // slot untouched); search failures surface through Drain.
  util::Status NotifyStructuralChange();

  // Epoch-tagged, never-blocking read of the view's last committed
  // output. The returned snapshot stays alive (and internally
  // consistent) for as long as the caller holds it.
  query::ViewResult Read(std::size_t slot) const;

  // Blocks until `slot` reflects every base-state change committed
  // before this call, or `timeout` elapses (false). Returns false
  // immediately once the latest round records a failure (Drain surfaces
  // the status).
  bool WaitFresh(std::size_t slot, std::chrono::milliseconds timeout);

  // Quiesces the repair queue and returns the first failure of the latest
  // round: a staging failure, a failed staged search or a failed repair,
  // including one of an earlier round's repairs still in flight when it
  // began. Views behind a failure stay stale; the next round retries them
  // (their slots never committed).
  util::Status Drain();

  // Quiesce ignoring repair errors — for callers that only need the
  // no-tasks-in-flight guarantee (structural mutations).
  void Quiesce();

  // Current staleness epoch: one tick per round.
  std::uint64_t epoch() const;

  AsyncRefreshStats stats() const;

 private:
  // Staged-but-uninstalled views a round allows at once. A
  // memory bound, independent of the repair thread count: a round's
  // extra memory is at most two staged query graphs and engines, whatever
  // the view count.
  static constexpr std::size_t kMaxStagedViews = 2;

  // The round both Notify* calls run; they differ only in `round_counter`
  // (bumped once) and `rebuild_counter` (bumped per rebuilt view).
  util::Status RunRound(std::size_t AsyncRefreshStats::*round_counter,
                        std::size_t AsyncRefreshStats::*rebuild_counter);

  void RepairOne(std::size_t slot);

  // The round's rebuild of the views in `slots`, staged in slot order,
  // searched and installed. Returns the first staging failure.
  util::Status RebuildViews(const std::vector<std::size_t>& slots,
                            std::size_t AsyncRefreshStats::*rebuild_counter);

  RefreshEngine* engine_;
  std::unique_ptr<util::ThreadPool> owned_pool_;  // when not sharing
  util::ThreadPool* pool_;                        // the pool repairs run on
  const graph::SearchGraph* base_;
  const relational::Catalog* catalog_;
  const text::TextIndex* index_;
  graph::CostModel* model_;
  const graph::WeightVector* weights_;

  // Declared after the pools so it drains before they join.
  util::KeyedTaskQueue queue_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t epoch_ = 0;
  // Frozen copy of *weights_ (ServingWeights) made at the latest epoch;
  // repairs read it instead of the live vector so they never race MIRA
  // updates.
  std::shared_ptr<const graph::WeightVector> frozen_weights_;
  // Per-slot: the view served and the epoch its published output was
  // last validated at.
  std::vector<query::TopKView*> views_;
  std::vector<std::uint64_t> validated_;
  // First failure since the latest round began.
  util::Status repair_error_ = util::Status::OK();
  // Views the running round has staged and not installed yet.
  std::size_t staged_in_flight_ = 0;
  AsyncRefreshStats stats_;
};

}  // namespace q::core

#endif  // Q_CORE_ASYNC_REFRESH_H_
