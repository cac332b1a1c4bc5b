#ifndef Q_CORE_ASYNC_REFRESH_H_
#define Q_CORE_ASYNC_REFRESH_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "core/refresh_engine.h"
#include "graph/feature.h"
#include "graph/search_graph.h"
#include "query/view.h"
#include "relational/catalog.h"
#include "text/text_index.h"
#include "util/shared_mutex.h"
#include "util/status.h"
#include "util/task_queue.h"
#include "util/thread_pool.h"

namespace q::core {

// Counters for the async pipeline (see stats()).
struct AsyncRefreshStats {
  // NotifyBaseChanged calls — one per acknowledged feedback update.
  std::size_t feedback_rounds = 0;
  // Repair tasks submitted to the per-view queue (before coalescing).
  std::size_t repairs_scheduled = 0;
  // Repair bodies that actually executed.
  std::size_t repairs_run = 0;
  // Views routed through the serial path from NotifyBaseChanged (rebuild
  // or structural delta needed — quiesces the queue first).
  std::size_t serial_repairs = 0;
  // SyncBarrier calls (structural changes, explicit full refreshes).
  std::size_t sync_barriers = 0;
  // NotifyStructuralChange calls — one per acknowledged registration /
  // association batch.
  std::size_t structural_rounds = 0;
  // Always 0: the structural gate it counted is gone. It stays because
  // the benchmark reads it (ROADMAP item 1 drops it).
  std::size_t structural_skips = 0;
  // Views a structural round rebuilt: query graph, engine and searched
  // snapshot built beside the serving slot and installed whole inside the
  // ack (see NotifyStructuralChange), one per rebuilt view whether or not
  // its staging or search succeeded.
  std::size_t structural_rebuilds = 0;
};

// Async view refresh behind the feedback loop (docs/query_engine.md,
// "Async refresh contract").
//
// The synchronous engine repairs every open view before a feedback call
// returns, so one user's correction stalls everyone's queries. This
// scheduler splits that work at the engine's classification boundary:
//
//   * NotifyBaseChanged (the ack path, caller's feedback thread): the
//     journals are already appended; every idle view is classified via
//     RefreshEngine::ClassifyViewForAsync from its revisions — up-to-date
//     views are validated at the new epoch on the spot, views with a
//     weight delta get a repair task queued — and the call returns. Ack
//     latency is classification cost, not search cost.
//   * Repair tasks (pool threads, one per affected view): re-cost the
//     view's CSR snapshot and, unless the re-cost moved nothing, re-run
//     its search against a frozen copy of the weight vector (value- and
//     journal-identical to the live vector at the repair's target epoch),
//     then publish the new ViewSnapshot and mark the view validated.
//     util::KeyedTaskQueue gives per-view
//     ordering (repairs of one view never overlap or reorder) and
//     coalesces superseded repairs (a pending repair is subsumed by a
//     newer one, since every repair reconciles to the latest state).
//   * Reads (any thread, never blocking): Read() returns the last
//     committed ViewSnapshot tagged with its staleness epoch; WaitFresh
//     optionally blocks until the view reflects every update committed
//     before the call.
//
// Determinism contract: at quiescence (Drain/SyncBarrier returned, no
// feedback in flight) every view's published output is bit-identical to
// what the synchronous engine would serve after the same sequence of
// base-state changes — repairs reuse the engine's delta classification
// machinery, whose classes are all output-identical by construction, and
// frozen weight copies equal the live vector at their revision. No
// intermediate read ever mixes generations: ViewSnapshot is published
// whole (query/view.h) and an in-flight search pins its CSR snapshot
// across concurrent re-costs (steiner/fast_solver.h).
//
// Threading contract for the owner (QSystem): all base-state mutation
// and every NotifyBaseChanged / SyncBarrier / TrackView call are
// serialized by one caller-held lock (the feedback lock); while any
// repair may be in flight, base state is immutable except the weight
// vector, which only the feedback thread mutates. Read / WaitFresh /
// Drain are safe from any thread at any time.
class AsyncRefreshScheduler {
 public:
  // `engine` must outlive the scheduler. `pool` runs the repair tasks;
  // when it is null or `dedicated_threads` > 0 the scheduler owns a pool
  // of max(1, dedicated_threads) workers instead. The base-state
  // pointers mirror RefreshEngine::RefreshAll's parameters; `model` and
  // `index` are needed only by the serial path.
  // `serve_gate` (optional) is the owner's reader/writer serving lock
  // (QSystem::serve_mu_): concurrent QueryView readers hold it shared,
  // and the scheduler takes it exclusively around the serial-repair
  // branch of NotifyBaseChanged and around the short steps of a
  // structural round that intern features or replace slot state (see
  // NotifyStructuralChange) — the scheduler paths that rebuild query
  // graphs / replace slot engines while readers could be in flight.
  // SyncBarrier deliberately does NOT take it: its QSystem callers
  // already hold the gate exclusively (it is not recursive).
  AsyncRefreshScheduler(RefreshEngine* engine, util::ThreadPool* pool,
                        int dedicated_threads,
                        const graph::SearchGraph* base,
                        const relational::Catalog* catalog,
                        const text::TextIndex* index,
                        graph::CostModel* model,
                        const graph::WeightVector* weights,
                        util::SharedMutex* serve_gate = nullptr);

  // Drains all in-flight repairs.
  ~AsyncRefreshScheduler();

  AsyncRefreshScheduler(const AsyncRefreshScheduler&) = delete;
  AsyncRefreshScheduler& operator=(const AsyncRefreshScheduler&) = delete;

  // Starts tracking engine slot `slot` (serving `view`), considered
  // freshly validated at the current epoch — callers register views
  // through the engine and refresh them before tracking. Quiescent
  // contexts only (CreateView quiesces first).
  void TrackView(std::size_t slot, query::TopKView* view);

  // The feedback ack: bumps the epoch, freezes the weight vector,
  // classifies every view, validates the unaffected ones, and queues
  // repairs for the rest. Views needing the serial path (rebuilds,
  // structural deltas) are repaired synchronously inside this call after
  // quiescing the queue — the normal feedback loop (pure weight deltas
  // over weight-independent topologies) never takes that branch.
  void NotifyBaseChanged();

  // The structural (onboarding) ack: like NotifyBaseChanged, but for
  // RegisterSource/AddAssociations batches that appended to the graph
  // journal. The caller (QSystem) must have quiesced the queue before
  // mutating the base and must NOT hold the serving gate. Every tracked view
  // is rebuilt beside its slot and installed before the call returns, so the
  // ack leaves every view fresh. Per view, in slot order (the order the
  // synchronous rebuild interns features in): the base graph is copied with
  // no gate held, the keywords are expanded in a short exclusive section
  // (expansion interns features), and a repair thread builds the engine and
  // searches the staged pair at a weight copy materialized over every
  // feature interned so far; a later short exclusive section installs query
  // graph, engine and searched snapshot together and validates the view at
  // the round's epoch. The replaced query graph and engine are freed after
  // the gate is released. While view i+1 is copied, earlier views' searches
  // run; every view whose search has landed is installed in the exclusive
  // section that expands view i+1, so the round takes the gate about once
  // per view, and at most kMaxStagedViews are staged but not installed.
  // Until its install a view keeps serving its committed snapshot at its old
  // pair, so no QueryView waits for a rebuild or searches one. A failed
  // search installs the rebuilt graph and engine unsearched (the slot dirty,
  // QueryView searching it) and is recorded like a failed repair;
  // RefreshAllViews retries it. Returns the first staging failure, a keyword
  // that no longer matches (also recorded sticky, like a failed async
  // repair, with the slot untouched); search failures surface through
  // Drain/SyncBarrier as usual.
  util::Status NotifyStructuralChange();

  // Epoch-tagged, never-blocking read of the view's last committed
  // output. The returned snapshot stays alive (and internally
  // consistent) for as long as the caller holds it.
  query::ViewResult Read(std::size_t slot) const;

  // Blocks until `slot` reflects every base-state change committed
  // before this call, or `timeout` elapses (false). Returns false
  // immediately if a repair failed (Drain/SyncBarrier surface the
  // status).
  bool WaitFresh(std::size_t slot, std::chrono::milliseconds timeout);

  // Quiesces the repair queue and returns the first repair failure since
  // the last successful SyncBarrier (views behind a failed repair stay
  // stale; SyncBarrier retries them synchronously).
  util::Status Drain();

  // Quiesce ignoring repair errors — for callers that only need the
  // no-tasks-in-flight guarantee (structural mutations).
  void Quiesce();

  // Quiesce + synchronous RefreshEngine::RefreshAll + validate all views
  // at a fresh epoch. The recovery and structural-change path: failed
  // async repairs are retried here because their slots never committed.
  util::Status SyncBarrier();

  // Current staleness epoch: one tick per NotifyBaseChanged/SyncBarrier.
  std::uint64_t epoch() const;

  AsyncRefreshStats stats() const;

 private:
  // Staged-but-uninstalled views a structural round allows at once. A
  // memory bound, independent of the repair thread count: a round's
  // extra memory is at most two staged query graphs and engines, whatever
  // the view count.
  static constexpr std::size_t kMaxStagedViews = 2;

  // One view of a structural round between staging and install.
  struct StagedSearch {
    RefreshEngine::StagedRebuild rebuild;
    bool landed = false;  // its search has finished; guarded by mu_
  };

  void RepairOne(std::size_t slot);

  // The serving gate, held exclusively (an empty lock without a gate).
  std::unique_lock<util::SharedMutex> LockServeGate();

  // NotifyStructuralChange's rebuild of the views in `slots`, staged in
  // slot order, searched and installed. Returns the first staging
  // failure.
  util::Status RebuildViews(const std::vector<std::size_t>& slots);

  RefreshEngine* engine_;
  std::unique_ptr<util::ThreadPool> owned_pool_;  // when not sharing
  util::ThreadPool* pool_;                        // the pool repairs run on
  const graph::SearchGraph* base_;
  const relational::Catalog* catalog_;
  const text::TextIndex* index_;
  graph::CostModel* model_;
  const graph::WeightVector* weights_;
  util::SharedMutex* serve_gate_;  // may be null (no concurrent readers)

  // Declared after the pools so it drains before they join.
  util::KeyedTaskQueue queue_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t epoch_ = 0;
  // Frozen copy of *weights_ made at the latest epoch; repairs read it
  // instead of the live vector so they never race MIRA updates.
  std::shared_ptr<const graph::WeightVector> frozen_weights_;
  // Per-slot: the view served and the epoch its published output was
  // last validated at.
  std::vector<query::TopKView*> views_;
  std::vector<std::uint64_t> validated_;
  // First repair failure since the last successful SyncBarrier.
  util::Status repair_error_ = util::Status::OK();
  AsyncRefreshStats stats_;
};

}  // namespace q::core

#endif  // Q_CORE_ASYNC_REFRESH_H_
