#ifndef Q_CORE_REFRESH_ENGINE_H_
#define Q_CORE_REFRESH_ENGINE_H_

#include <cstdint>
#include <limits>
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
#include "util/thread_pool.h"

namespace q::core {

// Outcome of testing one coalesced weight delta against a view's
// relevance certificate (see ClassifyDeltaRelevance).
struct RelevanceDecision {
  // The delta provably cannot change the view's output: skip the refresh
  // without touching the snapshot.
  bool skip = false;
  // Some repriced edge lies inside the certificate neighborhood.
  bool touched_certificate = false;
  // Total net cost decrease over edges outside the neighborhood.
  double net_decrease = 0.0;
};

// Applies the certificate's safety rule to a previewed delta (the
// would-be RepricedEdge set from FastSteinerEngine::PreviewDelta): the
// view may be skipped iff no repriced edge is in `cert.edges` and the
// summed decrease is zero (pure increases are always safe — returned
// trees keep bitwise-identical costs and every other tree only gets more
// expensive) or strictly inside `cert.gap` with a small relative margin
// (so no outside tree can reach, or float-tie with, the k-th returned
// cost; a delta landing exactly on the slack boundary falls through).
// `cert.valid` must be checked by the caller. Pure function, exposed for
// the boundary tests in tests/relevance_gating_test.cc.
RelevanceDecision ClassifyDeltaRelevance(
    const steiner::RelevanceCertificate& cert,
    const std::vector<steiner::RepricedEdge>& repriced);

// Outcome of testing one structural delta's attachment set (the
// pre-existing nodes where new topology meets the old graph) against a
// view's structural certificate (see ClassifyStructuralRelevance).
struct StructuralDecision {
  // Every attachment is provably too far from the anchor terminal for
  // any tree using new topology to enter the view's top-k: the
  // registration may skip this view without touching it.
  bool skip = false;
  // Some attachment sits within (or on the float margin of) the
  // reachable threshold kth_cost + net_decrease.
  bool attachment_reachable = false;
};

// Applies the structural certificate's safety rule: any candidate tree
// that uses new topology must walk from the anchor terminal to some
// attachment node over old edges first, so its cost is bounded below by
// the baseline anchor distance of that attachment (alpha_dist inside the
// ball, alpha_radius outside it). The view may skip iff EVERY attachment
// satisfies kth_cost + net_decrease < distance with the same slack
// margins as the weight gate — an attachment landing exactly on the
// boundary falls through (a tie at the k-th cost could re-rank under the
// deterministic tie-break). `net_decrease` is the concurrent weight
// delta's total decrease outside the certificate (0.0 when the weights
// did not move); with fewer than k answers (kth_cost == +inf) only an
// empty attachment set may skip. The caller must have checked
// cert.valid && cert.structural_valid and the keyword-match fingerprint;
// pure function, exposed for the boundary tests in
// tests/onboarding_test.cc.
StructuralDecision ClassifyStructuralRelevance(
    const steiner::RelevanceCertificate& cert,
    const std::vector<graph::NodeId>& attachments, double net_decrease);

// Aggregate counters for observability and the perf benches; cumulative
// over the engine's lifetime.
// sp_cache_entries_retained and sp_cache_entries_dropped always read 0:
// the shortest-path cache they counted is gone. They stay because the
// benchmark reads them.
struct RefreshEngineStats {
  // Full snapshot builds: query-graph re-expansion + CSR extraction (the
  // *rebuild* classification, plus first-touch builds).
  std::size_t snapshots_built = 0;
  // In-place refreshes: CSR re-costed (delta or full), topology kept.
  std::size_t snapshots_recosted = 0;
  // Refreshes that ran no search: nothing moved since the view's last
  // refresh, or the delta provably touched nothing in its snapshot.
  std::size_t refreshes_skipped = 0;
  // Per-view top-k searches actually executed.
  std::size_t searches_run = 0;

  // --- delta-pipeline classification (per view, per refresh) -------------
  // The change journals proved no edge of the view's snapshot moved, so
  // the refresh was skipped with results provably identical (a subset of
  // refreshes_skipped).
  std::size_t views_skipped_delta = 0;
  // Snapshot repriced selectively via CsrGraph::RecostDelta.
  std::size_t views_delta_recost = 0;
  // Snapshot repriced wholesale via CsrGraph::Recost (journal truncated
  // or the delta was dense).
  std::size_t views_full_recost = 0;
  // Edge costs actually moved by delta re-costs.
  std::size_t edges_repriced = 0;

  // --- relevance gate (alpha-neighborhood gating) ------------------------
  // Views skipped because their relevance certificate proved the delta
  // cannot change their top-k output (the kSkippedIrrelevant class): the
  // delta repriced edges, but none inside the certificate neighborhood
  // and any net decrease stayed strictly inside the slack. Unlike
  // views_skipped_delta, the snapshot is deliberately left stale (lazy
  // repair: the journals replay from the same baseline next refresh).
  std::size_t views_skipped_irrelevant = 0;
  // Relevance previews that ran (certificate valid, pure weight delta).
  std::size_t relevance_checks = 0;
  // Previews whose delta touched the certificate or exceeded the slack
  // and therefore fell through to the delta re-cost path.
  std::size_t relevance_fallthroughs = 0;
  // Base-edge mutations propagated into cached query graphs in place of
  // full rebuilds (the kEdgeMutated structural-delta path).
  std::size_t structural_edges_propagated = 0;
  // Always 0 (see the struct comment).
  std::size_t sp_cache_entries_retained = 0;
  std::size_t sp_cache_entries_dropped = 0;

  // --- structural gate (streaming source onboarding) ---------------------
  // Structural-certificate evaluations that ran (eligible slot: clean,
  // refreshed, certificate valid with structural half populated).
  std::size_t structural_gate_checks = 0;
  // Evaluations that fell through to the serial rebuild path (journal
  // truncated or polluted by old-entity mutations, fingerprint moved,
  // attachment contact with the certificate neighborhood, or an
  // attachment inside the reachable threshold).
  std::size_t structural_gate_fallthroughs = 0;
  // Views a registration provably could not affect (the structural
  // kSkippedIrrelevant class): like views_skipped_irrelevant the slot is
  // deliberately left stale, replaying the journals from the same
  // baseline until a delta defeats the certificate.
  std::size_t views_skipped_structural = 0;
};

// Read-only classification of one view against the current base state,
// computed by RefreshEngine::ClassifyViewForAsync on the feedback thread
// so the async scheduler can acknowledge a feedback update before any
// repair work runs (docs/query_engine.md, "Async refresh contract").
enum class AsyncViewClass {
  // Slot revisions match the base state and the view is refreshed:
  // nothing to do, the published output is current.
  kUpToDate,
  // The delta provably cannot change the view's output — either it
  // repriced no edge of the snapshot (the slot is then committed), or the
  // relevance certificate proved it irrelevant (the slot is deliberately
  // left stale, the lazy-repair rule). Either way the published output is
  // valid for the new epoch without a search.
  kValidatedWithoutSearch,
  // A structural delta (new base nodes/edges from source onboarding) was
  // proven irrelevant by the view's structural certificate: every
  // attachment point is provably outside the view's reachable
  // alpha-neighborhood, so a rebuilt-and-researched view would publish
  // bit-identical output. The published output stays valid; the slot is
  // deliberately NOT committed (lazy repair — the journals replay from
  // the same baseline until a delta defeats the certificate).
  kSkippedIrrelevant,
  // A weight-only reconcile is needed and is safe to run as a background
  // repair task (RepairViewAsync): re-cost in place + re-search, no
  // query-graph rebuild, no shared-feature-space mutation.
  kRepair,
  // The view needs the serial path (first-touch build, weight-dependent
  // topology, or a structural/graph delta): repairing it re-expands the
  // query graph, which mutates the shared feature space and the view's
  // cached query graph — unsafe concurrent with other views' searches.
  // The scheduler must quiesce and route it through RefreshView.
  kSerialOnly,
};

// Batched view-refresh substrate (the feedback loop's hot path): owns one
// versioned CSR snapshot per registered view — i.e. per (query-graph
// topology, weight vector) pair — and serves every view's top-k search
// from it.
//
// Change detection is pull-based: SearchGraph and WeightVector carry
// monotone revision counters bumped at every mutation site (feedback's
// MIRA updates bump the weight revision; new-source registration and
// similarity-edge installation bump the graph revision), each paired with
// a bounded delta journal recording *what* moved (FeatureDelta /
// GraphDelta). RefreshAll() compares the revisions each snapshot was
// built against, bumps the engine generation when either moved, and per
// generation classifies every view by reading the journals:
//
//   * rebuild       — topology may have changed (node/edge additions,
//                     node mutations, a truncated structural journal, or
//                     weight-dependent topology): phase 1 re-expands the
//                     view's query graph and re-extracts its CSR;
//   * full re-cost  — unchanged topology but the weight journal was
//                     truncated or the delta was dense: the snapshot is
//                     re-costed wholesale in place (CsrGraph::Recost) and
//                     the engine's subproblem memo moves to a new
//                     generation;
//   * delta re-cost — the weight delta (plus any in-place base-edge
//                     mutations, propagated into the cached query graph
//                     by TopKView::PropagateBaseEdges) maps through the
//                     snapshot's feature->edge postings to a sparse edge
//                     set: only those edges are repriced
//                     (CsrGraph::RecostDelta), and the memo moves to a new
//                     generation when any cost moved;
//   * skip          — nothing moved, or the delta provably repriced no
//                     edge of this view's snapshot: no re-cost, no
//                     search, results provably identical;
//   * skip (irrelevant) — the delta does reprice edges of the snapshot,
//                     but the view's relevance certificate (see
//                     steiner::RelevanceCertificate and
//                     ClassifyDeltaRelevance) proves none of them can
//                     change its top-k output: no edge inside the
//                     certificate neighborhood moved and any net decrease
//                     stays strictly inside the slack. The snapshot is
//                     deliberately left stale — the slot's revisions are
//                     NOT committed, so the journals replay the
//                     accumulated delta from the same baseline on every
//                     later refresh until one finally touches the
//                     certificate (or the journal truncates) and the view
//                     falls through to the re-cost paths (lazy repair).
//
// All classifications produce bit-identical output to N independent
// TopKView::Refresh calls; they only change how much work reproducing it
// costs — proportional to the size of the change, not of the system.
//
// A view whose QueryGraphOptions::association_cost_threshold is finite
// has weight-dependent topology (association edges are pruned by current
// cost), so weight updates degrade to full rebuilds for that view.
//
// Phase 1 runs serially across views (query-graph building interns
// features into the shared FeatureSpace); phase 2 fans the per-view
// searches out across the thread pool when one is provided. Both fan-out
// and snapshot reuse are invisible in the output: batched results are
// bit-identical to N independent TopKView::Refresh calls (the batched
// determinism contract, docs/query_engine.md, enforced by
// tests/refresh_engine_test.cc).
class RefreshEngine {
 public:
  // `pool` (optional) parallelizes phase 2 across views; it never changes
  // results. The engine does not own the pool.
  explicit RefreshEngine(util::ThreadPool* pool = nullptr) : pool_(pool) {}

  void set_pool(util::ThreadPool* pool) { pool_ = pool; }

  // Enables/disables the relevance gate (on by default). Gating never
  // changes results — a skipped view's output is provably identical to a
  // refreshed one — only how much work reproducing them costs; the switch
  // exists for A/B benchmarking (bench_view_refresh) and as an escape
  // hatch.
  void set_relevance_gating(bool enabled) { relevance_gating_ = enabled; }
  bool relevance_gating() const { return relevance_gating_; }

  // Registers a view and reserves its snapshot slot; the snapshot itself
  // is built lazily on the first refresh. The view must outlive the
  // engine (or be unregistered). Returns the slot id.
  std::size_t RegisterView(query::TopKView* view);

  // Drops the most recently registered view's slot (used to roll back a
  // registration whose initial refresh failed).
  void UnregisterLastView();

  std::size_t num_views() const { return slots_.size(); }

  // Refreshes every registered view against the current base state,
  // rebuilding/re-costing each snapshot at most once per generation.
  util::Status RefreshAll(const graph::SearchGraph& base,
                          const relational::Catalog& catalog,
                          const text::TextIndex& index,
                          graph::CostModel* model,
                          const graph::WeightVector& weights);

  // Refreshes one registered view (slot id from RegisterView).
  util::Status RefreshView(std::size_t slot, const graph::SearchGraph& base,
                           const relational::Catalog& catalog,
                           const text::TextIndex& index,
                           graph::CostModel* model,
                           const graph::WeightVector& weights);

  // Runs one keyword search against `slot`'s current serving snapshot and
  // returns the (unpublished) result — the concurrent read path behind
  // QSystem::QueryView. Under serve_mu_ it captures an atomic pair
  // {engine pin, serving weight copy}: the pin freezes the CSR costs for
  // the whole enumeration (mutators copy-on-write) and the weight copy is
  // the frozen vector those costs were last reconciled against, so the
  // search can never mix a new CSR with old weights or vice versa. Any
  // number of SearchView calls may run concurrently with each other and
  // with the in-place repair paths (RepairViewAsync / weight-delta
  // refreshes); the rebuild/structural paths replace slot engines and
  // query graphs and must be excluded by the caller's serving gate
  // (QSystem holds its serve lock exclusively around them).
  // Fails until the slot's first successful refresh has built a snapshot.
  util::Result<query::ViewSnapshot> SearchView(
      std::size_t slot, const relational::Catalog& catalog) const;

  // Snapshot generation: bumped whenever a refresh observes that the
  // graph or weight revision moved. Fresh engines start at 0.
  std::uint64_t generation() const { return generation_; }

  // Counter snapshot (by value: repairs mutate the counters from pool
  // threads, so a reference would race with them).
  RefreshEngineStats stats() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }

  // --- async task decomposition (core::AsyncRefreshScheduler) -------------
  // The scheduler splits RefreshAll's per-view work into a serial
  // classification step (feedback thread, cheap, read-mostly) and
  // per-view repair tasks (pool threads). Calling contract: the caller
  // serializes classification calls, guarantees per-slot exclusivity
  // between a slot's classification and its repair (no repair in flight
  // when classifying it), and keeps the base state immutable while any
  // repair runs. Distinct slots' repairs may run concurrently.

  // Observes the base revisions at the start of one async round (the
  // same generation bookkeeping RefreshAll does internally).
  void BeginAsyncRound(const graph::SearchGraph& base,
                       const graph::WeightVector& weights) {
    ObserveRevisions(base, weights);
  }

  // Classifies `slot` against the base state without running any search.
  // kValidatedWithoutSearch may commit the slot (the delta-proven no-op
  // case); no other class mutates it beyond engine scratch. `index` is
  // the live text index, read (never mutated) to recompute the
  // keyword-match fingerprint when a structural delta is pending.
  AsyncViewClass ClassifyViewForAsync(std::size_t slot,
                                      const graph::SearchGraph& base,
                                      const text::TextIndex& index,
                                      const graph::WeightVector& weights);

  // The synchronous half of one structural (onboarding) repair: rebuilds
  // `slot`'s query graph + CSR snapshot against the current base state
  // (PrepareSlot with rebuilds allowed) WITHOUT running the search, and
  // returns whether a search is still needed. Mutates the shared feature
  // space and replaces the slot engine, so the caller must hold its
  // exclusive serving gate (no SearchView in flight). On `true` the slot
  // is left dirty with its prepared revision recorded, so a subsequent
  // RepairViewAsync — the asynchronous half, running on the keyed task
  // queue — finishes it in place (reconcile + search + commit) without
  // needing the serial path.
  util::Result<bool> PrepareStructuralRepair(std::size_t slot,
                                             const graph::SearchGraph& base,
                                             const text::TextIndex& index,
                                             graph::CostModel* model,
                                             const graph::WeightVector& weights);

  // Brings one view up to date in place — delta or full re-cost of its
  // snapshot plus RunSearch — against `weights`, which is typically the
  // scheduler's frozen copy of the weight vector at the repair's target
  // epoch (value- and journal-identical to the live vector at that
  // revision, immutable afterwards, so repairs never race live MIRA
  // updates). Never rebuilds the query graph and never touches the
  // shared cost model or text index; callers must have classified the
  // slot kRepair (a slot needing the serial path returns an Internal
  // error and stays repairable via RefreshView).
  util::Status RepairViewAsync(std::size_t slot,
                               const graph::SearchGraph& base,
                               const relational::Catalog& catalog,
                               const graph::WeightVector& weights);

 private:
  struct Slot {
    query::TopKView* view = nullptr;
    std::unique_ptr<steiner::FastSteinerEngine> engine;
    // Base-state revisions the snapshot was last reconciled against.
    std::uint64_t graph_revision = 0;
    std::uint64_t weight_revision = 0;
    bool built = false;
    // Snapshot state (CSR costs / cached query graph) was mutated by a
    // PrepareSlot whose search has not yet succeeded (CommitSlot clears
    // this). While set, the delta-proven no-op skip is forbidden: a
    // retry's journal replay finds the already-patched costs and would
    // otherwise commit the view's stale pre-failure results as up to
    // date. The retry must re-run the search instead.
    bool dirty = false;
    // Base revision the cached query graph (and engine topology) was
    // last brought to, even when the rebuild's search has not committed
    // yet (CommitSlot records graph_revision only after a successful
    // search). Only meaningful while `dirty`: a dirty slot whose
    // prepared revision equals the current base revision needs no
    // rebuild/propagation — just reconciliation + search — which lets
    // the async repair path finish a prepared structural rebuild.
    std::uint64_t prepared_graph_revision = 0;
    // Serial of the view certificate produced by the last search this
    // engine committed. The relevance gate requires the view's current
    // certificate to carry this serial: an out-of-band TopKView::Refresh
    // re-stamps the certificate against weights this slot's snapshot was
    // never reconciled with, so its gap is meaningless relative to the
    // snapshot's baseline costs.
    std::uint64_t certificate_serial = 0;
    // Frozen copy of the weight vector the snapshot's CSR costs were last
    // reconciled against, read by SearchView under serve_mu_ together
    // with the engine pin. Deliberately NOT advanced by gate-skipped
    // (stale-by-design) refreshes: the CSR keeps its baseline costs, so
    // serving searches must keep pricing compile/union reads with the
    // matching baseline weights — that is what keeps a concurrent
    // SearchView bit-identical to the view's published snapshot.
    std::shared_ptr<const graph::WeightVector> serving_weights;
  };

  struct PrepareOutcome {
    // The snapshot changed (or may have): the view's search must rerun.
    bool run_search = false;
    // The slot was reconciled in place and proven output-identical (the
    // delta repriced nothing): commit the observed revisions without a
    // search so the work is not redone next refresh.
    bool commit_without_search = false;
  };

  // Outcome of one relevance-gate preview (eligibility is checked by the
  // call sites; the helper only runs for eligible slots).
  enum class GateOutcome {
    kNothingRepriced,  // preview proved the delta reprices nothing here
    kSkip,             // certificate proves the output cannot change
    kFallthrough,      // touched the certificate / slack spent / dense
  };

  // Runs the relevance gate for a clean slot against a coalesced pure
  // weight delta, updating `stats` counters. Shared by PrepareSlot and
  // ClassifyViewForAsync so the two paths can never diverge on what the
  // gate admits.
  GateOutcome RunRelevanceGate(Slot* slot,
                               const graph::WeightVector& weights,
                               const std::vector<graph::FeatureDelta>& deltas,
                               RefreshEngineStats* stats);

  // Structural gate: classifies a pending structural delta against
  // `slot`'s structural certificate (ClassifyViewForAsync's graph-moved
  // branch). Decodes the graph journal window — admissible records are
  // node/edge additions plus mutations of entities added in the same
  // window (AddAssociations re-features freshly added association
  // edges); any mutation of a pre-existing entity, or a truncated
  // journal, defeats the certificate — recomputes the keyword-match
  // fingerprint against `index`, previews any concurrent weight delta
  // through the weight gate for its net decrease, then applies
  // ClassifyStructuralRelevance to the attachment set (with a contact
  // check: an attachment whose old incident edges intersect the
  // certificate neighborhood falls through, since a new edge there can
  // change the ranked union's column folding without moving any cost).
  // Returns kSkippedIrrelevant or kSerialOnly.
  AsyncViewClass ClassifyStructural(Slot* slot,
                                    const graph::SearchGraph& base,
                                    const text::TextIndex& index,
                                    const graph::WeightVector& weights,
                                    RefreshEngineStats* stats);

  // Brings `slot`'s query graph + CSR snapshot up to date with (base,
  // weights), classifying the change as rebuild / full re-cost / delta
  // re-cost / skip from the delta journals (see class comment).
  // Serial-only unless `allow_rebuild` is false (may mutate the model's
  // feature space); with `allow_rebuild` false — the async repair path —
  // any classification that needs the rebuild/structural machinery
  // returns an Internal error instead (and `index`/`model` may be
  // null). `run_gate` lets that path skip the relevance gate when the
  // caller's classification already ran it for this delta (avoiding a
  // duplicate preview and double-counted gate stats). Stat deltas land
  // in `stats` (merged by the caller under stats_mu_, so concurrent
  // repairs don't race). Does NOT commit the
  // observed revisions unless the outcome says so — CommitSlot does, and
  // only after the view's search succeeded, so a failed refresh can
  // never be mistaken for an up-to-date one on the next pass (the
  // snapshot work itself is idempotent and simply redone).
  util::Result<PrepareOutcome> PrepareSlot(Slot* slot,
                                           const graph::SearchGraph& base,
                                           const text::TextIndex* index,
                                           graph::CostModel* model,
                                           const graph::WeightVector& weights,
                                           bool allow_rebuild, bool run_gate,
                                           RefreshEngineStats* stats);

  // Adds `delta`'s counters into stats_ under stats_mu_.
  void MergeStats(const RefreshEngineStats& delta);

  // `searched` marks a commit that followed a successful RunSearch: the
  // view's certificate now describes this slot's snapshot, so its serial
  // is recorded for the relevance gate. Commits without a search leave
  // the recorded serial in place (the snapshot provably did not move, so
  // the previously recorded certificate still matches it).
  void CommitSlot(Slot* slot, const graph::SearchGraph& base,
                  const graph::WeightVector& weights, bool searched);

  // Observes the base revisions, bumping generation() when either moved
  // since the last refresh.
  void ObserveRevisions(const graph::SearchGraph& base,
                        const graph::WeightVector& weights);

  // A frozen copy of `weights` for the serving path, memoized by revision
  // so one refresh round copies the vector at most once no matter how
  // many slots it reconciles. Caller must hold serve_mu_.
  std::shared_ptr<const graph::WeightVector> SnapshotWeightsLocked(
      const graph::WeightVector& weights);

  util::ThreadPool* pool_ = nullptr;
  bool relevance_gating_ = true;
  std::uint64_t generation_ = 0;
  bool observed_any_ = false;
  std::uint64_t last_graph_revision_ = 0;
  std::uint64_t last_weight_revision_ = 0;
  std::vector<Slot> slots_;
  mutable std::mutex stats_mu_;
  RefreshEngineStats stats_;  // guarded by stats_mu_
  // Serving lock: SearchView captures {pin, serving_weights} under it and
  // the repair paths publish {recosted CSR, new serving_weights} under
  // it, so the pair is atomic — a reader can never pin a repriced CSR and
  // then read the pre-repair weights (or vice versa). One engine-level
  // mutex rather than per-slot (slots_ reallocates on RegisterView, and
  // the critical sections are a few pointer copies).
  mutable std::mutex serve_mu_;
  std::shared_ptr<const graph::WeightVector> serving_cache_;
  std::uint64_t serving_cache_revision_ = 0;
};

}  // namespace q::core

#endif  // Q_CORE_REFRESH_ENGINE_H_
