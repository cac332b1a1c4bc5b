#include "core/refresh_engine.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

namespace q::core {
namespace {

// Slack margins for the gap comparison. The gap and the summed decrease
// are both float aggregates computed in different orders than a fresh
// enumeration would use, with error proportional to the *cost*
// magnitudes involved — not to the gap — so a relative margin alone
// would be vacuous for a tiny gap between large costs. The absolute
// margin (comfortably above double resummation error for the cost
// scales this system produces, cf. kMinEdgeCost) covers that; the
// relative one covers large-gap scales. Both only ever convert a
// would-be skip into a fall-through (the safe direction).
constexpr double kSlackRelMargin = 1e-9;
constexpr double kSlackAbsMargin = 1e-9;

}  // namespace

RelevanceDecision ClassifyDeltaRelevance(
    const steiner::RelevanceCertificate& cert,
    const std::vector<steiner::RepricedEdge>& repriced) {
  RelevanceDecision decision;
  for (const steiner::RepricedEdge& r : repriced) {
    if (std::binary_search(cert.edges.begin(), cert.edges.end(), r.edge)) {
      // The edge is in or adjacent to a returned tree (or read by the
      // ranked union): its movement can change tree costs, the
      // enumeration's choices, or column folding. No safety argument.
      decision.touched_certificate = true;
      return decision;
    }
    if (r.new_cost < r.old_cost) {
      decision.net_decrease += r.old_cost - r.new_cost;
    }
  }
  // Pure increases outside the neighborhood are always safe: returned
  // trees keep bitwise-identical costs and every non-returned tree only
  // gets more expensive. Decreases are safe while their total stays
  // strictly inside the slack — any non-returned tree still costs more
  // than the k-th returned one, so the top-k set, order, and costs are
  // unchanged. Exactly-on-the-boundary (and within the float margin)
  // falls through: a tie at the k-th cost could re-rank under the
  // deterministic tie-break.
  decision.skip =
      decision.net_decrease == 0.0 ||
      decision.net_decrease + kSlackAbsMargin <
          cert.gap * (1.0 - kSlackRelMargin);
  return decision;
}

StructuralDecision ClassifyStructuralRelevance(
    const steiner::RelevanceCertificate& cert,
    const std::vector<graph::NodeId>& attachments, double net_decrease) {
  StructuralDecision decision;
  if (attachments.empty()) {
    // New topology nowhere touches the old graph (an isolated new
    // source): no tree over old terminals can use it at any cost.
    decision.skip = true;
    return decision;
  }
  if (!std::isfinite(cert.kth_cost)) {
    // Fewer than k answers: any reachable new tree could enter the
    // top-k, so nothing with attachments may skip.
    decision.attachment_reachable = true;
    return decision;
  }
  // A tree using new topology costs at least the baseline anchor
  // distance of some attachment; concurrent weight decreases outside the
  // certificate can shrink that distance by at most net_decrease, and
  // (because they are outside the certificate) provably leave the k-th
  // returned cost unchanged. Same margins, same safe direction, and the
  // same strict inequality as the weight gate: an attachment landing
  // exactly on the threshold falls through.
  const double threshold = cert.kth_cost + net_decrease;
  for (graph::NodeId a : attachments) {
    auto it =
        std::lower_bound(cert.alpha_nodes.begin(), cert.alpha_nodes.end(), a);
    const double dist =
        (it != cert.alpha_nodes.end() && *it == a)
            ? cert.alpha_dist[static_cast<std::size_t>(
                  it - cert.alpha_nodes.begin())]
            : cert.alpha_radius;
    if (!(threshold + kSlackAbsMargin < dist * (1.0 - kSlackRelMargin))) {
      decision.attachment_reachable = true;
      return decision;
    }
  }
  decision.skip = true;
  return decision;
}

std::size_t RefreshEngine::RegisterView(query::TopKView* view) {
  Slot slot;
  slot.view = view;
  slots_.push_back(std::move(slot));
  return slots_.size() - 1;
}

void RefreshEngine::UnregisterLastView() {
  if (!slots_.empty()) slots_.pop_back();
}

void RefreshEngine::ObserveRevisions(const graph::SearchGraph& base,
                                     const graph::WeightVector& weights) {
  if (!observed_any_ || last_graph_revision_ != base.revision() ||
      last_weight_revision_ != weights.revision()) {
    if (observed_any_) ++generation_;
    observed_any_ = true;
    last_graph_revision_ = base.revision();
    last_weight_revision_ = weights.revision();
  }
}

RefreshEngineStats RefreshEngine::stats() const {
  RefreshEngineStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_;
  }
  std::lock_guard<std::mutex> lock(serve_mu_);
  out.queries_served_committed = queries_served_committed_;
  out.queries_searched = queries_searched_;
  return out;
}

void RefreshEngine::MergeStats(const RefreshEngineStats& delta) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.snapshots_built += delta.snapshots_built;
  stats_.snapshots_recosted += delta.snapshots_recosted;
  stats_.refreshes_skipped += delta.refreshes_skipped;
  stats_.searches_run += delta.searches_run;
  stats_.views_skipped_delta += delta.views_skipped_delta;
  stats_.views_delta_recost += delta.views_delta_recost;
  stats_.views_full_recost += delta.views_full_recost;
  stats_.edges_repriced += delta.edges_repriced;
  stats_.views_skipped_irrelevant += delta.views_skipped_irrelevant;
  stats_.relevance_checks += delta.relevance_checks;
  stats_.relevance_fallthroughs += delta.relevance_fallthroughs;
  stats_.structural_edges_propagated += delta.structural_edges_propagated;
  stats_.structural_gate_checks += delta.structural_gate_checks;
  stats_.structural_gate_fallthroughs += delta.structural_gate_fallthroughs;
  stats_.views_skipped_structural += delta.views_skipped_structural;
}

RefreshEngine::GateOutcome RefreshEngine::RunRelevanceGate(
    Slot* slot, const graph::WeightVector& weights,
    const std::vector<graph::FeatureDelta>& deltas,
    RefreshEngineStats* stats) {
  query::TopKView& view = *slot->view;
  ++stats->relevance_checks;
  // Call-local: the gate runs concurrently from distinct slots' repair
  // tasks, so no engine-level scratch may back it.
  std::vector<steiner::RepricedEdge> preview;
  if (slot->engine->PreviewDelta(view.query_graph().graph, weights, deltas,
                                 &preview)) {
    if (preview.empty()) {
      // Nothing would move: identical to the delta-proven no-op skip, and
      // the snapshot is already reconciled.
      ++stats->views_skipped_delta;
      return GateOutcome::kNothingRepriced;
    }
    RelevanceDecision decision =
        ClassifyDeltaRelevance(view.certificate(), preview);
    if (decision.skip) {
      // Edges of this snapshot did move, but none the output depends on.
      ++stats->views_skipped_irrelevant;
      return GateOutcome::kSkip;
    }
    ++stats->relevance_fallthroughs;
  } else {
    // Dense delta: the preview declined (RecostDelta's threshold), so the
    // view falls through to the wholesale paths. Counted so
    // checks == skips + fallthroughs always holds.
    ++stats->relevance_fallthroughs;
  }
  return GateOutcome::kFallthrough;
}

void RefreshEngine::SwapInRebuild(Slot* slot, StagedRebuild* rebuilt,
                                  const graph::SearchGraph& base,
                                  const graph::WeightVector& weights,
                                  RefreshEngineStats* stats) {
  rebuilt->query_graph =
      slot->view->ReplaceQueryGraph(std::move(rebuilt->query_graph));
  {
    // Rebuilds run under the caller's exclusive serving gate (no
    // SearchView in flight), but publish under serve_mu_ anyway so the
    // engine swap and its matching weight copy stay one atomic unit.
    std::lock_guard<std::mutex> lock(serve_mu_);
    std::swap(slot->engine, rebuilt->engine);
    slot->serving_weights = rebuilt->weights != nullptr
                                ? rebuilt->weights
                                : SnapshotWeightsLocked(weights);
    // The fresh engine restarts at generation 0, and when only the graph
    // moved the weight copy may be the same one: without this clear the
    // stamp would match a snapshot of the old query graph.
    slot->committed.reset();
    slot->committed_weights.reset();
  }
  ++stats->snapshots_built;
  if (rebuilt->snapshot.ok()) {
    slot->view->PublishSnapshot(std::move(rebuilt->snapshot).value());
    CommitSlot(slot, base, weights, /*searched=*/true);
  } else {
    // Unsearched (or the search failed): left dirty with its prepared
    // revision recorded, so a later repair only reconciles and searches.
    slot->dirty = true;
    slot->prepared_graph_revision = base.revision();
  }
}

util::Result<RefreshEngine::PrepareOutcome> RefreshEngine::PrepareSlot(
    Slot* slot, const graph::SearchGraph& base, const text::TextIndex* index,
    graph::CostModel* model, const graph::WeightVector& weights,
    bool allow_rebuild, bool run_gate, RefreshEngineStats* stats) {
  query::TopKView& view = *slot->view;
  const bool graph_moved = !slot->built ||
                           slot->graph_revision != base.revision();
  const bool weights_moved = !slot->built ||
                             slot->weight_revision != weights.revision();
  PrepareOutcome outcome;
  if (!graph_moved && !weights_moved && view.refreshed()) {
    return outcome;  // skip: nothing moved at all
  }

  // Whether a previous PrepareSlot mutated this snapshot without its
  // search succeeding. Mutations made *within this call* are fine for
  // the no-op skip (the proof is exactly that they moved no cost), but a
  // dirty slot's "nothing repriced" only means the failed attempt
  // already patched the snapshot — the view's results still predate it.
  const bool was_dirty = slot->dirty;

  // A finite association-cost threshold makes the query-graph topology a
  // function of the weights (edges are pruned by current cost), so only
  // the infinite-threshold default is eligible for any in-place path —
  // including structural edge propagation, which relies on the query
  // graph copying every base edge id-for-id.
  const bool weight_independent_topology =
      view.config().query_graph.association_cost_threshold ==
      std::numeric_limits<double>::infinity();

  // --- classify the structural delta ------------------------------------
  bool rebuild = !slot->built || !weight_independent_topology;
  // A prepared-but-unsearched slot: an earlier rebuild or propagation
  // whose search failed (a staged rebuild is installed unsearched when its
  // search fails) already brought the cached query graph and engine
  // topology to this exact base revision, so only reconciliation + search
  // remain — work the async repair path can run.
  const bool already_prepared =
      !rebuild && slot->dirty &&
      slot->prepared_graph_revision == base.revision();
  std::vector<graph::EdgeId> mutated_edges;
  if ((rebuild || graph_moved) && !allow_rebuild && !already_prepared) {
    // Async repairs handle pure weight deltas only: a rebuild mutates the
    // shared feature space and a structural propagation mutates the
    // cached query graph other threads may be reading. The scheduler
    // routes these through the serial path instead.
    return util::Status::Internal(
        "view needs the serial refresh path (rebuild or structural delta)");
  }
  if (!rebuild && graph_moved && !already_prepared) {
    std::vector<graph::GraphDelta> graph_deltas;
    if (!base.DeltaSince(slot->graph_revision, &graph_deltas)) {
      rebuild = true;  // journal truncated: assume arbitrary change
    } else {
      for (const graph::GraphDelta& d : graph_deltas) {
        if (d.kind != graph::GraphDeltaKind::kEdgeMutated) {
          // Node/edge additions change what keyword matching can reach,
          // node mutations can change labels/values: re-expand.
          rebuild = true;
          break;
        }
        mutated_edges.push_back(d.id);
      }
    }
    if (!rebuild && !mutated_edges.empty()) {
      std::sort(mutated_edges.begin(), mutated_edges.end());
      mutated_edges.erase(
          std::unique(mutated_edges.begin(), mutated_edges.end()),
          mutated_edges.end());
      // In-place base-edge mutations: patch the cached query graph
      // instead of re-expanding it, then reprice exactly those edges
      // below. The mutated FeatureVecs make the snapshot's feature->edge
      // postings stale, so drop the index (rebuilt from the patched
      // graph on the next delta re-cost).
      if (view.PropagateBaseEdges(base, mutated_edges)) {
        stats->structural_edges_propagated += mutated_edges.size();
        slot->engine->InvalidateFeatureIndex();
        slot->dirty = true;
        slot->prepared_graph_revision = base.revision();
      } else {
        rebuild = true;
      }
    }
  }

  if (rebuild) {
    StagedRebuild rebuilt;
    Q_ASSIGN_OR_RETURN(
        rebuilt.query_graph,
        query::BuildQueryGraph(base, *index, view.keywords(), model, weights,
                               view.config().query_graph));
    rebuilt.engine = std::make_unique<steiner::FastSteinerEngine>(
        rebuilt.query_graph.graph, weights, view.config().top_k.use_sp_cache);
    // Unsearched: the slot is left dirty and the caller runs the search.
    SwapInRebuild(slot, &rebuilt, base, weights, stats);
    outcome.run_search = true;
    return outcome;
  }

  // --- in-place reconciliation over unchanged topology -------------------
  // The cached query graph is now bit-identical to what a rebuild would
  // produce (same base revisions, same index, same features), so skipping
  // the rebuild cannot change the search's input; only the snapshot costs
  // may still be stale.
  std::vector<graph::FeatureDelta> weight_deltas;
  bool have_weight_deltas = true;
  if (weights_moved) {
    have_weight_deltas =
        weights.DeltaSince(slot->weight_revision, &weight_deltas);
    if (have_weight_deltas) graph::CoalesceFeatureDeltas(&weight_deltas);
  }

  // --- relevance gate (alpha-neighborhood gating) -------------------------
  // Before touching the snapshot at all, test whether the view's
  // certificate proves this delta cannot change its output. Eligibility:
  // a pure weight delta (no structural records — a mutated FeatureVec
  // invalidates the certificate's cost baseline in ways the preview
  // cannot see), a clean slot (a dirty one's snapshot no longer equals
  // the baseline the certificate's gap was computed against), and a
  // certificate stamped by the last search this engine committed (an
  // out-of-band refresh re-stamps it against foreign weights).
  if (run_gate && relevance_gating_ && have_weight_deltas && !slot->dirty &&
      mutated_edges.empty() && view.refreshed() &&
      view.certificate().valid &&
      view.certificate().serial == slot->certificate_serial) {
    switch (RunRelevanceGate(slot, weights, weight_deltas, stats)) {
      case GateOutcome::kNothingRepriced:
        // The snapshot is already reconciled, so commit the observed
        // revisions without a search.
        outcome.commit_without_search = true;
        return outcome;
      case GateOutcome::kSkip:
        // Skip without committing: the snapshot keeps its baseline
        // costs, and the next refresh replays the journals from the same
        // revisions (certificate staleness accumulates until a delta
        // touches the neighborhood or the journal truncates).
        return outcome;
      case GateOutcome::kFallthrough:
        break;
    }
  }

  if (have_weight_deltas) {
    steiner::FastSteinerEngine::RecostDeltaOutcome delta;
    {
      // Publish {repriced CSR, matching weight copy} atomically w.r.t.
      // concurrent SearchView captures. When nothing repriced, the CSR is
      // bitwise unchanged and the old serving pair stays valid.
      std::lock_guard<std::mutex> lock(serve_mu_);
      delta = slot->engine->RecostDelta(view.query_graph().graph, weights,
                                        weight_deltas, mutated_edges);
      if (delta.applied && delta.edges_repriced > 0) {
        slot->serving_weights = SnapshotWeightsLocked(weights);
      }
    }
    if (delta.applied) {
      stats->edges_repriced += delta.edges_repriced;
      if (delta.edges_repriced == 0 && !was_dirty) {
        // No edge of this view's snapshot moved: every downstream read
        // (tree search, compilation, ranked union) prices query-graph
        // edges, so the output is provably identical. Skip the search
        // but commit the reconciled revisions (clearing any dirty mark
        // this call set — its mutation is part of what is committed).
        // Forbidden when the slot entered dirty: a previous
        // failed-search attempt already patched the snapshot, so
        // "nothing repriced" does not mean the view's results match it.
        ++stats->views_skipped_delta;
        outcome.commit_without_search = true;
        return outcome;
      }
      if (delta.edges_repriced > 0) {
        ++stats->snapshots_recosted;
        ++stats->views_delta_recost;
        slot->dirty = true;
      }
      outcome.run_search = true;
      return outcome;
    }
  }

  // Weight journal truncated or the delta was dense: re-cost wholesale in
  // place (still no graph copy / text-index matching / CSR extraction).
  {
    std::lock_guard<std::mutex> lock(serve_mu_);
    slot->engine->Recost(view.query_graph().graph, weights);
    slot->serving_weights = SnapshotWeightsLocked(weights);
  }
  ++stats->snapshots_recosted;
  ++stats->views_full_recost;
  slot->dirty = true;
  outcome.run_search = true;
  return outcome;
}

void RefreshEngine::CommitSlot(Slot* slot, const graph::SearchGraph& base,
                               const graph::WeightVector& weights,
                               bool searched) {
  slot->graph_revision = base.revision();
  slot->weight_revision = weights.revision();
  // Conditional so steady-state commits don't write the flag at all:
  // SearchView reads `built` without a lock, which is safe because the
  // only false->true transition happens inside CreateView's exclusive
  // serving gate, before the slot id is ever published to readers.
  if (!slot->built) slot->built = true;
  slot->dirty = false;
  if (!searched) return;
  slot->certificate_serial = slot->view->certificate().serial;
  // The search ran at the slot's current serving pair (nothing moves it
  // between PrepareSlot and this commit), so stamp its snapshot with it.
  // Read before locking: serve_mu_ is never held across state_mu_.
  std::shared_ptr<const query::ViewSnapshot> published =
      slot->view->Snapshot();
  std::lock_guard<std::mutex> lock(serve_mu_);
  slot->committed = std::move(published);
  slot->committed_generation = slot->engine->generation();
  slot->committed_weights = slot->serving_weights;
}

std::shared_ptr<const graph::WeightVector>
RefreshEngine::SnapshotWeightsLocked(const graph::WeightVector& weights) {
  if (serving_cache_ == nullptr ||
      serving_cache_revision_ != weights.revision()) {
    serving_cache_ = std::make_shared<const graph::WeightVector>(weights);
    serving_cache_revision_ = weights.revision();
  }
  return serving_cache_;
}

util::Result<query::ViewSnapshot> RefreshEngine::SearchView(
    std::size_t slot_id, const relational::Catalog& catalog) const {
  if (slot_id >= slots_.size()) {
    return util::Status::InvalidArgument("no such view slot");
  }
  const Slot& slot = slots_[slot_id];
  // `built` flips false->true exactly once, inside the caller's exclusive
  // serving gate (see CommitSlot); `view` and the engine pointer are only
  // replaced under that same gate, so the unlocked reads here are safe.
  if (!slot.built || slot.view == nullptr || slot.engine == nullptr) {
    return util::Status::InvalidArgument("view slot has no snapshot yet");
  }
  std::shared_ptr<const query::ViewSnapshot> committed;
  steiner::SnapshotPin pin;
  std::shared_ptr<const graph::WeightVector> weights;
  {
    // Atomic capture of the serving pair: see serve_mu_. While it equals
    // the committed search's stamp, that search's snapshot is the answer.
    // Otherwise the search below runs lock-free against the frozen {pin,
    // weights} pair — a concurrent repair copies-on-write past the pin
    // and publishes a new pair for later readers without disturbing this
    // one.
    std::lock_guard<std::mutex> lock(serve_mu_);
    if (slot.committed != nullptr &&
        slot.committed_generation == slot.engine->generation() &&
        slot.committed_weights == slot.serving_weights) {
      committed = slot.committed;
      ++queries_served_committed_;
    } else {
      pin = slot.engine->Pin();
      weights = slot.serving_weights;
      ++queries_searched_;
    }
  }
  if (committed != nullptr) {
    // A copy, unpublished like a search result: serials 0.
    query::ViewSnapshot answer = *committed;
    answer.certificate.serial = 0;
    answer.search_serial = 0;
    return answer;
  }
  if (weights == nullptr) {
    return util::Status::Internal("view slot has no serving weights");
  }
  return slot.view->BuildSearchSnapshot(slot.view->query_graph(), catalog,
                                        *weights, slot.engine.get(), &pin);
}

util::Status RefreshEngine::RefreshAll(const graph::SearchGraph& base,
                                       const relational::Catalog& catalog,
                                       const text::TextIndex& index,
                                       graph::CostModel* model,
                                       const graph::WeightVector& weights) {
  ObserveRevisions(base, weights);

  // Phase 1 (serial, in registration order — feature interning follows
  // the same order as N independent refreshes would): reconcile every
  // snapshot with the current base state.
  RefreshEngineStats local;
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    auto prepared = PrepareSlot(&slots_[i], base, &index, model, weights,
                                /*allow_rebuild=*/true, /*run_gate=*/true,
                                &local);
    if (!prepared.ok()) {
      MergeStats(local);
      return prepared.status();
    }
    if (prepared->run_search) {
      pending.push_back(i);
    } else {
      ++local.refreshes_skipped;
      // A delta-proven no-op still reconciled the slot: commit so the
      // journals are not replayed (and the proof redone) next refresh.
      // (Relevance skips deliberately do NOT commit — see PrepareSlot.)
      if (prepared->commit_without_search) {
        CommitSlot(&slots_[i], base, weights, /*searched=*/false);
      }
    }
  }

  // Phase 2: fan the per-view searches out. Each task touches only its
  // own view plus read-only shared state (catalog, weights, its own
  // synchronized enumeration memo), and results land in per-view slots, so
  // the merge is deterministic regardless of scheduling.
  std::vector<util::Status> statuses(pending.size(), util::Status::OK());
  auto run_one = [&](std::size_t j) {
    Slot& slot = slots_[pending[j]];
    statuses[j] = slot.view->RunSearch(catalog, weights, slot.engine.get());
  };
  if (pool_ != nullptr && pending.size() > 1) {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(pending.size());
    for (std::size_t j = 0; j < pending.size(); ++j) {
      tasks.push_back([&run_one, j] { run_one(j); });
    }
    pool_->RunAll(tasks);
  } else {
    for (std::size_t j = 0; j < pending.size(); ++j) run_one(j);
  }
  local.searches_run += pending.size();
  MergeStats(local);
  // Commit only the slots whose search succeeded; failed ones keep their
  // old revisions and are re-prepared (and re-searched) next refresh
  // instead of being skipped as up to date.
  for (std::size_t j = 0; j < pending.size(); ++j) {
    if (statuses[j].ok()) {
      CommitSlot(&slots_[pending[j]], base, weights, /*searched=*/true);
    }
  }
  for (const util::Status& status : statuses) {
    Q_RETURN_NOT_OK(status);
  }
  return util::Status::OK();
}

util::Status RefreshEngine::RefreshView(std::size_t slot_id,
                                        const graph::SearchGraph& base,
                                        const relational::Catalog& catalog,
                                        const text::TextIndex& index,
                                        graph::CostModel* model,
                                        const graph::WeightVector& weights) {
  if (slot_id >= slots_.size()) {
    return util::Status::InvalidArgument("no such view slot");
  }
  ObserveRevisions(base, weights);
  Slot& slot = slots_[slot_id];
  RefreshEngineStats local;
  auto prepared = PrepareSlot(&slot, base, &index, model, weights,
                              /*allow_rebuild=*/true, /*run_gate=*/true,
                              &local);
  if (!prepared.ok()) {
    MergeStats(local);
    return prepared.status();
  }
  if (!prepared->run_search) {
    ++local.refreshes_skipped;
    MergeStats(local);
    if (prepared->commit_without_search) {
      CommitSlot(&slot, base, weights, /*searched=*/false);
    }
    return util::Status::OK();
  }
  ++local.searches_run;
  MergeStats(local);
  Q_RETURN_NOT_OK(slot.view->RunSearch(catalog, weights, slot.engine.get()));
  CommitSlot(&slot, base, weights, /*searched=*/true);
  return util::Status::OK();
}

AsyncViewClass RefreshEngine::ClassifyViewForAsync(
    std::size_t slot_id, const graph::SearchGraph& base,
    const text::TextIndex& index, const graph::WeightVector& weights) {
  Slot& slot = slots_[slot_id];
  query::TopKView& view = *slot.view;
  RefreshEngineStats local;
  AsyncViewClass result;

  const bool weight_independent_topology =
      view.config().query_graph.association_cost_threshold ==
      std::numeric_limits<double>::infinity();
  const bool graph_moved = !slot.built ||
                           slot.graph_revision != base.revision();
  const bool weights_moved = !slot.built ||
                             slot.weight_revision != weights.revision();

  if (!slot.built || !weight_independent_topology) {
    // First-touch build, or topology that depends on the weights: every
    // reconcile re-expands the query graph.
    result = AsyncViewClass::kSerialOnly;
  } else if (!graph_moved && !weights_moved && view.refreshed()) {
    ++local.refreshes_skipped;
    result = AsyncViewClass::kUpToDate;
  } else if (graph_moved) {
    // Structural delta pending. The structural gate can prove a
    // registration irrelevant to this view (kSkippedIrrelevant, no
    // repair at all); everything else — including in-place edge
    // mutations, which patch the cached query graph the feedback thread
    // reads for MIRA updates — needs the serial path.
    result = ClassifyStructural(&slot, base, index, weights, &local);
  } else if (slot.dirty) {
    // A previous repair mutated the snapshot without its search landing;
    // the gate's baseline is gone, but the in-place repair path replays
    // the journals fine.
    result = AsyncViewClass::kRepair;
  } else {
    std::vector<graph::FeatureDelta> deltas;
    if (!weights.DeltaSince(slot.weight_revision, &deltas)) {
      result = AsyncViewClass::kRepair;  // truncated: repair re-costs fully
    } else {
      graph::CoalesceFeatureDeltas(&deltas);
      if (relevance_gating_ && view.refreshed() &&
          view.certificate().valid &&
          view.certificate().serial == slot.certificate_serial) {
        switch (RunRelevanceGate(&slot, weights, deltas, &local)) {
          case GateOutcome::kNothingRepriced:
            // Same rule as the serial paths: a delta-proven no-op commits
            // so the journals are not replayed next round.
            CommitSlot(&slot, base, weights, /*searched=*/false);
            ++local.refreshes_skipped;
            result = AsyncViewClass::kValidatedWithoutSearch;
            break;
          case GateOutcome::kSkip:
            // Lazy repair: no commit, staleness accumulates against the
            // same baseline (see PrepareSlot).
            ++local.refreshes_skipped;
            result = AsyncViewClass::kValidatedWithoutSearch;
            break;
          case GateOutcome::kFallthrough:
            result = AsyncViewClass::kRepair;
            break;
          default:
            Q_CHECK_MSG(false, "unknown relevance gate outcome");
        }
      } else {
        result = AsyncViewClass::kRepair;
      }
    }
  }
  MergeStats(local);
  return result;
}

AsyncViewClass RefreshEngine::ClassifyStructural(
    Slot* slot, const graph::SearchGraph& base, const text::TextIndex& index,
    const graph::WeightVector& weights, RefreshEngineStats* stats) {
  query::TopKView& view = *slot->view;
  const steiner::RelevanceCertificate& cert = view.certificate();
  // Eligibility mirrors the weight gate: a clean, refreshed slot whose
  // certificate (a) is valid with the structural half populated and (b)
  // was stamped by the last search this engine committed. Ineligible
  // slots are not counted as gate checks.
  if (!relevance_gating_ || slot->dirty || !view.refreshed() || !cert.valid ||
      !cert.structural_valid || cert.serial != slot->certificate_serial) {
    return AsyncViewClass::kSerialOnly;
  }
  ++stats->structural_gate_checks;
  const auto fall_through = [stats] {
    ++stats->structural_gate_fallthroughs;
    return AsyncViewClass::kSerialOnly;
  };

  // --- decode the structural window --------------------------------------
  // Admissible records: node/edge additions, plus mutations of entities
  // added in the SAME window (AddAssociations re-features freshly added
  // association edges via ReconcileMissingMatcherFeatures; journal
  // records are chronological, so an admissible mutated id has already
  // been collected). Any mutation of a pre-existing node or edge can
  // change labels, value text, or certificate-baseline costs in ways
  // this gate cannot bound: fall through.
  std::vector<graph::GraphDelta> graph_deltas;
  if (!base.DeltaSince(slot->graph_revision, &graph_deltas)) {
    return fall_through();
  }
  std::vector<std::uint32_t> added_nodes;
  std::vector<std::uint32_t> added_edges;
  for (const graph::GraphDelta& d : graph_deltas) {
    switch (d.kind) {
      case graph::GraphDeltaKind::kNodeAdded:
        added_nodes.push_back(d.id);  // ids are assigned in order: sorted
        break;
      case graph::GraphDeltaKind::kEdgeAdded:
        added_edges.push_back(d.id);
        break;
      case graph::GraphDeltaKind::kNodeMutated:
        if (!std::binary_search(added_nodes.begin(), added_nodes.end(),
                                d.id)) {
          return fall_through();
        }
        break;
      case graph::GraphDeltaKind::kEdgeMutated:
        if (!std::binary_search(added_edges.begin(), added_edges.end(),
                                d.id)) {
          return fall_through();
        }
        break;
    }
  }

  // --- keyword-match fingerprint ------------------------------------------
  // TF-IDF is corpus-wide, so a registration can move existing match
  // scores (idf shifts with the document count) or admit new matches.
  // Exact equality proves a rebuilt query graph would be the old one
  // plus the new base nodes/edges only.
  if (query::KeywordMatchFingerprint(index, view.keywords(),
                                     view.config().query_graph) !=
      cert.keyword_fingerprint) {
    return fall_through();
  }

  // --- concurrent weight delta --------------------------------------------
  // Any weight movement since the slot's baseline must itself pass the
  // weight gate (so old trees and the k-th cost are provably unchanged);
  // its net decrease then widens the structural threshold below.
  double net_decrease = 0.0;
  if (slot->weight_revision != weights.revision()) {
    std::vector<graph::FeatureDelta> weight_deltas;
    if (!weights.DeltaSince(slot->weight_revision, &weight_deltas)) {
      return fall_through();
    }
    graph::CoalesceFeatureDeltas(&weight_deltas);
    std::vector<steiner::RepricedEdge> preview;
    if (!slot->engine->PreviewDelta(view.query_graph().graph, weights,
                                    weight_deltas, &preview)) {
      return fall_through();
    }
    RelevanceDecision weight_decision = ClassifyDeltaRelevance(cert, preview);
    if (!weight_decision.skip) return fall_through();
    net_decrease = weight_decision.net_decrease;
  }

  // --- attachment set -----------------------------------------------------
  // Old endpoints of new edges: where new topology meets the graph the
  // certificate describes. Base node ids are preserved id-for-id in the
  // cached query graph (infinite association threshold), so attachments
  // live in both id spaces.
  std::vector<graph::NodeId> attachments;
  for (std::uint32_t e : added_edges) {
    const graph::EdgeView edge = base.edge(e);
    if (!std::binary_search(added_nodes.begin(), added_nodes.end(), edge.u)) {
      attachments.push_back(edge.u);
    }
    if (!std::binary_search(added_nodes.begin(), added_nodes.end(), edge.v)) {
      attachments.push_back(edge.v);
    }
  }
  std::sort(attachments.begin(), attachments.end());
  attachments.erase(std::unique(attachments.begin(), attachments.end()),
                    attachments.end());

  // Contact check: a new edge incident to a node of the certificate
  // neighborhood can change the ranked union's column folding
  // (FindCompatibleColumn walks edges incident to select-list
  // attributes) without moving any cost, so distance alone is not a
  // safety argument there. Every neighborhood node has at least one old
  // incident edge in cert.edges, so intersecting each attachment's old
  // incident edges against the certificate detects contact exactly.
  const graph::SearchGraph& old_query_graph = view.query_graph().graph;
  for (graph::NodeId a : attachments) {
    if (a >= old_query_graph.num_nodes()) return fall_through();
    for (graph::EdgeId e : old_query_graph.edges_of(a)) {
      if (std::binary_search(cert.edges.begin(), cert.edges.end(), e)) {
        return fall_through();
      }
    }
  }

  StructuralDecision decision =
      ClassifyStructuralRelevance(cert, attachments, net_decrease);
  if (!decision.skip) return fall_through();
  // Lazy repair, like the weight gate's kSkip: no commit, the journals
  // replay from the same baseline until a delta defeats the certificate
  // (or the serial quiescence path rebuilds the slot).
  ++stats->views_skipped_structural;
  ++stats->refreshes_skipped;
  return AsyncViewClass::kSkippedIrrelevant;
}

RefreshEngine::StagedRebuild RefreshEngine::StageRebuild(
    std::size_t slot_id, const graph::SearchGraph& base,
    const graph::WeightVector& weights) const {
  Q_CHECK(slot_id < slots_.size());
  StagedRebuild staged;
  staged.slot = slot_id;
  staged.query_graph = query::CopyBaseGraph(
      base, weights, slots_[slot_id].view->config().query_graph);
  return staged;
}

util::Status RefreshEngine::ExpandStaged(StagedRebuild* staged,
                                         const text::TextIndex& index,
                                         graph::CostModel* model) const {
  const query::TopKView& view = *slots_[staged->slot].view;
  return query::ExpandKeywords(index, view.keywords(), model,
                               view.config().query_graph,
                               &staged->query_graph);
}

void RefreshEngine::SearchStaged(StagedRebuild* staged,
                                 const relational::Catalog& catalog) {
  Q_CHECK(staged->weights != nullptr);
  // slots_ does not grow while a round runs (views are registered under
  // the owner's feedback lock), and the view's keywords and config never
  // change, so this reads nothing the writer or a reader mutates.
  const query::TopKView& view = *slots_[staged->slot].view;
  staged->engine = std::make_unique<steiner::FastSteinerEngine>(
      staged->query_graph.graph, *staged->weights,
      view.config().top_k.use_sp_cache);
  staged->snapshot =
      view.BuildSearchSnapshot(staged->query_graph, catalog, *staged->weights,
                               staged->engine.get(), /*pin=*/nullptr);
  RefreshEngineStats local;
  ++local.searches_run;
  MergeStats(local);
}

void RefreshEngine::InstallStaged(StagedRebuild* staged,
                                  const graph::SearchGraph& base,
                                  const graph::WeightVector& weights) {
  Q_CHECK(staged->slot < slots_.size() && staged->engine != nullptr);
  RefreshEngineStats local;
  SwapInRebuild(&slots_[staged->slot], staged, base, weights, &local);
  MergeStats(local);
}

util::Status RefreshEngine::RepairViewAsync(std::size_t slot_id,
                                            const graph::SearchGraph& base,
                                            const relational::Catalog& catalog,
                                            const graph::WeightVector& weights) {
  if (slot_id >= slots_.size()) {
    return util::Status::InvalidArgument("no such view slot");
  }
  Slot& slot = slots_[slot_id];
  RefreshEngineStats local;
  // run_gate=false: the scheduler's classification already ran the gate
  // for this delta and decided a repair is needed — re-previewing here
  // would duplicate the work and double-count the gate stats vs sync
  // mode. (Deltas accumulated since classification are simply repaired;
  // the queued search was unavoidable anyway.)
  auto prepared = PrepareSlot(&slot, base, /*index=*/nullptr,
                              /*model=*/nullptr, weights,
                              /*allow_rebuild=*/false, /*run_gate=*/false,
                              &local);
  if (!prepared.ok()) {
    MergeStats(local);
    return prepared.status();
  }
  if (!prepared->run_search) {
    ++local.refreshes_skipped;
    MergeStats(local);
    if (prepared->commit_without_search) {
      CommitSlot(&slot, base, weights, /*searched=*/false);
    }
    return util::Status::OK();
  }
  ++local.searches_run;
  MergeStats(local);
  Q_RETURN_NOT_OK(slot.view->RunSearch(catalog, weights, slot.engine.get()));
  CommitSlot(&slot, base, weights, /*searched=*/true);
  return util::Status::OK();
}

}  // namespace q::core
