#include "core/refresh_engine.h"

#include <limits>
#include <utility>

namespace q::core {

namespace {

// A finite association-cost threshold makes the query-graph topology a
// function of the weights (edges are pruned by current cost), so only the
// infinite-threshold default may be re-costed in place.
bool WeightIndependentTopology(const query::TopKView& view) {
  return view.config().query_graph.association_cost_threshold ==
         std::numeric_limits<double>::infinity();
}

}  // namespace

std::size_t RefreshEngine::RegisterView(query::TopKView* view) {
  Slot slot;
  slot.view = view;
  slots_.push_back(std::move(slot));
  return slots_.size() - 1;
}

void RefreshEngine::UnregisterLastView() {
  if (!slots_.empty()) slots_.pop_back();
}

void RefreshEngine::BeginAsyncRound(const graph::SearchGraph& base,
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
  // The search ran at the slot's current serving pair (nothing moves it
  // between the re-cost or install and this commit), so stamp its
  // snapshot with it. Read before locking: serve_mu_ is never held across
  // state_mu_.
  std::shared_ptr<const query::ViewSnapshot> published =
      slot->view->Snapshot();
  std::lock_guard<std::mutex> lock(serve_mu_);
  slot->committed = std::move(published);
  slot->committed_generation = slot->engine->generation();
  slot->committed_weights = slot->serving_weights;
}

std::shared_ptr<const graph::WeightVector> RefreshEngine::ServingWeights(
    const graph::WeightVector& weights) {
  std::lock_guard<std::mutex> lock(serve_mu_);
  return SnapshotWeightsLocked(weights);
}

std::shared_ptr<const graph::WeightVector>
RefreshEngine::SnapshotWeightsLocked(const graph::WeightVector& weights) {
  const std::size_t features = weights.space()->size();
  if (serving_cache_ == nullptr ||
      serving_cache_revision_ != weights.revision() ||
      serving_cache_features_ != features) {
    serving_cache_ =
        std::make_shared<const graph::WeightVector>(weights.Materialized());
    serving_cache_revision_ = weights.revision();
    serving_cache_features_ = features;
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
    answer.search_serial = 0;
    return answer;
  }
  if (weights == nullptr) {
    return util::Status::Internal("view slot has no serving weights");
  }
  return slot.view->BuildSearchSnapshot(slot.view->query_graph(), catalog,
                                        *weights, slot.engine.get(), &pin);
}

AsyncViewClass RefreshEngine::ClassifyViewForAsync(
    std::size_t slot_id, const graph::SearchGraph& base,
    const graph::WeightVector& weights) {
  const Slot& slot = slots_[slot_id];
  const query::TopKView& view = *slot.view;
  // First build, topology that depends on the weights, or a structural
  // delta (in-place edge mutations included): the query graph must be
  // re-expanded.
  if (!slot.built || !WeightIndependentTopology(view) ||
      slot.graph_revision != base.revision()) {
    return AsyncViewClass::kRebuild;
  }
  if (slot.weight_revision == weights.revision() && view.refreshed()) {
    RefreshEngineStats local;
    ++local.refreshes_skipped;
    MergeStats(local);
    return AsyncViewClass::kUpToDate;
  }
  // A weight delta, or a slot whose last repair did not land: the repair
  // re-costs in place and searches unless the re-cost moved nothing.
  return AsyncViewClass::kRepair;
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
  Q_CHECK(staged->slot < slots_.size() && staged->engine != nullptr &&
          staged->weights != nullptr);
  Slot* slot = &slots_[staged->slot];
  staged->query_graph =
      slot->view->ReplaceQueryGraph(std::move(staged->query_graph));
  {
    // Installs run under the caller's exclusive serving gate (no
    // SearchView in flight), but publish under serve_mu_ anyway so the
    // engine swap and its matching weight copy stay one atomic unit.
    std::lock_guard<std::mutex> lock(serve_mu_);
    std::swap(slot->engine, staged->engine);
    slot->serving_weights = staged->weights;
    // The fresh engine restarts at generation 0, and the weight copy may
    // be the very one the old snapshot was stamped with: without this
    // clear the stamp would match a snapshot of the old query graph.
    slot->committed.reset();
    slot->committed_weights.reset();
  }
  RefreshEngineStats local;
  ++local.snapshots_built;
  MergeStats(local);
  if (staged->snapshot.ok()) {
    slot->view->PublishSnapshot(std::move(staged->snapshot).value());
    CommitSlot(slot, base, weights, /*searched=*/true);
  } else {
    // The search failed: SearchView searches the installed graph, and
    // the next round, finding the graph revision uncommitted, rebuilds it.
    slot->dirty = true;
  }
}

util::Status RefreshEngine::RepairViewAsync(std::size_t slot_id,
                                            const graph::SearchGraph& base,
                                            const relational::Catalog& catalog,
                                            const graph::WeightVector& weights) {
  if (slot_id >= slots_.size()) {
    return util::Status::InvalidArgument("no such view slot");
  }
  Slot& slot = slots_[slot_id];
  query::TopKView& view = *slot.view;
  if (!slot.built || !WeightIndependentTopology(view) ||
      slot.graph_revision != base.revision()) {
    return util::Status::Internal("view needs a rebuild, not a repair");
  }
  RefreshEngineStats local;
  const bool weights_moved = slot.weight_revision != weights.revision();
  if (!weights_moved && view.refreshed()) {
    ++local.refreshes_skipped;  // nothing moved at all
    MergeStats(local);
    return util::Status::OK();
  }
  // The cached query graph is bit-identical to what a rebuild would
  // produce (same base revision, same index, same features), so only the
  // snapshot costs may be stale.
  std::vector<graph::FeatureDelta> weight_deltas;
  bool have_weight_deltas = true;
  if (weights_moved) {
    have_weight_deltas =
        weights.DeltaSince(slot.weight_revision, &weight_deltas);
    if (have_weight_deltas) graph::CoalesceFeatureDeltas(&weight_deltas);
  }
  steiner::FastSteinerEngine::RecostDeltaOutcome delta;
  {
    // Publish {repriced CSR, matching weight copy} atomically w.r.t.
    // concurrent SearchView captures. When nothing repriced, the CSR is
    // bitwise unchanged and the old serving pair stays valid. A
    // truncated journal or a dense delta re-costs wholesale in place.
    std::lock_guard<std::mutex> lock(serve_mu_);
    if (have_weight_deltas) {
      delta = slot.engine->RecostDelta(view.query_graph().graph, weights,
                                       weight_deltas);
    }
    if (!delta.applied) {
      slot.engine->Recost(view.query_graph().graph, weights);
    }
    if (!delta.applied || delta.edges_repriced > 0) {
      slot.serving_weights = SnapshotWeightsLocked(weights);
    }
  }
  if (!delta.applied) {
    ++local.snapshots_recosted;
    ++local.views_full_recost;
    slot.dirty = true;
  } else {
    local.edges_repriced += delta.edges_repriced;
    if (delta.edges_repriced > 0) {
      ++local.snapshots_recosted;
      ++local.views_delta_recost;
      slot.dirty = true;
    } else if (!slot.dirty) {
      // No edge of this view's snapshot moved: every downstream read
      // (tree search, compilation, ranked union) prices query-graph
      // edges, so the output is provably identical. Skip the search but
      // commit the reconciled revisions. Forbidden when the slot is
      // dirty: a previous failed-search attempt already patched the
      // snapshot, so "nothing repriced" does not mean the view's results
      // match it.
      ++local.views_skipped_delta;
      ++local.refreshes_skipped;
      MergeStats(local);
      CommitSlot(&slot, base, weights, /*searched=*/false);
      return util::Status::OK();
    }
  }
  ++local.searches_run;
  MergeStats(local);
  Q_RETURN_NOT_OK(view.RunSearch(catalog, weights, slot.engine.get()));
  CommitSlot(&slot, base, weights, /*searched=*/true);
  return util::Status::OK();
}

}  // namespace q::core
