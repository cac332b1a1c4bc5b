#include "core/refresh_engine.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

namespace q::core {

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
  stats_.structural_edges_propagated += delta.structural_edges_propagated;
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
    bool allow_rebuild, RefreshEngineStats* stats) {
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
    // Values only: serving searches never read the journal, and copying
    // it would hold serve_mu_ for its length.
    auto copy = std::make_shared<graph::WeightVector>(weights.space());
    copy->Restore(weights.values(), weights.revision(), {});
    serving_cache_ = std::move(copy);
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
                                /*allow_rebuild=*/true, &local);
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
                              /*allow_rebuild=*/true, &local);
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
    const graph::WeightVector& weights) {
  const Slot& slot = slots_[slot_id];
  const query::TopKView& view = *slot.view;
  // First-touch build, topology that depends on the weights, or a
  // structural delta (including in-place edge mutations, which patch the
  // cached query graph the feedback thread reads for MIRA updates): the
  // query graph must be re-expanded or patched, on the serial path.
  if (!slot.built ||
      view.config().query_graph.association_cost_threshold !=
          std::numeric_limits<double>::infinity() ||
      slot.graph_revision != base.revision()) {
    return AsyncViewClass::kSerialOnly;
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
  auto prepared = PrepareSlot(&slot, base, /*index=*/nullptr,
                              /*model=*/nullptr, weights,
                              /*allow_rebuild=*/false, &local);
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
