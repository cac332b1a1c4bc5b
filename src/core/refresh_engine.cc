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

RefreshEngineStats RefreshEngine::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void RefreshEngine::MergeStats(const RefreshEngineStats& delta) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.snapshots_built += delta.snapshots_built;
  stats_.snapshots_recosted += delta.snapshots_recosted;
  stats_.refreshes_skipped += delta.refreshes_skipped;
  stats_.searches_run += delta.searches_run;
  stats_.views_skipped_delta += delta.views_skipped_delta;
  stats_.views_full_recost += delta.views_full_recost;
  stats_.edges_repriced += delta.edges_repriced;
}

void RefreshEngine::CommitSlot(Slot* slot, const graph::SearchGraph& base,
                               const graph::WeightVector& weights) {
  slot->graph_revision = base.revision();
  slot->weight_revision = weights.revision();
  slot->built = true;
}

std::shared_ptr<const graph::WeightVector> RefreshEngine::ServingWeights(
    const graph::WeightVector& weights) {
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
  // re-costs a copy and searches it unless the re-cost moved nothing.
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
  // A failed search installs nothing: the next round, finding the graph
  // revision uncommitted, rebuilds the view.
  if (!staged->snapshot.ok()) return;
  Slot* slot = &slots_[staged->slot];
  staged->query_graph =
      slot->view->ReplaceQueryGraph(std::move(staged->query_graph));
  std::swap(slot->engine, staged->engine);
  RefreshEngineStats local;
  ++local.snapshots_built;
  MergeStats(local);
  slot->view->PublishSnapshot(std::move(staged->snapshot).value());
  CommitSlot(slot, base, weights);
}

util::Status RefreshEngine::RepairViewAsync(
    std::size_t slot_id, const graph::SearchGraph& base,
    const relational::Catalog& catalog,
    std::shared_ptr<const graph::WeightVector> weights) {
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
  if (slot.weight_revision == weights->revision() && view.refreshed()) {
    ++local.refreshes_skipped;  // nothing moved at all
    MergeStats(local);
    return util::Status::OK();
  }
  // The cached query graph is bit-identical to what a rebuild would
  // produce (same base revision, same index, same features), so only the
  // snapshot costs may be stale. The installed snapshot is the one the
  // published search ran on, so `moved` compares with that search.
  std::size_t moved = 0;
  steiner::SnapshotPin next =
      slot.engine->Recosted(view.query_graph().graph, *weights, &moved);
  local.edges_repriced += moved;
  if (moved == 0) {
    // No edge of this view's snapshot moved: every downstream read
    // (tree search, compilation, ranked union) prices query-graph
    // edges, so the output is provably identical. Skip the search but
    // commit the reconciled revisions.
    ++local.views_skipped_delta;
    ++local.refreshes_skipped;
    MergeStats(local);
    CommitSlot(&slot, base, *weights);
    return util::Status::OK();
  }
  ++local.snapshots_recosted;
  ++local.views_full_recost;
  ++local.searches_run;
  MergeStats(local);
  Q_ASSIGN_OR_RETURN(query::ViewSnapshot built,
                     view.BuildSearchSnapshot(view.query_graph(), catalog,
                                              *weights, slot.engine.get(),
                                              &next));
  slot.engine->Install(std::move(next));
  view.PublishSnapshot(std::move(built));
  CommitSlot(&slot, base, *weights);
  return util::Status::OK();
}

}  // namespace q::core
