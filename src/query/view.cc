#include "query/view.h"

#include <limits>
#include <utility>
#include <vector>

namespace q::query {

util::Status TopKView::Refresh(const graph::SearchGraph& base,
                               const relational::Catalog& catalog,
                               const text::TextIndex& index,
                               graph::CostModel* model,
                               const graph::WeightVector& weights) {
  Q_ASSIGN_OR_RETURN(query_graph_, BuildQueryGraph(base, index, keywords_,
                                                   model, config_.query_graph));
  // Build into a fresh snapshot and publish on success only: a mid-search
  // failure must not leave trees/queries/results mutually inconsistent
  // (result rows index queries by position — see ApplyInvalidFeedback).
  Q_ASSIGN_OR_RETURN(ViewSnapshot built,
                     BuildSearchSnapshot(query_graph_, catalog, weights,
                                         /*shared_engine=*/nullptr,
                                         /*pin=*/nullptr));
  PublishSnapshot(std::move(built));
  return util::Status::OK();
}

QueryGraph TopKView::ReplaceQueryGraph(QueryGraph next) {
  std::swap(query_graph_, next);
  return next;
}

util::Result<ViewSnapshot> TopKView::BuildSearchSnapshot(
    const QueryGraph& query_graph, const relational::Catalog& catalog,
    const graph::WeightVector& weights,
    steiner::FastSteinerEngine* shared_engine,
    const steiner::SnapshotPin* pin) const {
  ViewSnapshot snapshot;
  snapshot.trees = steiner::TopKSteinerTrees(
      query_graph.graph, weights, query_graph.keyword_nodes, config_.top_k,
      shared_engine, /*certificate=*/nullptr, pin);
  std::vector<std::vector<relational::Row>> per_query_rows;
  Executor executor(&catalog, config_.executor);
  for (const steiner::SteinerTree& tree : snapshot.trees) {
    Q_ASSIGN_OR_RETURN(ConjunctiveQuery cq,
                       CompileTree(query_graph, tree, weights));
    auto rows = executor.Execute(cq);
    if (!rows.ok()) {
      // Row-limit overruns degrade gracefully to an empty branch; other
      // errors propagate.
      if (!rows.status().IsOutOfRange()) return rows.status();
      per_query_rows.emplace_back();
    } else {
      per_query_rows.push_back(std::move(rows).value());
    }
    snapshot.queries.push_back(std::move(cq));
  }
  snapshot.results = DisjointUnion(query_graph, weights, snapshot.queries,
                                   std::move(per_query_rows),
                                   config_.union_similarity_threshold);
  // search_serial stays 0: only publication stamps it, under state_mu_.
  return snapshot;
}

void TopKView::PublishSnapshot(ViewSnapshot built) {
  auto next = std::make_shared<ViewSnapshot>(std::move(built));
  {
    // Serial stamping and snapshot swap happen in ONE critical section: a
    // reader can never observe a serial bump without the matching
    // snapshot.
    std::lock_guard<std::mutex> lock(state_mu_);
    next->search_serial = ++search_serial_;
    state_ = std::move(next);
  }
  refreshed_.store(true, std::memory_order_release);
}

double TopKView::Alpha() const {
  // Alpha is "the cost of the k-th top-scoring result for the user view"
  // (Sec. 3.3) — the k-th ranked *answer*, not the k-th tree: a view with
  // plenty of cheap answers is hard to break into. With fewer than k
  // answers, any relevant new source could enter the top-k, so nothing
  // may be pruned. Reads through Snapshot() so it is safe against a
  // concurrent PublishSnapshot.
  std::size_t k = static_cast<std::size_t>(config_.top_k.k);
  if (!refreshed()) return std::numeric_limits<double>::infinity();
  std::shared_ptr<const ViewSnapshot> state = Snapshot();
  if (state->results.rows.size() < k) {
    return std::numeric_limits<double>::infinity();
  }
  return state->results.rows[k - 1].cost;
}

}  // namespace q::query
