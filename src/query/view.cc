#include "query/view.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

namespace q::query {

util::Status TopKView::Refresh(const graph::SearchGraph& base,
                               const relational::Catalog& catalog,
                               const text::TextIndex& index,
                               graph::CostModel* model,
                               const graph::WeightVector& weights) {
  Q_RETURN_NOT_OK(RebuildQueryGraph(base, index, model, weights));
  return RunSearch(catalog, weights);
}

util::Status TopKView::RebuildQueryGraph(const graph::SearchGraph& base,
                                         const text::TextIndex& index,
                                         graph::CostModel* model,
                                         const graph::WeightVector& weights) {
  Q_ASSIGN_OR_RETURN(QueryGraph next,
                     BuildQueryGraph(base, index, keywords_, model, weights,
                                     config_.query_graph));
  ReplaceQueryGraph(std::move(next));
  return util::Status::OK();
}

QueryGraph TopKView::ReplaceQueryGraph(QueryGraph next) {
  std::swap(query_graph_, next);
  // The certificate's edge ids refer to the replaced graph; it is rebuilt
  // by the next publication.
  std::lock_guard<std::mutex> lock(state_mu_);
  certificate_.valid = false;
  return next;
}

bool TopKView::PropagateBaseEdges(const graph::SearchGraph& base,
                                  const std::vector<graph::EdgeId>& edges) {
  if (!refreshed()) return false;  // no cached query graph to patch
  // Verify-then-apply in two passes: a failed check must leave the cached
  // graph untouched so the caller's rebuild starts from consistent state.
  for (graph::EdgeId e : edges) {
    if (e >= base.num_edges() || e >= query_graph_.graph.num_edges()) {
      return false;
    }
    const graph::EdgeView src = base.edge(e);
    const graph::EdgeView dst = query_graph_.graph.edge(e);
    if (src.u != dst.u || src.v != dst.v || src.kind != dst.kind ||
        src.fixed_zero != dst.fixed_zero) {
      return false;
    }
  }
  for (graph::EdgeId e : edges) {
    query_graph_.graph.OverwriteEdge(e, base.ExportEdge(e));
  }
  return true;
}

util::Result<ViewSnapshot> TopKView::BuildSearchSnapshot(
    const QueryGraph& query_graph, const relational::Catalog& catalog,
    const graph::WeightVector& weights,
    steiner::FastSteinerEngine* shared_engine,
    const steiner::SnapshotPin* pin) const {
  ViewSnapshot snapshot;
  steiner::RelevanceCertificate& certificate = snapshot.certificate;
  std::vector<steiner::SteinerTree> trees = steiner::TopKSteinerTrees(
      query_graph.graph, weights, query_graph.keyword_nodes,
      config_.top_k, shared_engine, &certificate, pin);
  std::vector<ConjunctiveQuery> queries;
  std::vector<std::vector<relational::Row>> per_query_rows;
  Executor executor(&catalog, config_.executor);
  for (const steiner::SteinerTree& tree : trees) {
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
    queries.push_back(std::move(cq));
  }
  RankedResults results =
      DisjointUnion(query_graph, weights, queries, std::move(per_query_rows),
                    config_.union_similarity_threshold);
  // Augment the search certificate with every edge DisjointUnion's
  // schema-unification prices: all edges incident to each select-list
  // attribute's node (FindCompatibleColumn walks them for association
  // edges under the similarity threshold). Relation-level keyword matches
  // select an attribute whose node need not be in any tree, so tree
  // adjacency alone would miss these reads.
  if (certificate.valid) {
    for (const ConjunctiveQuery& cq : queries) {
      for (const OutputColumn& col : cq.select_list) {
        auto node = query_graph.graph.FindAttributeNode(col.attr);
        if (!node.has_value()) continue;
        const graph::AdjacencyRange incident =
            query_graph.graph.edges_of(*node);
        certificate.edges.insert(certificate.edges.end(), incident.begin(),
                                 incident.end());
      }
    }
    std::sort(certificate.edges.begin(), certificate.edges.end());
    certificate.edges.erase(
        std::unique(certificate.edges.begin(), certificate.edges.end()),
        certificate.edges.end());
    // Structural half: an alpha-neighborhood ball around the first
    // terminal, used by core::ClassifyStructuralRelevance to prove that a
    // newly registered source cannot enter this view's top-k. Any tree
    // using new topology walks from the anchor terminal to an attachment
    // node over old edges first, so its cost is at least the baseline
    // anchor distance recorded here. The 2*kth+1 radius leaves room for
    // the weight-gate's net_decrease before out-of-ball attachments stop
    // skipping.
    certificate.kth_cost =
        trees.size() == static_cast<std::size_t>(config_.top_k.k)
            ? trees.back().cost
            : std::numeric_limits<double>::infinity();
    certificate.keyword_fingerprint = query_graph.keyword_fingerprint;
    certificate.alpha_radius = 0.0;
    if (std::isfinite(certificate.kth_cost) &&
        !query_graph.keyword_nodes.empty()) {
      certificate.alpha_radius = 2.0 * certificate.kth_cost + 1.0;
      graph::DistanceField field;
      query_graph.graph.Dijkstra(
          {{query_graph.keyword_nodes.front(), 0.0}}, weights,
          certificate.alpha_radius, &field);
      certificate.alpha_nodes.assign(field.reached().begin(),
                                     field.reached().end());
      std::sort(certificate.alpha_nodes.begin(), certificate.alpha_nodes.end());
      certificate.alpha_dist.resize(certificate.alpha_nodes.size());
      for (std::size_t i = 0; i < certificate.alpha_nodes.size(); ++i) {
        certificate.alpha_dist[i] = field.At(certificate.alpha_nodes[i]);
      }
    }
    certificate.structural_valid = true;
  }
  snapshot.trees = std::move(trees);
  snapshot.queries = std::move(queries);
  snapshot.results = std::move(results);
  // certificate.serial and search_serial stay 0 (a consistent pair):
  // only publication stamps real serials, under state_mu_.
  return snapshot;
}

util::Status TopKView::RunSearch(const relational::Catalog& catalog,
                                 const graph::WeightVector& weights,
                                 steiner::FastSteinerEngine* shared_engine) {
  // Build into a fresh snapshot and swap on success only: a mid-search
  // failure must not leave trees/queries/results mutually inconsistent
  // (result rows index queries by position — see ApplyInvalidFeedback) —
  // and concurrent readers holding the previous Snapshot() must keep a
  // complete result set until the new one is published whole (the
  // double-buffered half of the async refresh contract).
  Q_ASSIGN_OR_RETURN(ViewSnapshot built,
                     BuildSearchSnapshot(query_graph_, catalog, weights,
                                         shared_engine, /*pin=*/nullptr));
  PublishSnapshot(std::move(built));
  return util::Status::OK();
}

void TopKView::PublishSnapshot(ViewSnapshot built) {
  auto next = std::make_shared<ViewSnapshot>(std::move(built));
  {
    // Serial stamping, certificate publication, and snapshot swap happen
    // in ONE critical section: a reader can never observe a certificate
    // whose serial disagrees with its snapshot's search_serial, nor a
    // serial bump without the matching snapshot.
    std::lock_guard<std::mutex> lock(state_mu_);
    ++certificate_serial_;
    next->certificate.serial = certificate_serial_;
    next->search_serial = certificate_serial_;
    certificate_ = next->certificate;
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
  // concurrent RunSearch publishing the next buffer.
  std::size_t k = static_cast<std::size_t>(config_.top_k.k);
  if (!refreshed()) return std::numeric_limits<double>::infinity();
  std::shared_ptr<const ViewSnapshot> state = Snapshot();
  if (state->results.rows.size() < k) {
    return std::numeric_limits<double>::infinity();
  }
  return state->results.rows[k - 1].cost;
}

}  // namespace q::query
