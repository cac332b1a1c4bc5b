#include "feedback/simulated_user.h"

#include "steiner/fast_solver.h"

namespace q::feedback {

SimulatedUser::SimulatedUser(std::vector<learn::GoldEdge> gold)
    : gold_(std::move(gold)) {
  for (const learn::GoldEdge& g : gold_) gold_keys_.insert(g.PairKey());
}

bool SimulatedUser::IsGoldConsistent(const query::QueryGraph& qg,
                                     const steiner::SteinerTree& tree) const {
  for (graph::EdgeId eid : tree.edges) {
    const graph::EdgeView e = qg.graph.edge(eid);
    if (e.kind != graph::EdgeKind::kAssociation) continue;
    std::string sa = qg.graph.node(e.u).label;
    std::string sb = qg.graph.node(e.v).label;
    std::string key = sa < sb ? sa + "|" + sb : sb + "|" + sa;
    if (gold_keys_.count(key) == 0) return false;
  }
  return true;
}

std::optional<steiner::SteinerTree> SimulatedUser::PickEndorsedTree(
    const query::QueryGraph& qg,
    const std::vector<steiner::SteinerTree>& trees) const {
  for (const steiner::SteinerTree& t : trees) {
    if (IsGoldConsistent(qg, t)) return t;
  }
  return std::nullopt;
}

namespace {

// Partitions the query graph's association edges into gold and non-gold.
void SplitAssociations(const query::QueryGraph& qg,
                       const std::unordered_set<std::string>& gold_keys,
                       std::vector<graph::EdgeId>* gold,
                       std::vector<graph::EdgeId>* non_gold) {
  for (graph::EdgeId eid :
       qg.graph.EdgesOfKind(graph::EdgeKind::kAssociation)) {
    const graph::EdgeView e = qg.graph.edge(eid);
    std::string sa = qg.graph.node(e.u).label;
    std::string sb = qg.graph.node(e.v).label;
    std::string key = sa < sb ? sa + "|" + sb : sb + "|" + sa;
    (gold_keys.count(key) > 0 ? gold : non_gold)->push_back(eid);
  }
}

}  // namespace

std::optional<steiner::SteinerTree> SimulatedUser::SolveEndorsedTree(
    const query::QueryGraph& qg, const graph::WeightVector& weights) const {
  std::vector<graph::EdgeId> gold;
  std::vector<graph::EdgeId> banned;
  SplitAssociations(qg, gold_keys_, &gold, &banned);
  steiner::FastSteinerEngine engine(qg.graph, weights, /*use_memo=*/false);
  return engine.SolveExact(qg.keyword_nodes, {}, banned);
}

std::optional<steiner::SteinerTree> SimulatedUser::SolveEndorsedJoinTree(
    const query::QueryGraph& qg, const graph::WeightVector& weights) const {
  std::vector<graph::EdgeId> gold;
  std::vector<graph::EdgeId> banned;
  SplitAssociations(qg, gold_keys_, &gold, &banned);
  std::optional<steiner::SteinerTree> best;
  steiner::FastSteinerEngine engine(qg.graph, weights, /*use_memo=*/false);
  // Force each gold association in turn; keep the cheapest proper tree.
  for (graph::EdgeId forced : gold) {
    auto tree = engine.SolveExact(qg.keyword_nodes, {forced}, banned);
    if (!tree.has_value()) continue;
    if (!steiner::IsProperSteinerTree(qg.graph, *tree, qg.keyword_nodes)) {
      continue;  // the forced edge dangles: no natural join path uses it
    }
    if (!best.has_value() || steiner::TreeLess(*tree, *best)) {
      best = std::move(tree);
    }
  }
  return best;
}

std::optional<steiner::SteinerTree> SimulatedUser::SolveIntentTree(
    const query::QueryGraph& qg, const graph::WeightVector& weights) const {
  std::vector<graph::EdgeId> gold;
  std::vector<graph::EdgeId> banned;
  SplitAssociations(qg, gold_keys_, &gold, &banned);
  // Pin each keyword to its best (cheapest) match by banning the rest.
  for (graph::NodeId kw : qg.keyword_nodes) {
    graph::EdgeId best = graph::kInvalidEdge;
    double best_cost = 0.0;
    for (graph::EdgeId eid : qg.graph.edges_of(kw)) {
      if (qg.graph.edge(eid).kind != graph::EdgeKind::kKeywordMatch) {
        continue;
      }
      double cost = qg.graph.EdgeCost(eid, weights);
      if (best == graph::kInvalidEdge || cost < best_cost) {
        best = eid;
        best_cost = cost;
      }
    }
    for (graph::EdgeId eid : qg.graph.edges_of(kw)) {
      if (eid != best &&
          qg.graph.edge(eid).kind == graph::EdgeKind::kKeywordMatch) {
        banned.push_back(eid);
      }
    }
  }
  steiner::FastSteinerEngine engine(qg.graph, weights, /*use_memo=*/false);
  auto tree = engine.SolveExact(qg.keyword_nodes, {}, banned);
  if (!tree.has_value() ||
      !steiner::IsProperSteinerTree(qg.graph, *tree, qg.keyword_nodes)) {
    return std::nullopt;
  }
  return tree;
}

std::optional<steiner::SteinerTree> SimulatedUser::EndorseForLearning(
    const query::QueryGraph& qg,
    const std::vector<steiner::SteinerTree>& trees,
    const graph::WeightVector& weights) const {
  // 0. The query's intended answer, if its intent relations connect
  //    through gold edges.
  if (auto intent = SolveIntentTree(qg, weights); intent.has_value()) {
    return intent;
  }
  // 1. Cheapest gold-consistent top-k tree that actually joins.
  for (const steiner::SteinerTree& t : trees) {
    if (!IsGoldConsistent(qg, t)) continue;
    for (graph::EdgeId e : t.edges) {
      if (qg.graph.edge(e).kind == graph::EdgeKind::kAssociation) {
        return t;
      }
    }
  }
  // 2. The integration answer the expert knows exists.
  if (auto solved = SolveEndorsedJoinTree(qg, weights);
      solved.has_value()) {
    return solved;
  }
  // 3. Any gold-consistent answer (possibly association-free).
  return PickEndorsedTree(qg, trees);
}

}  // namespace q::feedback
