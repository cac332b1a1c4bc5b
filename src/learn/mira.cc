#include "learn/mira.h"

#include <algorithm>
#include <cmath>

namespace q::learn {
namespace {

struct Constraint {
  graph::FeatureVec x;  // f(T) - f(T_r): require w . x >= loss
  double loss = 0.0;
  double x_norm_sq = 0.0;
  double tau = 0.0;  // dual variable
};

}  // namespace

util::Result<MiraUpdateInfo> MiraLearner::Update(
    const graph::SearchGraph& query_graph,
    const std::vector<graph::NodeId>& terminals,
    const steiner::SteinerTree& target, graph::WeightVector* weights) {
  std::vector<steiner::SteinerTree> best = steiner::TopKSteinerTrees(
      query_graph, *weights, terminals, config_.top_k);
  return UpdateAgainst(query_graph, best, target, weights);
}

util::Result<MiraUpdateInfo> MiraLearner::UpdateAgainst(
    const graph::SearchGraph& query_graph,
    const std::vector<steiner::SteinerTree>& alternatives,
    const steiner::SteinerTree& target, graph::WeightVector* weights) {
  MiraUpdateInfo info;
  // Every weight move of this update goes through here, oldest first, so
  // the update's change set is exactly what it nudged (coalesced below).
  auto nudge = [&](graph::FeatureId id, double delta) {
    const double old_value = weights->At(id);
    const double new_value = old_value + delta;
    weights->Set(id, new_value);
    if (new_value != old_value) {
      info.feature_deltas.push_back({id, old_value, new_value});
    }
  };
  graph::FeatureVec target_features =
      steiner::TreeFeatures(query_graph, target);

  std::vector<Constraint> constraints;
  for (const steiner::SteinerTree& tree : alternatives) {
    double loss = steiner::SymmetricEdgeLoss(target, tree);
    if (loss == 0.0) continue;  // T_r itself: trivially satisfied
    Constraint c;
    c.x = steiner::TreeFeatures(query_graph, tree);
    c.x.AddScaled(target_features, -1.0);
    if (config_.freeze_default_feature) {
      c.x.Remove(graph::FeatureSpace::kDefaultFeature);
    }
    c.loss = loss;
    for (const auto& [id, v] : c.x.entries()) c.x_norm_sq += v * v;
    if (c.x_norm_sq <= 0.0) continue;  // identical feature vectors
    constraints.push_back(std::move(c));
  }
  info.constraints = constraints.size();
  for (const Constraint& c : constraints) {
    if (weights->Dot(c.x) < c.loss) ++info.violated_before;
  }

  // Hildreth's algorithm: cyclic dual coordinate ascent. w is kept
  // implicitly via the weight vector itself (w = w_prev + sum tau_i x_i).
  auto run_hildreth = [&]() {
    for (int pass = 0; pass < config_.max_hildreth_passes; ++pass) {
      double max_adjust = 0.0;
      for (Constraint& c : constraints) {
        double violation = c.loss - weights->Dot(c.x);
        double delta = violation / c.x_norm_sq;
        double new_tau = std::max(0.0, c.tau + delta);
        double applied = new_tau - c.tau;
        if (applied != 0.0) {
          for (const auto& [id, v] : c.x.entries()) {
            nudge(id, applied * v);
          }
          c.tau = new_tau;
          max_adjust = std::max(max_adjust, std::fabs(applied));
        }
      }
      if (max_adjust < config_.hildreth_tolerance) break;
    }
  };
  run_hildreth();
  const std::size_t margin_constraints = constraints.size();

  // Positivity: every learnable edge cost must stay at least epsilon.
  // Edges the margin pass drove below the floor enter the same QP as
  // constraints over their *own* features (w · f(e) >= epsilon) and the
  // combined system is re-solved, so the restoring movement rides the
  // violating edges' features — not the shared default feature, whose
  // bump would turn this update's otherwise-sparse delta dense
  // (every view re-searched). Each round may push new edges under the
  // floor; iterate a few times.
  if (config_.enforce_positivity) {
    std::vector<char> floored(query_graph.num_edges(), 0);
    for (int round = 0; round < config_.max_positivity_rounds; ++round) {
      bool added = false;
      for (graph::EdgeId e = 0; e < query_graph.num_edges(); ++e) {
        const graph::EdgeView edge = query_graph.edge(e);
        if (edge.fixed_zero || floored[e]) continue;
        if (weights->Dot(edge.features()) >= config_.positivity_epsilon) {
          continue;
        }
        Constraint c;
        c.x = edge.features();
        double fixed = 0.0;
        if (config_.freeze_default_feature) {
          double dv = c.x.ValueOf(graph::FeatureSpace::kDefaultFeature);
          if (dv != 0.0) {
            // The frozen default's contribution is a constant during the
            // update; fold it into the bound.
            c.x.Remove(graph::FeatureSpace::kDefaultFeature);
            fixed = weights->At(graph::FeatureSpace::kDefaultFeature) * dv;
          }
        }
        c.loss = config_.positivity_epsilon - fixed;
        for (const auto& [id, v] : c.x.entries()) c.x_norm_sq += v * v;
        if (c.x_norm_sq <= 0.0) continue;  // default-only edge: fallback
        floored[e] = 1;
        ++info.positivity_constraints;
        constraints.push_back(std::move(c));
        added = true;
      }
      if (!added) break;
      run_hildreth();
    }

    // Last-resort fallback for what constraints cannot fix (an edge whose
    // only feature is the frozen default, or non-convergence within the
    // round budget): the legacy uniform offset. The trigger slack is
    // scaled from the Hildreth tolerance (converged constraints leave a
    // residual of at most tolerance * x_norm_sq, and feature counts per
    // edge are single digits), so a constraint-floored edge resting
    // within solver tolerance of epsilon never fires a dense bump, while
    // any genuine shortfall — round budget exhausted, unfixable edge —
    // still restores the full floor.
    const double slack = 100.0 * config_.hildreth_tolerance;
    double min_cost = std::numeric_limits<double>::infinity();
    for (graph::EdgeId e = 0; e < query_graph.num_edges(); ++e) {
      const graph::EdgeView edge = query_graph.edge(e);
      if (edge.fixed_zero) continue;
      min_cost = std::min(min_cost, weights->Dot(edge.features()));
    }
    if (min_cost < config_.positivity_epsilon - slack &&
        min_cost != std::numeric_limits<double>::infinity()) {
      double bump = config_.positivity_epsilon - min_cost;
      nudge(graph::FeatureSpace::kDefaultFeature, bump);
      info.default_weight_bump = bump;
    }
  }

  for (std::size_t i = 0; i < margin_constraints; ++i) {
    if (weights->Dot(constraints[i].x) < constraints[i].loss - 1e-6) {
      ++info.violated_after;
    }
  }

  graph::CoalesceFeatureDeltas(&info.feature_deltas);
  info.features_touched = info.feature_deltas.size();
  return info;
}

}  // namespace q::learn
