#ifndef Q_LEARN_MIRA_H_
#define Q_LEARN_MIRA_H_

#include <vector>

#include "graph/search_graph.h"
#include "steiner/steiner_tree.h"
#include "steiner/top_k.h"
#include "util/status.h"

namespace q::learn {

struct MiraConfig {
  // k of KBESTSTEINER in Algorithm 4.
  int k = 5;
  steiner::TopKConfig top_k;  // k field below overrides top_k.k
  // Hildreth dual-ascent passes and convergence tolerance for the QP
  //   min ||w - w_prev||^2  s.t.  C(T,w) - C(T_r,w) >= L(T_r,T).
  int max_hildreth_passes = 100;
  double hildreth_tolerance = 1e-9;
  // After each update, every learnable edge must cost at least this much
  // (the positivity constraint of Algorithm 4).
  double positivity_epsilon = 1e-4;
  bool enforce_positivity = true;
  // How positivity is maintained: edges driven below the floor enter the
  // same Hildreth QP as the margin constraints — one constraint
  // w · f(e) >= epsilon per violating edge, riding that edge's own
  // features — re-solved jointly with the margins, for at most this many
  // add-violators-and-resolve rounds. The legacy alternative (raise the
  // shared default feature until the minimum clears the floor) is kept
  // only as a last-resort fallback: the default feature sits on *every*
  // learnable edge, so a bump turns an otherwise-sparse MIRA delta dense
  // — every view's costs move and every view re-searches. Constraint-based
  // flooring keeps the journal delta on the handful of features the
  // update actually touched.
  int max_positivity_rounds = 4;
  // Exclude the shared default feature from the constraint vectors. The
  // default weight is the uniform positivity offset, not a discriminative
  // feature: letting MIRA move it interacts badly with the positivity
  // bump whenever the target and alternative trees differ in edge count
  // (the update lowers it, the bump restores it, and the constraint is
  // re-violated on replay — a ratchet that inflates every edge cost
  // without converging).
  bool freeze_default_feature = true;
};

// Outcome of one online update, for instrumentation: the revision span
// names the update's slice of the WeightVector's FeatureDelta journal,
// and `feature_deltas` is the update's own coalesced change set (one entry
// per feature with net movement — the handful of features on the
// endorsed and competing trees, not the whole space).
struct MiraUpdateInfo {
  std::size_t constraints = 0;
  std::size_t violated_before = 0;
  std::size_t violated_after = 0;
  // Edges whose positivity floor entered the QP as constraints.
  std::size_t positivity_constraints = 0;
  // Nonzero only when the constraint-based flooring could not restore
  // positivity and the dense fallback fired (see MiraConfig).
  double default_weight_bump = 0.0;
  // Weight revision observed before / after the update.
  std::uint64_t weight_revision_before = 0;
  std::uint64_t weight_revision_after = 0;
  // Coalesced net changes of this update (empty when the journal was
  // truncated mid-update; features_touched is then still exact 0 only if
  // the revision did not move).
  std::vector<graph::FeatureDelta> feature_deltas;
  // Distinct features with net movement; == feature_deltas.size() when
  // the journal covered the update.
  std::size_t features_touched = 0;
};

// The association-cost learner (Sec. 4, Algorithm 4): a Margin Infused
// Relaxed Algorithm variant over Steiner trees. Each user interaction
// yields a target tree T_r (the answer the user endorsed); the update
// minimally moves the weight vector so every tree in the current k-best
// list costs at least L(T_r, T) more than T_r, where L is the symmetric
// edge-set loss (Eq. 2). The zero-cost edge set A is honored structurally:
// such edges carry no features, so no weight setting can change them.
class MiraLearner {
 public:
  explicit MiraLearner(MiraConfig config = MiraConfig()) : config_(config) {}

  const MiraConfig& config() const { return config_; }

  // One pass of the Algorithm 4 loop body: retrieves the k-best trees for
  // `terminals` under the current weights and updates `weights` in place.
  util::Result<MiraUpdateInfo> Update(
      const graph::SearchGraph& query_graph,
      const std::vector<graph::NodeId>& terminals,
      const steiner::SteinerTree& target, graph::WeightVector* weights);

  // Update against an explicit alternative list (used when the caller
  // already computed the k-best trees, or for ranking feedback "T_r above
  // T" with a custom alternative set).
  util::Result<MiraUpdateInfo> UpdateAgainst(
      const graph::SearchGraph& query_graph,
      const std::vector<steiner::SteinerTree>& alternatives,
      const steiner::SteinerTree& target, graph::WeightVector* weights);

 private:
  MiraConfig config_;
};

}  // namespace q::learn

#endif  // Q_LEARN_MIRA_H_
