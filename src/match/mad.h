#ifndef Q_MATCH_MAD_H_
#define Q_MATCH_MAD_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/result.h"

namespace q::match {

// Hyperparameters of Modified Adsorption (Algorithm 1; defaults are the
// paper's Sec. 5.2.1 settings: 3 iterations, mu1 = mu2 = 1, mu3 = 1e-2).
struct MadConfig {
  double mu1 = 1.0;  // injection term
  double mu2 = 1.0;  // neighborhood agreement term
  double mu3 = 1e-2; // abandonment / prior (dummy label) term
  int max_iterations = 3;
  // Early stop when the max L-inf change of any node's distribution drops
  // below this (0 disables; the paper runs a fixed iteration count).
  double tolerance = 0.0;
  // Beta of the entropy-based random-walk probability heuristic
  // (Talukdar & Crammer 2009).
  double beta = 2.0;
  // Sparsity cap: labels kept per node between iterations.
  std::size_t max_labels_per_node = 32;
};

// Label index type. Label 0 is reserved for the "none of the above" dummy
// label (the paper's top mark); real labels start at 1.
using MadLabel = std::uint32_t;
inline constexpr MadLabel kDummyLabel = 0;

// Sparse label distribution: (label, score) sorted by label.
using LabelDist = std::vector<std::pair<MadLabel, double>>;

// Undirected weighted graph over which labels are propagated. Nodes are
// created via GetOrAddNode (deduplicated by key); seed nodes carry their
// own injected label.
class LabelPropGraph {
 public:
  std::uint32_t GetOrAddNode(const std::string& key);
  std::uint32_t NodeOf(const std::string& key) const {
    return index_.at(key);
  }

  void AddEdge(std::uint32_t a, std::uint32_t b, double weight);

  // Seeds node `n` with label `l` (score 1.0). A node may carry one seed.
  void SetSeed(std::uint32_t n, MadLabel l);

  std::size_t num_nodes() const { return adjacency_.size(); }
  std::size_t num_edges() const { return edge_count_; }
  std::size_t degree(std::uint32_t n) const { return adjacency_[n].size(); }

  const std::vector<std::pair<std::uint32_t, double>>& neighbors(
      std::uint32_t n) const {
    return adjacency_[n];
  }
  bool IsSeeded(std::uint32_t n) const { return seed_[n] != kNoSeed; }
  MadLabel SeedOf(std::uint32_t n) const { return seed_[n]; }

 private:
  static constexpr MadLabel kNoSeed = ~MadLabel{0};
  std::unordered_map<std::string, std::uint32_t> index_;
  std::vector<std::vector<std::pair<std::uint32_t, double>>> adjacency_;
  std::vector<MadLabel> seed_;
  std::size_t edge_count_ = 0;
};

struct MadResult {
  // Per node: converged label distribution (dummy label included).
  std::vector<LabelDist> labels;
  int iterations_run = 0;
  double final_max_change = 0.0;
};

// Runs the MAD fixpoint (Algorithm 1). Note on line 4 of the published
// pseudocode: we propagate the *current estimates* L_u of the neighbors
// (per the cited MAD paper and the random-walk semantics), not the seed
// labels I_u; see DESIGN.md.
MadResult RunMad(const LabelPropGraph& graph, const MadConfig& config);

}  // namespace q::match

#endif  // Q_MATCH_MAD_H_
