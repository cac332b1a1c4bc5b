#include "schedule.h"

#include <algorithm>
#include <cmath>

#include "data/synthetic.h"
#include "util/random.h"
#include "util/status.h"

namespace qbench {

std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream) {
  // SplitMix64 finalizer over (seed, stream).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

ZipfSampler::ZipfSampler(std::size_t n, double theta) {
  cdf_.resize(n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t ZipfSampler::FromUniform(double u) const {
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<std::size_t>(it - cdf_.begin());
}

std::vector<std::uint32_t> ZipfSequence(std::uint64_t seed, std::size_t n,
                                        double theta, std::size_t length) {
  ZipfSampler zipf(n, theta);
  q::util::Rng rng(seed);
  std::vector<std::uint32_t> out(length);
  for (auto& v : out) {
    v = static_cast<std::uint32_t>(zipf.FromUniform(rng.UniformDouble()));
  }
  return out;
}

std::vector<std::uint32_t> UniformSequence(std::uint64_t seed, std::size_t n,
                                           std::size_t length) {
  q::util::Rng rng(seed);
  std::vector<std::uint32_t> out(length);
  for (auto& v : out) v = static_cast<std::uint32_t>(rng.Uniform(n));
  return out;
}

std::vector<std::uint8_t> SampleFlags(std::uint64_t seed, double share,
                                      std::size_t length) {
  q::util::Rng rng(seed);
  std::vector<std::uint8_t> out(length);
  for (auto& f : out) f = rng.UniformDouble() < share ? 1 : 0;
  return out;
}

std::vector<std::uint32_t> BalancedSequence(std::uint64_t seed, std::size_t n,
                                            std::size_t length) {
  q::util::Rng rng(seed);
  std::vector<std::uint32_t> round(n);
  std::vector<std::uint32_t> out;
  out.reserve(length);
  while (out.size() < length) {
    for (std::size_t i = 0; i < n; ++i) {
      round[i] = static_cast<std::uint32_t>(i);
    }
    rng.Shuffle(round);
    for (std::size_t i = 0; i < n && out.size() < length; ++i) {
      out.push_back(round[i]);
    }
  }
  return out;
}

OnboardPlan MakeOnboardPlan(std::uint64_t seed,
                            std::vector<std::string> held_out,
                            std::size_t total) {
  q::util::Rng rng(seed);
  std::sort(held_out.begin(), held_out.end());
  held_out.erase(std::unique(held_out.begin(), held_out.end()),
                 held_out.end());
  rng.Shuffle(held_out);
  OnboardPlan plan;
  plan.held_out = std::move(held_out);
  for (std::size_t i = plan.held_out.size(); i < total; ++i) {
    plan.synthetic_seeds.push_back(rng.NextUint64());
  }
  return plan;
}

std::shared_ptr<q::relational::DataSource> MakePlannedSyntheticSource(
    const OnboardPlan& plan, std::size_t index) {
  q::util::Rng rng(plan.synthetic_seeds.at(index));
  return q::data::MakeSyntheticSource("syn" + std::to_string(index),
                                      /*rows=*/5, &rng);
}

namespace {

// Mean cost of a sample of edges: the neighbourhood radius unit.
double MeanEdgeCost(const q::graph::SearchGraph& graph,
                    const q::graph::WeightVector& weights) {
  const std::size_t sample = std::min<std::size_t>(graph.num_edges(), 256);
  if (sample == 0) return 1.0;
  double sum = 0.0;
  for (q::graph::EdgeId e = 0; e < sample; ++e) {
    sum += graph.EdgeCost(e, weights);
  }
  const double mean = sum / static_cast<double>(sample);
  return mean > 0.0 ? mean : 1.0;
}

}  // namespace

std::vector<std::vector<q::graph::NodeId>> WindowRequests(
    const q::graph::SearchGraph& graph, const q::graph::WeightVector& weights,
    std::uint64_t seed, std::size_t count) {
  const double hop_cost = MeanEdgeCost(graph, weights);
  q::util::Rng rng(seed);
  q::graph::DistanceField field;
  std::vector<std::vector<q::graph::NodeId>> out;
  out.reserve(count);
  while (out.size() < count) {
    bool found = false;
    for (int attempt = 0; attempt < 1000 && !found; ++attempt) {
      const auto t0 = static_cast<q::graph::NodeId>(
          graph.num_nodes() - 1 - rng.Uniform(graph.num_nodes() / 10 + 1));
      if (graph.node(t0).kind != q::graph::NodeKind::kAttribute) continue;
      graph.Dijkstra({{t0, 0.0}}, weights, /*max_cost=*/8.0 * hop_cost,
                     &field);
      std::vector<q::graph::NodeId> window;
      for (q::graph::NodeId n : field.reached()) {
        if (n != t0 && graph.node(n).kind == q::graph::NodeKind::kAttribute) {
          window.push_back(n);
        }
      }
      if (window.size() < 2) continue;
      std::vector<q::graph::NodeId> terminals = {t0};
      while (terminals.size() < 3) {
        const q::graph::NodeId t = window[rng.Uniform(window.size())];
        if (std::find(terminals.begin(), terminals.end(), t) ==
            terminals.end()) {
          terminals.push_back(t);
        }
      }
      out.push_back(std::move(terminals));
      found = true;
    }
    Q_CHECK_MSG(found, "no queryable recent-source window in the catalog");
  }
  return out;
}

}  // namespace qbench
