#ifndef QBENCH_SCHEDULE_H_
#define QBENCH_SCHEDULE_H_

// Seeded op lists. Every list a workload runs is generated from --seed
// before its timed phase starts; the system under test only ever sees
// the generated inputs. The same seed always yields the same lists.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/search_graph.h"
#include "relational/catalog.h"

namespace qbench {

// Independent RNG stream `stream` derived from the run seed.
std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream);

// Inverse-CDF Zipf(theta) sampler over [0, n): item 0 is the hottest.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double theta);
  // Maps a uniform draw u in [0, 1) to an item.
  std::size_t FromUniform(double u) const;

 private:
  std::vector<double> cdf_;
};

// `length` Zipf(theta) draws over [0, n).
std::vector<std::uint32_t> ZipfSequence(std::uint64_t seed, std::size_t n,
                                        double theta, std::size_t length);

// `length` uniform draws over [0, n).
std::vector<std::uint32_t> UniformSequence(std::uint64_t seed, std::size_t n,
                                           std::size_t length);

// One flag per op: set for a seeded share of the ops (the traced run
// replays those).
std::vector<std::uint8_t> SampleFlags(std::uint64_t seed, double share,
                                      std::size_t length);

// `length` items of [0, n) in which every item appears equally often:
// concatenated seeded permutations.
std::vector<std::uint32_t> BalancedSequence(std::uint64_t seed, std::size_t n,
                                            std::size_t length);

// Onboarding writer plan: the held-out trial sources in their seeded
// registration order, then the seeds of the synthetic two-attribute
// sources registered after them (`total` registrations in all).
struct OnboardPlan {
  std::vector<std::string> held_out;
  std::vector<std::uint64_t> synthetic_seeds;
  bool operator==(const OnboardPlan& o) const {
    return held_out == o.held_out && synthetic_seeds == o.synthetic_seeds;
  }
};
OnboardPlan MakeOnboardPlan(std::uint64_t seed,
                            std::vector<std::string> held_out,
                            std::size_t total);

// The Sec. 5.1.2 synthetic source for plan entry `index`.
std::shared_ptr<q::relational::DataSource> MakePlannedSyntheticSource(
    const OnboardPlan& plan, std::size_t index);

// Terminal sets of recent-source-window requests over a streaming
// catalog: an attribute of a recently ingested source plus two attribute
// nodes from its bounded cost neighbourhood.
std::vector<std::vector<q::graph::NodeId>> WindowRequests(
    const q::graph::SearchGraph& graph, const q::graph::WeightVector& weights,
    std::uint64_t seed, std::size_t count);

}  // namespace qbench

#endif  // QBENCH_SCHEDULE_H_
