#ifndef Q_STEINER_SOLVE_MEMO_H_
#define Q_STEINER_SOLVE_MEMO_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "graph/search_graph.h"
#include "steiner/steiner_tree.h"

namespace q::steiner {

// The single-tree solver a memoized verdict came from.
enum class SolverKind : std::uint8_t { kKmb, kExact };

// Memo of solved unmasked Lawler subproblems, one per FastSteinerEngine
// (see FastSteinerEngine::SolveMemoized) and the engine's only cache. An
// entry maps a solve's exact inputs — solver kind, terminals, forced and
// banned edges, as passed — plus the engine generation the solve was
// pinned to, onto the verdict the solver returned: the tree, or nullopt
// for an infeasible subspace. A solver run is a pure function of those
// inputs and the CSR cost bits the generation names, so a hit is exactly
// what re-solving would return; Lawler rebuilds identical vectors whenever
// it repeats a subproblem, which is what every search repeated against an
// unchanged snapshot does.
//
// Generation scope: the memo holds entries of one engine generation only.
// Advance() moves it to the engine's new generation and purges the rest.
// A solve pinned to an older generation neither reads nor inserts
// current-generation entries: the generation is part of the key, and an
// insert compares it with the current one under the shard lock. Advance
// publishes the new generation before it purges a shard, so no
// old-generation insert can land after that shard's purge.
//
// Bounded by kMaxEntries; once full, inserts are dropped until the next
// generation frees the memo. Thread safety: sharded map with one mutex
// per shard and atomic counters, so concurrent enumerations and
// pool-parallel Lawler children on one engine may look up and insert at
// once.
class SolveMemo {
 public:
  // Per-engine entry cap. The most entries one engine generation held
  // on the qbench workloads were 336 (one enumeration of the heaviest
  // InterPro-GO serving view), 265 (a k = 3 GBCO view under feedback)
  // and 48 (onboarding), so 2048 leaves at least 6x headroom.
  static constexpr std::size_t kMaxEntries = 2048;

  // True, with the memoized verdict copied to *verdict, when the
  // subproblem was solved under `generation`.
  bool Lookup(std::uint64_t generation, SolverKind kind,
              const std::vector<graph::NodeId>& terminals,
              const std::vector<graph::EdgeId>& forced,
              const std::vector<graph::EdgeId>& banned,
              std::optional<SteinerTree>* verdict) const;

  // Records a verdict solved under `generation`. Dropped when the memo
  // is full, when `generation` is no longer current, or when a
  // concurrent solve already recorded the same subproblem.
  void Insert(std::uint64_t generation, SolverKind kind,
              const std::vector<graph::NodeId>& terminals,
              const std::vector<graph::EdgeId>& forced,
              const std::vector<graph::EdgeId>& banned,
              const std::optional<SteinerTree>& verdict);

  // Moves to engine generation `generation` and purges every entry.
  void Advance(std::uint64_t generation);

  std::size_t hits() const;
  std::size_t misses() const;
  std::size_t size() const;
  // Bytes held by the entries: the entry records, their map nodes and
  // bucket slots, and the heap payload of their vectors.
  std::size_t bytes() const;

 private:
  struct Entry {
    std::uint64_t generation = 0;
    SolverKind kind = SolverKind::kKmb;
    std::vector<graph::NodeId> terminals;
    std::vector<graph::EdgeId> forced;
    std::vector<graph::EdgeId> banned;
    std::optional<SteinerTree> verdict;
  };

  static std::uint64_t Hash(std::uint64_t generation, SolverKind kind,
                            const std::vector<graph::NodeId>& terminals,
                            const std::vector<graph::EdgeId>& forced,
                            const std::vector<graph::EdgeId>& banned);
  static bool Matches(const Entry& entry, std::uint64_t generation,
                      SolverKind kind,
                      const std::vector<graph::NodeId>& terminals,
                      const std::vector<graph::EdgeId>& forced,
                      const std::vector<graph::EdgeId>& banned);

  // One lock + map per shard, keyed by the input hash; a hash collision
  // just lengthens one bucket's vector.
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, std::vector<Entry>> by_hash;
    std::size_t bytes = 0;  // of the entries in by_hash
  };
  static constexpr std::size_t kNumShards = 8;
  static std::size_t ShardIndex(std::uint64_t hash) {
    return static_cast<std::size_t>(hash >> 61);
  }

  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::size_t> num_entries_{0};
  mutable std::atomic<std::size_t> hits_{0};
  mutable std::atomic<std::size_t> misses_{0};
  std::array<Shard, kNumShards> shards_;
};

}  // namespace q::steiner

#endif  // Q_STEINER_SOLVE_MEMO_H_
