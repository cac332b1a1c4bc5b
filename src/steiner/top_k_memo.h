#ifndef Q_STEINER_TOP_K_MEMO_H_
#define Q_STEINER_TOP_K_MEMO_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/search_graph.h"
#include "steiner/steiner_tree.h"
#include "steiner/top_k.h"

namespace q::steiner {

// Every input of an unsharded fast-engine enumeration besides the pinned
// cost bits (whose generation scopes the memo) and the caller's pool
// (which never changes output, per the determinism contract).
struct TopKMemoKey {
  // KMB and the exact solver return different trees.
  bool kmb = false;
  // As passed: KMB's Prim starts at terminals[0], and so does the Lawler
  // branching order, which decides among tied trees.
  std::vector<graph::NodeId> terminals;
  int k = 0;
  // Decides truncation and the certificate's 2x-headroom rule.
  std::size_t max_subproblems = 0;
  // An exact run branches the k-th pivot's children only when a
  // certificate is requested: same trees, different certificate.
  bool certified = false;

  bool operator==(const TopKMemoKey& other) const {
    return kmb == other.kmb && k == other.k &&
           max_subproblems == other.max_subproblems &&
           certified == other.certified && terminals == other.terminals;
  }
};

// One enumeration as TopKSteinerTrees returned it: the trees, and the
// certificate it filled in (a default one when none was requested).
struct TopKMemoValue {
  std::vector<SteinerTree> trees;
  RelevanceCertificate certificate;
};

// Memo of whole top-k enumerations, one per FastSteinerEngine built with
// `use_memo` and the engine's only cache. TopKSteinerTrees looks it up
// once after pinning the snapshot and publishes once after computing the
// certificate. An unsharded enumeration on a fast engine is a pure
// function of its key and the pinned CSR cost bits, so a hit returns
// exactly what the stored run returned; every read of a view between two
// writes repeats one enumeration, which then costs one lookup.
//
// Generation scope: the memo holds entries of one engine generation only.
// Advance() moves it to the engine's new generation and purges the rest;
// a search pinned to an older generation neither reads nor publishes.
//
// Concurrent misses on one key run it once: the first claims the key and
// runs the enumeration, and the others wait for its Publish instead of
// running it again (right after a write, a view's reader and its repair
// can enumerate it at once).
//
// Bounded by kMaxEntries; once full, misses claim nothing and their runs
// are not kept until the next generation frees the memo. Thread safety:
// one mutex guards the table. Values are shared and immutable, so a hit
// copies its trees out after the lock is released and a concurrent
// Advance cannot free them.
class TopKMemo {
 public:
  // Per-engine entry cap. Each view owns its engine, and every engine on
  // the qbench serve, feedback and onboard workloads held at most 1 entry
  // per generation; catalog's unsharded verification engine held 6 (six
  // distinct requests). Lookups scan the table linearly, so the cap
  // stays small.
  static constexpr std::size_t kMaxEntries = 16;

  // The enumeration recorded for `key` under `generation`, waiting for it
  // while another caller's run of it is in flight, or null. On null,
  // *claimed says whether the caller now owns the key and must Publish
  // it; a full memo, or a generation that is no longer current, claims
  // nothing.
  std::shared_ptr<const TopKMemoValue> Lookup(std::uint64_t generation,
                                              const TopKMemoKey& key,
                                              bool* claimed);

  // Records the claimed key's enumeration and wakes its waiters. A null
  // `value` releases the claim instead (its run did not finish), and a
  // waiter then claims the key itself. Dropped when `generation` is no
  // longer current.
  void Publish(std::uint64_t generation, const TopKMemoKey& key,
               std::shared_ptr<const TopKMemoValue> value);

  // Moves to engine generation `generation`, purges every entry and wakes
  // every waiter (which then runs its enumeration itself).
  void Advance(std::uint64_t generation);

  std::size_t hits() const;
  std::size_t misses() const;
  std::size_t size() const;
  // Bytes held by the entries: the entry records and the heap payload of
  // their keys, trees and certificate edges.
  std::size_t bytes() const;

 private:
  struct Entry {
    TopKMemoKey key;
    std::shared_ptr<const TopKMemoValue> value;  // null while claimed
  };

  // The entry for `key`, or null. Caller holds mu_.
  Entry* Find(const TopKMemoKey& key);

  mutable std::mutex mu_;
  std::condition_variable published_;
  std::uint64_t generation_ = 0;
  std::vector<Entry> entries_;
  std::size_t bytes_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace q::steiner

#endif  // Q_STEINER_TOP_K_MEMO_H_
