#ifndef Q_UTIL_DARY_HEAP_H_
#define Q_UTIL_DARY_HEAP_H_

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace q::util {

// Indexed 4-ary min-heap over dense element ids [0, n) with decrease-key.
// Each id is in the heap at most once, so Dijkstra pops every reached node
// exactly once and the heap never grows past n (unlike the lazy-deletion
// std::priority_queue pattern, which churns allocations and re-expands
// stale entries). 4-ary beats binary here: sift-down does 3/4 as many
// levels and the child block shares a cache line.
//
// Equal keys pop in ascending id order: ordering is by (key, id), so the
// pop sequence is a pure function of the final key assignment, not of the
// push/decrease history. The Steiner solvers' masked/unmasked bit-identity
// relies on this canonical order (see fast_solver.h).
//
// Reset() is O(n) but reuses capacity, so a heap kept in a scratch arena
// does no allocation in steady state.
class DaryHeap {
 public:
  static constexpr std::uint32_t kAbsent =
      std::numeric_limits<std::uint32_t>::max();

  void Reset(std::size_t n) {
    heap_.clear();
    key_.resize(n);
    pos_.assign(n, kAbsent);
  }

  // O(live) alternative to Reset: clears only the ids still queued from
  // the previous run (PopMin already clears popped ids) and grows the
  // index arrays as needed. Equivalent to Reset for every sequence of
  // heap operations; the win is early-stopped Dijkstras over large
  // graphs, where the queue only ever saw a small neighborhood.
  void Drain(std::size_t n) {
    for (std::uint32_t id : heap_) pos_[id] = kAbsent;
    heap_.clear();
    Reserve(n);
  }

  // Grows the index arrays to hold ids below `n`, keeping queued ids.
  void Reserve(std::size_t n) {
    if (key_.size() < n) key_.resize(n);
    if (pos_.size() < n) pos_.resize(n, kAbsent);
  }

  // Releases capacity down to `n` ids: any queued ids are dropped and the
  // index arrays are reallocated at exactly n. One oversized run (a
  // full-graph Dijkstra on a million-node snapshot) otherwise pins the
  // high-water arrays for the thread's lifetime; scratch arenas call this
  // after a streak of much smaller (masked, local-id) solves.
  void ShrinkTo(std::size_t n) {
    heap_.clear();
    heap_.shrink_to_fit();
    std::vector<double>(n).swap(key_);
    std::vector<std::uint32_t>(n, kAbsent).swap(pos_);
  }

  std::size_t capacity_ids() const { return pos_.size(); }

  // Bytes currently retained across the three arrays (footprint
  // accounting for the scratch-shrink policy).
  std::size_t MemoryBytes() const {
    return heap_.capacity() * sizeof(std::uint32_t) +
           key_.capacity() * sizeof(double) +
           pos_.capacity() * sizeof(std::uint32_t);
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  bool contains(std::uint32_t id) const { return pos_[id] != kAbsent; }
  double key_of(std::uint32_t id) const { return key_[id]; }

  // Inserts `id` with `key`, or lowers its key if already present with a
  // larger one. Raising a key is a no-op (Dijkstra never needs it).
  void PushOrDecrease(std::uint32_t id, double key) {
    std::uint32_t p = pos_[id];
    if (p == kAbsent) {
      key_[id] = key;
      pos_[id] = static_cast<std::uint32_t>(heap_.size());
      heap_.push_back(id);
      SiftUp(pos_[id]);
    } else if (key < key_[id]) {
      key_[id] = key;
      SiftUp(p);
    }
  }

  // Rebuilds the heap in O(n) from every id whose key is finite —
  // replaces n individual pushes (O(n log n)) when seeding Dijkstra from
  // a dense distance array.
  void Heapify(const double* keys, std::uint32_t n) {
    heap_.clear();
    key_.resize(n);
    pos_.assign(n, kAbsent);
    for (std::uint32_t id = 0; id < n; ++id) {
      if (keys[id] == std::numeric_limits<double>::infinity()) continue;
      key_[id] = keys[id];
      pos_[id] = static_cast<std::uint32_t>(heap_.size());
      heap_.push_back(id);
    }
    if (heap_.size() > 1) {
      for (std::uint32_t i = (static_cast<std::uint32_t>(heap_.size()) - 2) / 4 + 1;
           i-- > 0;) {
        SiftDown(i);
      }
    }
  }

  // Removes and returns the (key, id) pair with the smallest key.
  // Precondition: !empty().
  std::pair<double, std::uint32_t> PopMin() {
    std::uint32_t top = heap_[0];
    double key = key_[top];
    pos_[top] = kAbsent;
    std::uint32_t last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_[0] = last;
      pos_[last] = 0;
      SiftDown(0);
    }
    return {key, top};
  }

 private:
  // (key, id) lexicographic order.
  bool Less(std::uint32_t a, std::uint32_t b) const {
    if (key_[a] != key_[b]) return key_[a] < key_[b];
    return a < b;
  }

  void SiftUp(std::uint32_t i) {
    std::uint32_t id = heap_[i];
    while (i > 0) {
      std::uint32_t parent = (i - 1) >> 2;
      std::uint32_t pid = heap_[parent];
      if (!Less(id, pid)) break;
      heap_[i] = pid;
      pos_[pid] = i;
      i = parent;
    }
    heap_[i] = id;
    pos_[id] = i;
  }

  void SiftDown(std::uint32_t i) {
    std::uint32_t id = heap_[i];
    const std::uint32_t n = static_cast<std::uint32_t>(heap_.size());
    while (true) {
      std::uint32_t first = (i << 2) + 1;
      if (first >= n) break;
      std::uint32_t last = first + 4 < n ? first + 4 : n;
      std::uint32_t best = first;
      std::uint32_t best_id = heap_[first];
      for (std::uint32_t c = first + 1; c < last; ++c) {
        if (Less(heap_[c], best_id)) {
          best_id = heap_[c];
          best = c;
        }
      }
      if (!Less(best_id, id)) break;
      heap_[i] = best_id;
      pos_[best_id] = i;
      i = best;
    }
    heap_[i] = id;
    pos_[id] = i;
  }

  std::vector<std::uint32_t> heap_;  // heap order -> id
  std::vector<double> key_;          // id -> key
  std::vector<std::uint32_t> pos_;   // id -> heap position or kAbsent
};

}  // namespace q::util

#endif  // Q_UTIL_DARY_HEAP_H_
