#include "steiner/top_k_memo.h"

#include <algorithm>
#include <utility>

#include "util/status.h"

namespace q::steiner {

TopKMemo::Entry* TopKMemo::Find(const TopKMemoKey& key) {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&key](const Entry& e) { return e.key == key; });
  return it == entries_.end() ? nullptr : &*it;
}

std::shared_ptr<const TopKMemoValue> TopKMemo::Lookup(
    std::uint64_t generation, const TopKMemoKey& key, bool* claimed) {
  *claimed = false;
  std::unique_lock<std::mutex> lock(mu_);
  // Waits while another caller's run of this key is in flight.
  const Entry* entry = nullptr;
  published_.wait(lock, [&] {
    entry = generation == generation_ ? Find(key) : nullptr;
    return entry == nullptr || entry->value != nullptr;
  });
  if (entry != nullptr) {
    ++hits_;
    return entry->value;
  }
  if (generation == generation_ && entries_.size() < kMaxEntries) {
    entries_.push_back(Entry{key, nullptr});
    *claimed = true;
  }
  ++misses_;
  return nullptr;
}

void TopKMemo::Publish(std::uint64_t generation, const TopKMemoKey& key,
                       std::shared_ptr<const TopKMemoValue> value) {
  std::size_t bytes = 0;
  if (value != nullptr) {
    bytes = sizeof(Entry) + sizeof(TopKMemoValue) +
            key.terminals.size() * sizeof(graph::NodeId) +
            value->trees.size() * sizeof(SteinerTree);
    for (const SteinerTree& tree : value->trees) {
      bytes += tree.edges.size() * sizeof(graph::EdgeId);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (generation != generation_) return;
    Entry* entry = Find(key);
    Q_CHECK(entry != nullptr);  // only the claimant publishes, once
    if (value == nullptr) {
      entries_.erase(entries_.begin() + (entry - entries_.data()));
    } else {
      entry->value = std::move(value);
      bytes_ += bytes;
    }
  }
  published_.notify_all();
}

void TopKMemo::Advance(std::uint64_t generation) {
  std::vector<Entry> purged;  // freed after the lock is released
  {
    std::lock_guard<std::mutex> lock(mu_);
    generation_ = generation;
    purged.swap(entries_);
    bytes_ = 0;
  }
  published_.notify_all();
}

std::size_t TopKMemo::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::size_t TopKMemo::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::size_t TopKMemo::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::size_t TopKMemo::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

}  // namespace q::steiner
