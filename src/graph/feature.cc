#include "graph/feature.h"

#include <algorithm>

namespace q::graph {

FeatureSpace::FeatureSpace() {
  // Reserve id 0 for the shared default feature; its initial weight is set
  // by the cost model config via Intern (first Intern wins, and
  // BuildSearchGraph interns it up front).
  names_.push_back("default");
  initial_weights_.push_back(0.0);
  ids_["default"] = 0;
}

FeatureId FeatureSpace::Intern(std::string_view name, double initial_weight) {
  auto it = ids_.find(std::string(name));
  if (it != ids_.end()) return it->second;
  FeatureId id = static_cast<FeatureId>(names_.size());
  names_.emplace_back(name);
  initial_weights_.push_back(initial_weight);
  ids_.emplace(names_.back(), id);
  if (name == "default") return 0;  // unreachable; defensive
  return id;
}

bool FeatureSpace::Find(std::string_view name, FeatureId* id) const {
  auto it = ids_.find(std::string(name));
  if (it == ids_.end()) return false;
  *id = it->second;
  return true;
}

void FeatureVec::Add(FeatureId id, double value) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const std::pair<FeatureId, double>& e, FeatureId target) {
        return e.first < target;
      });
  if (it != entries_.end() && it->first == id) {
    it->second += value;
  } else {
    entries_.insert(it, {id, value});
  }
}

double FeatureVec::ValueOf(FeatureId id) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const std::pair<FeatureId, double>& e, FeatureId target) {
        return e.first < target;
      });
  if (it != entries_.end() && it->first == id) return it->second;
  return 0.0;
}

bool FeatureVec::Remove(FeatureId id) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const std::pair<FeatureId, double>& e, FeatureId target) {
        return e.first < target;
      });
  if (it != entries_.end() && it->first == id) {
    entries_.erase(it);
    return true;
  }
  return false;
}

void FeatureVec::AddScaled(const FeatureVec& other, double scale) {
  for (const auto& [id, value] : other.entries()) Add(id, value * scale);
}

void CoalesceFeatureDeltas(std::vector<FeatureDelta>* deltas) {
  // Stable-sort by id keeps list order within a feature, so after
  // grouping, the group's first record holds the oldest old_value and its
  // last record the newest new_value.
  std::stable_sort(deltas->begin(), deltas->end(),
                   [](const FeatureDelta& a, const FeatureDelta& b) {
                     return a.id < b.id;
                   });
  std::size_t out = 0;
  std::size_t i = 0;
  while (i < deltas->size()) {
    std::size_t j = i;
    while (j + 1 < deltas->size() && (*deltas)[j + 1].id == (*deltas)[i].id) {
      ++j;
    }
    FeatureDelta merged{(*deltas)[i].id, (*deltas)[i].old_value,
                        (*deltas)[j].new_value};
    if (merged.old_value != merged.new_value) (*deltas)[out++] = merged;
    i = j + 1;
  }
  deltas->resize(out);
}

int BinIndex(double value, int num_bins) {
  if (value <= 0.0) return 0;
  if (value >= 1.0) return num_bins - 1;
  int bin = static_cast<int>(value * num_bins);
  return std::min(bin, num_bins - 1);
}

double BinCenter(int bin, int num_bins) {
  return (static_cast<double>(bin) + 0.5) / static_cast<double>(num_bins);
}

}  // namespace q::graph
