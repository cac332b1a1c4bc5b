#ifndef Q_GRAPH_FEATURE_H_
#define Q_GRAPH_FEATURE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/delta_journal.h"
#include "util/status.h"

namespace q::graph {

using FeatureId = std::uint32_t;

// Interns feature names to dense ids and remembers each feature's initial
// weight (Sec. 3.4: an edge's cost is a learned-weight / feature-value dot
// product; initial weights encode default costs, matcher confidence
// scaling, relation authoritativeness, and per-edge offsets).
//
// Feature id 0 is always the shared "default" feature present on every
// learnable edge; its weight acts as the uniform positive offset MIRA uses
// to keep all edge costs positive (Sec. 4).
class FeatureSpace {
 public:
  FeatureSpace();

  // Returns the id for `name`, creating it with `initial_weight` if new
  // (the initial weight of an existing feature is left unchanged).
  FeatureId Intern(std::string_view name, double initial_weight);

  // Lookup without creating; returns false if absent.
  bool Find(std::string_view name, FeatureId* id) const;

  // Overrides a feature's initial weight (used by CostModel to pin the
  // default feature's offset). Only affects WeightVector reads that have
  // not yet materialized the id.
  void SetInitialWeight(FeatureId id, double w) { initial_weights_[id] = w; }

  std::size_t size() const { return names_.size(); }
  const std::string& name(FeatureId id) const { return names_[id]; }
  double initial_weight(FeatureId id) const { return initial_weights_[id]; }

  static constexpr FeatureId kDefaultFeature = 0;

 private:
  std::unordered_map<std::string, FeatureId> ids_;
  std::vector<std::string> names_;
  std::vector<double> initial_weights_;
};

// Sparse feature vector: sorted unique (id, value) pairs.
class FeatureVec {
 public:
  FeatureVec() = default;

  // Adds `value` to feature `id` (merging duplicates).
  void Add(FeatureId id, double value);

  const std::vector<std::pair<FeatureId, double>>& entries() const {
    return entries_;
  }
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  double ValueOf(FeatureId id) const;

  // Drops the entry for `id` if present; returns whether it was present.
  bool Remove(FeatureId id);

  // this += other * scale
  void AddScaled(const FeatureVec& other, double scale);

  bool operator==(const FeatureVec& other) const {
    return entries_ == other.entries_;
  }

 private:
  std::vector<std::pair<FeatureId, double>> entries_;
};

// One weight mutation: feature `id` moved from `old_value` to
// `new_value`. A journal of these is what MIRA's update summary and the
// feedback log read to say which features an update moved.
struct FeatureDelta {
  FeatureId id;
  double old_value;
  double new_value;
};

// Coalesces a raw journal slice in place: one entry per feature (first
// old value, last new value, journal order of first touch preserved),
// dropping features whose net movement is zero (A -> B -> A). The result
// is the minimal change set equivalent to replaying the slice.
void CoalesceFeatureDeltas(std::vector<FeatureDelta>* deltas);

// Dense weight vector aligned with a FeatureSpace. Unseen ids read as
// their initial weight.
//
// Every effective mutation both bumps the monotone revision counter and
// appends a FeatureDelta record to a bounded journal, so a reader can ask
// "what moved since revision R" (DeltaSince). The journal is capped;
// once it overflows, older revisions become unanswerable and DeltaSince
// reports truncation.
class WeightVector {
 public:
  explicit WeightVector(const FeatureSpace* space) : space_(space) {}

  double At(FeatureId id) const {
    return id < values_.size() ? values_[id] : space_->initial_weight(id);
  }

  void Set(FeatureId id, double w) {
    EnsureSize(id + 1);
    // No-op writes (e.g. a MIRA step with zero margin) must not move the
    // revision: downstream snapshot holders would re-cost and re-search
    // every view to reproduce byte-identical results.
    if (values_[id] != w) {
      journal_.Append(FeatureDelta{id, values_[id], w});
      values_[id] = w;
    }
  }

  void Nudge(FeatureId id, double delta) { Set(id, At(id) + delta); }

  // A priced copy at this revision: the dense values, extended over every
  // id the feature space holds now (each unset one at its initial
  // weight), so At() on those ids never reads the space. Another thread
  // may price with it while this one interns further features, which can
  // reallocate the space's initial-weight storage. It carries no journal
  // (pricing never reads one): DeltaSince answers only from revision().
  WeightVector Materialized() const {
    WeightVector copy(space_);
    copy.values_.reserve(space_->size());
    copy.values_.assign(values_.begin(), values_.end());
    copy.EnsureSize(space_->size());
    copy.journal_.Restart(journal_.revision());
    return copy;
  }

  // Monotone mutation counter, bumped by every effective Set/Nudge.
  // Lets snapshot holders (the RefreshEngine's per-view CSR snapshots)
  // detect weight updates — from MIRA or from direct mutable_weights()
  // pokes — without explicit notification.
  std::uint64_t revision() const { return journal_.revision(); }

  // Appends the raw journal records for revisions (since_revision,
  // revision()] to `out` (oldest first, one record per revision).
  // Returns false when the journal no longer reaches back to
  // `since_revision` (overflow): the caller must then assume every
  // feature may have moved. Callers typically follow with
  // CoalesceFeatureDeltas.
  bool DeltaSince(std::uint64_t since_revision,
                  std::vector<FeatureDelta>* out) const {
    return journal_.DeltaSince(since_revision, out);
  }

  // w · f
  double Dot(const FeatureVec& f) const {
    double sum = 0.0;
    for (const auto& [id, value] : f.entries()) sum += At(id) * value;
    return sum;
  }

  // Persistence support (src/persist): reinstates the dense values and
  // the revision as saved, bypassing Set's journaling. The journal starts
  // empty: DeltaSince answers only from `revision`.
  void Restore(std::vector<double> values, std::uint64_t revision) {
    values_ = std::move(values);
    journal_.Restart(revision);
  }

  const std::vector<double>& values() const { return values_; }

  const FeatureSpace* space() const { return space_; }

 private:
  void EnsureSize(std::size_t n) {
    while (values_.size() < n) {
      values_.push_back(space_->initial_weight(
          static_cast<FeatureId>(values_.size())));
    }
  }

  static constexpr std::size_t kDefaultMaxJournalEntries = 1 << 16;

  const FeatureSpace* space_;
  std::vector<double> values_;
  util::DeltaJournal<FeatureDelta> journal_{kDefaultMaxJournalEntries};
};

// Maps a real value in [0,1] to one of `num_bins` equal-width bins
// (Sec. 4: real-valued features are replaced by bin-membership
// indicators before MIRA learning).
int BinIndex(double value, int num_bins);

// Center of bin `bin` out of `num_bins` over [0,1].
double BinCenter(int bin, int num_bins);

}  // namespace q::graph

#endif  // Q_GRAPH_FEATURE_H_
