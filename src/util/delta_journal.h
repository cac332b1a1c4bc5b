#ifndef Q_UTIL_DELTA_JOURNAL_H_
#define Q_UTIL_DELTA_JOURNAL_H_

#include <cstdint>
#include <cstddef>
#include <utility>
#include <vector>

namespace q::util {

// A monotone revision counter paired with a bounded journal of mutation
// records (WeightVector's FeatureDelta journal). Invariant: records_[i]
// is the mutation that produced revision base_revision_ + i + 1, so
// records_.size() == revision_ - base_revision_ always holds.
//
// Capacity is bounded: on overflow all history up to the current
// revision is forgotten, after which DeltaSince for older revisions
// reports truncation — consumers must then assume everything may have
// changed.
template <typename Record>
class DeltaJournal {
 public:
  explicit DeltaJournal(std::size_t max_entries)
      : max_entries_(max_entries) {}

  std::uint64_t revision() const { return revision_; }

  // Records one mutation and advances the revision.
  void Append(Record record) {
    if (records_.size() >= max_entries_) {
      records_.clear();
      base_revision_ = revision_;
    }
    records_.push_back(std::move(record));
    ++revision_;
  }

  // Empties the journal at `revision`: DeltaSince then answers only from
  // `revision` on.
  void Restart(std::uint64_t revision) {
    base_revision_ = revision_ = revision;
    records_.clear();
  }

  // Appends the records for revisions (since_revision, revision()] to
  // `out` (oldest first, one record per revision). Returns false when
  // the journal no longer reaches back to `since_revision`.
  bool DeltaSince(std::uint64_t since_revision,
                  std::vector<Record>* out) const {
    if (since_revision > revision_) return false;
    if (since_revision < base_revision_) return false;
    std::size_t first =
        static_cast<std::size_t>(since_revision - base_revision_);
    out->insert(out->end(), records_.begin() + first, records_.end());
    return true;
  }

 private:
  std::uint64_t revision_ = 0;
  std::uint64_t base_revision_ = 0;
  std::size_t max_entries_;
  std::vector<Record> records_;
};

}  // namespace q::util

#endif  // Q_UTIL_DELTA_JOURNAL_H_
