#ifndef Q_FEEDBACK_FEEDBACK_LOG_H_
#define Q_FEEDBACK_FEEDBACK_LOG_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "graph/feature.h"
#include "util/status.h"

namespace q::feedback {

// What kind of interaction produced a feedback record.
enum class FeedbackKind : std::uint8_t {
  kEndorse = 0,  // user endorsed a query tree (ApplyFeedback)
  kInvalid = 1,  // user marked a result row invalid
  kRanking = 2,  // pairwise ranking constraint
  kGold = 3,     // simulated-expert gold endorsement
};

// One recorded feedback interaction: the keyword query it was given on,
// plus the coalesced weight movement the MIRA update produced. The
// endorsed tree itself is re-derived at replay time because weight
// updates in between can change the query graph's edge ids and the
// k-best list (Sec. 5.2.2 replays "a log of the most recent feedback
// steps") — but the *effect* on the weight vector is captured exactly,
// so a recovery path that lost the weights can replay the log and land
// on the same values deterministically (docs/persistence.md).
struct FeedbackEvent {
  std::vector<std::string> keywords;
  FeedbackKind kind = FeedbackKind::kEndorse;
  // Monotone per-log sequence number, stamped by FeedbackLog::Record and
  // preserved across save/load: event N is always event N, even after
  // the sliding window drops earlier events.
  std::uint64_t sequence = 0;
  // WeightVector::revision() immediately after this event's update.
  std::uint64_t weight_revision = 0;
  // Coalesced net weight movement of this event (one entry per feature).
  // Empty when the update was a no-op.
  std::vector<graph::FeatureDelta> deltas;
  // False when the deltas are incomplete, and ReplayInto then refuses
  // them. QSystem records every event replayable; the flag is kept so
  // snapshots from builds whose bounded weight journal could lose an
  // event's deltas still decode and still refuse to replay them.
  bool replayable = true;
};

// Sliding-window feedback log with a size bound (Sec. 5.2.2), upgraded to
// an append-only record stream: each event carries an explicit sequence
// stamp and its coalesced weight deltas, so the persisted log supports
// deterministic replay during degraded recovery (weights section lost —
// see the recovery ladder in docs/persistence.md).
class FeedbackLog {
 public:
  explicit FeedbackLog(std::size_t max_size = 64) : max_size_(max_size) {}

  // Appends `event`, stamping its sequence number; the window then drops
  // the oldest events beyond the size bound (their sequence numbers are
  // never reused).
  void Record(FeedbackEvent event) {
    event.sequence = next_sequence_++;
    events_.push_back(std::move(event));
    while (events_.size() > max_size_) events_.pop_front();
  }

  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  // Sequence number the next Record will stamp; equals the number of
  // events ever recorded (the window may retain fewer).
  std::uint64_t next_sequence() const { return next_sequence_; }

  // True when the window still holds every event ever recorded — i.e. a
  // replay reproduces the complete feedback history, not just a suffix.
  bool complete_history() const {
    return events_.empty() ? next_sequence_ == 0
                           : events_.front().sequence == 0;
  }

  // Events oldest-first.
  std::vector<FeedbackEvent> Snapshot() const {
    return std::vector<FeedbackEvent>(events_.begin(), events_.end());
  }

  void Clear() { events_.clear(); }

  // Re-applies every retained event's coalesced deltas to `weights`, in
  // sequence order. Deterministic: replaying the same log into the same
  // starting vector always lands on the same values. Fails without
  // touching `weights` when any retained event is marked unreplayable or
  // carries a delta outside the weight vector's feature space; degrades
  // to a descriptive error rather than applying a partial history.
  util::Status ReplayInto(graph::WeightVector* weights) const {
    for (const FeedbackEvent& event : events_) {
      if (!event.replayable) {
        return util::Status::Internal(
            "feedback event " + std::to_string(event.sequence) +
            " is not replayable (its weight deltas are incomplete)");
      }
      for (const graph::FeatureDelta& d : event.deltas) {
        if (d.id >= weights->space()->size()) {
          return util::Status::OutOfRange(
              "feedback event " + std::to_string(event.sequence) +
              " references unknown feature id " + std::to_string(d.id));
        }
      }
    }
    for (const FeedbackEvent& event : events_) {
      for (const graph::FeatureDelta& d : event.deltas) {
        weights->Set(d.id, d.new_value);
      }
    }
    return util::Status::OK();
  }

  // Persistence support (src/persist): reinstates the stream exactly as
  // saved — same retained events, same sequence stamps, same next
  // sequence number.
  void Restore(std::uint64_t next_sequence,
               std::vector<FeedbackEvent> events) {
    next_sequence_ = next_sequence;
    events_.assign(events.begin(), events.end());
  }

 private:
  std::size_t max_size_;
  std::uint64_t next_sequence_ = 0;
  std::deque<FeedbackEvent> events_;
};

}  // namespace q::feedback

#endif  // Q_FEEDBACK_FEEDBACK_LOG_H_
