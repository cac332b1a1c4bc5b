#ifndef QBENCH_TRACE_H_
#define QBENCH_TRACE_H_

// Span recorder for the traced run. Every span is recorded from the
// benchmark's own code around a call into one of Q's public functions;
// nothing inside the library is instrumented. Each client thread owns a
// SpanLog, so recording takes no lock. Spans stay in memory and are
// written out as JSON lines when the run ends.
//
// A replayed child (a layer call the benchmark re-runs right after the
// real call, to split a call that hides several layers) names the real
// call's span as its parent and shares its request id, even though its
// interval lies after the parent's.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stats.h"

namespace qbench {

struct Span {
  std::string_view name;  // points at a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index in the same SpanLog, -1 for a root
  std::uint64_t request = 0;
  double DurationMs() const {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }
};

// Length of the union of [start, end) intervals, in nanoseconds.
std::int64_t UnionLengthNs(std::vector<std::pair<std::int64_t, std::int64_t>>
                               intervals);

// Self time of every span, in ms: its duration minus the length of the
// union of its children's intervals.
std::vector<double> SelfTimesMs(const std::vector<Span>& spans);

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  // Records a finished span and returns its index (a parent handle).
  std::int64_t Record(std::string_view name, Clock::time_point start,
                      Clock::time_point end, std::uint64_t request,
                      std::int64_t parent = -1);
  // Records a child whose duration was reported by the layer itself
  // rather than timed from outside; it is placed at its parent's start.
  std::int64_t RecordReported(std::string_view name, double ms,
                              std::int64_t parent);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t Ns(Clock::time_point t) const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// Owns every thread's log and derives per-layer samples from them.
class Trace {
 public:
  Trace() : epoch_(Clock::now()) {}

  // A new log for one thread; stays valid for the Trace's lifetime.
  SpanLog* NewLog();

  // Self time (ms) of every span named `name`; with `replayed_only`, of
  // only those with at least one child.
  std::vector<double> SelfMs(std::string_view name,
                             bool replayed_only = false) const;
  // Duration (ms) of every span named `name`.
  std::vector<double> DurationMs(std::string_view name) const;
  // Per request id: the summed duration (ms) of its spans named `name`.
  std::vector<double> SumMsPerRequest(std::string_view name) const;

  // Writes every span as one JSON object per line. Returns false on I/O
  // failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

}  // namespace qbench

#endif  // QBENCH_TRACE_H_
