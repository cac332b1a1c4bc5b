#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <system_error>

namespace qbench {

std::int64_t UnionLengthNs(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t cur_start = 0;
  std::int64_t cur_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (open && start <= cur_end) {
      cur_end = std::max(cur_end, end);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = start;
    cur_end = end;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

std::vector<double> SelfTimesMs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                               s.end_ns);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t covered = UnionLengthNs(std::move(children[i]));
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                                  covered) /
              1e6;
  }
  return self;
}

std::int64_t SpanLog::Ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

std::int64_t SpanLog::Record(std::string_view name, Clock::time_point start,
                             Clock::time_point end, std::uint64_t request,
                             std::int64_t parent) {
  spans_.push_back(Span{name, Ns(start), Ns(end), parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t SpanLog::RecordReported(std::string_view name, double ms,
                                     std::int64_t parent) {
  const Span& p = spans_.at(static_cast<std::size_t>(parent));
  const auto ns = static_cast<std::int64_t>(ms * 1e6);
  spans_.push_back(
      Span{name, p.start_ns, p.start_ns + ns, parent, p.request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

SpanLog* Trace::NewLog() {
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(std::make_unique<SpanLog>(epoch_));
  return logs_.back().get();
}

std::vector<double> Trace::SelfMs(std::string_view name,
                                  bool replayed_only) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& log : logs_) {
    const std::vector<Span>& spans = log->spans();
    std::vector<std::uint8_t> has_child(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) has_child[static_cast<std::size_t>(s.parent)] = 1;
    }
    const std::vector<double> self = SelfTimesMs(spans);
    for (std::size_t i = 0; i < self.size(); ++i) {
      if (spans[i].name == name && (!replayed_only || has_child[i])) {
        out.push_back(self[i]);
      }
    }
  }
  return out;
}

std::vector<double> Trace::DurationMs(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      if (s.name == name) out.push_back(s.DurationMs());
    }
  }
  return out;
}

std::vector<double> Trace::SumMsPerRequest(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::uint64_t, double> sums;
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      if (s.name == name) sums[s.request] += s.DurationMs();
    }
  }
  std::vector<double> out;
  out.reserve(sums.size());
  for (const auto& [request, ms] : sums) out.push_back(ms);
  return out;
}

bool Trace::WriteJsonLines(const std::string& path) const {
  std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  // Parents are written as global line numbers.
  std::int64_t base = 0;
  for (std::size_t t = 0; t < logs_.size(); ++t) {
    const std::vector<Span>& spans = logs_[t]->spans();
    for (const Span& s : spans) {
      std::fprintf(f,
                   "{\"name\":\"%.*s\",\"thread\":%zu,\"request\":%llu,"
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%lld}\n",
                   static_cast<int>(s.name.size()), s.name.data(), t,
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent < 0 ? -1
                                                       : base + s.parent));
    }
    base += static_cast<std::int64_t>(spans.size());
  }
  return std::fclose(f) == 0;
}

}  // namespace qbench
