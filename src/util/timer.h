#ifndef Q_UTIL_TIMER_H_
#define Q_UTIL_TIMER_H_

#include <chrono>

namespace q::util {

// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace q::util

#endif  // Q_UTIL_TIMER_H_
