#ifndef Q_UTIL_TASK_QUEUE_H_
#define Q_UTIL_TASK_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "util/thread_pool.h"

namespace q::util {

// Keyed task queue over a ThreadPool with two guarantees the async view
// refresh needs (keys are view slots there):
//
//   * per-key ordering — at most one task per key executes at a time, and
//     tasks for the same key never overlap or reorder;
//   * coalescing of superseded tasks — a task submitted while the key
//     already has a *pending* (not yet started) task replaces it. This is
//     sound exactly when tasks are idempotent reconcile-to-latest steps:
//     the newer submission subsumes everything the replaced one would
//     have done. A task submitted while one is *running* is parked as the
//     key's pending task and runs after it (the running task may have
//     started from pre-submission state, so it cannot be elided).
//
// Tasks for distinct keys run concurrently, bounded by the pool. The
// queue never drops work other than by coalescing, and Drain() gives a
// quiescence barrier (no task running or pending for any key).
//
// Thread-safe. The pool must outlive the queue; the destructor drains.
class KeyedTaskQueue {
 public:
  explicit KeyedTaskQueue(ThreadPool* pool) : pool_(pool) {}

  ~KeyedTaskQueue() { Drain(); }

  KeyedTaskQueue(const KeyedTaskQueue&) = delete;
  KeyedTaskQueue& operator=(const KeyedTaskQueue&) = delete;

  // Enqueues `task` under `key`, coalescing per the class contract.
  void Submit(std::size_t key, std::function<void()> task) {
    std::lock_guard<std::mutex> lock(mu_);
    State& state = states_[key];
    if (state.running || state.pending) {
      if (state.pending) ++coalesced_;
      state.pending = true;
      state.pending_task = std::move(task);
      return;
    }
    state.running = true;
    ++active_;
    pool_->Submit([this, key, t = std::move(task)]() mutable {
      RunOne(key, std::move(t));
    });
  }

  // True while `key` has a task running or pending. Callers that need
  // exclusive access to key-owned state (the scheduler's classification
  // reads a view's engine slot) may only touch it when
  // this returns false and no Submit for the key can race them.
  bool Busy(std::size_t key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = states_.find(key);
    return it != states_.end() && (it->second.running || it->second.pending);
  }

  // Blocks until no task is running or pending for any key. Quiescence is
  // only meaningful if the caller prevents concurrent Submit calls.
  void Drain() {
    std::unique_lock<std::mutex> lock(mu_);
    drained_cv_.wait(lock, [this] { return active_ == 0; });
  }

  // Tasks elided because a newer submission replaced them while pending.
  std::size_t coalesced() const {
    std::lock_guard<std::mutex> lock(mu_);
    return coalesced_;
  }

 private:
  struct State {
    bool running = false;
    bool pending = false;
    std::function<void()> pending_task;
  };

  void RunOne(std::size_t key, std::function<void()> task) {
    for (;;) {
      task();
      std::lock_guard<std::mutex> lock(mu_);
      State& state = states_[key];
      if (state.pending) {
        // The running slot is handed to the parked task without going
        // back through the pool: per-key FIFO and no lost wakeups.
        state.pending = false;
        task = std::move(state.pending_task);
        state.pending_task = nullptr;
        continue;
      }
      state.running = false;
      if (--active_ == 0) drained_cv_.notify_all();
      return;
    }
  }

  ThreadPool* pool_;
  mutable std::mutex mu_;
  std::condition_variable drained_cv_;
  std::unordered_map<std::size_t, State> states_;
  std::size_t active_ = 0;  // keys with a running task
  std::size_t coalesced_ = 0;
};

}  // namespace q::util

#endif  // Q_UTIL_TASK_QUEUE_H_
