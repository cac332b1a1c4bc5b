// Tests for the query fast path's building blocks: the indexed 4-ary heap
// (canonical (key, id) pop order, decrease-key, heapify), the bounded
// thread pool (RunAll completion, caller participation, nesting, Submit),
// and the keyed task queue behind the async refresh scheduler (per-key
// ordering, coalescing of superseded tasks, drain).
#include <gtest/gtest.h>

#include <atomic>
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "util/dary_heap.h"
#include "util/random.h"
#include "util/task_queue.h"
#include "util/thread_pool.h"

namespace q::util {
namespace {

TEST(DaryHeapTest, PopsInKeyThenIdOrder) {
  DaryHeap heap;
  heap.Reset(8);
  heap.PushOrDecrease(3, 2.0);
  heap.PushOrDecrease(1, 1.0);
  heap.PushOrDecrease(7, 2.0);
  heap.PushOrDecrease(0, 2.0);
  heap.PushOrDecrease(5, 0.5);

  std::vector<std::uint32_t> order;
  while (!heap.empty()) order.push_back(heap.PopMin().second);
  // Equal keys (2.0) must pop in ascending id order: 0, 3, 7.
  EXPECT_EQ(order, (std::vector<std::uint32_t>{5, 1, 0, 3, 7}));
}

TEST(DaryHeapTest, DecreaseKeyMovesElementUp) {
  DaryHeap heap;
  heap.Reset(4);
  heap.PushOrDecrease(0, 5.0);
  heap.PushOrDecrease(1, 4.0);
  heap.PushOrDecrease(2, 3.0);
  heap.PushOrDecrease(0, 1.0);  // decrease
  heap.PushOrDecrease(2, 9.0);  // raising is a no-op
  auto [k0, id0] = heap.PopMin();
  EXPECT_EQ(id0, 0u);
  EXPECT_DOUBLE_EQ(k0, 1.0);
  auto [k1, id1] = heap.PopMin();
  EXPECT_EQ(id1, 2u);
  EXPECT_DOUBLE_EQ(k1, 3.0);
  EXPECT_EQ(heap.PopMin().second, 1u);
  EXPECT_TRUE(heap.empty());
}

TEST(DaryHeapTest, RandomizedAgainstSort) {
  Rng rng(42);
  for (int round = 0; round < 20; ++round) {
    std::size_t n = 1 + rng.Uniform(200);
    DaryHeap heap;
    heap.Reset(n);
    std::vector<double> key(n, std::numeric_limits<double>::infinity());
    for (std::size_t ops = 0; ops < 3 * n; ++ops) {
      auto id = static_cast<std::uint32_t>(rng.Uniform(n));
      double k = rng.UniformDouble() * 10.0;
      heap.PushOrDecrease(id, k);
      if (k < key[id]) key[id] = k;
    }
    std::vector<std::pair<double, std::uint32_t>> expected;
    for (std::uint32_t id = 0; id < n; ++id) {
      if (key[id] < std::numeric_limits<double>::infinity()) {
        expected.emplace_back(key[id], id);
      }
    }
    std::sort(expected.begin(), expected.end());
    std::vector<std::pair<double, std::uint32_t>> actual;
    while (!heap.empty()) actual.push_back(heap.PopMin());
    EXPECT_EQ(actual, expected);
  }
}

TEST(DaryHeapTest, HeapifyMatchesIndividualPushes) {
  Rng rng(7);
  std::size_t n = 300;
  std::vector<double> keys(n, std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.7)) keys[i] = rng.UniformDouble();
  }
  DaryHeap heapified;
  heapified.Heapify(keys.data(), static_cast<std::uint32_t>(n));
  DaryHeap pushed;
  pushed.Reset(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (keys[i] < std::numeric_limits<double>::infinity()) {
      pushed.PushOrDecrease(i, keys[i]);
    }
  }
  ASSERT_EQ(heapified.size(), pushed.size());
  while (!pushed.empty()) {
    EXPECT_EQ(heapified.PopMin(), pushed.PopMin());
  }
}

TEST(ThreadPoolTest, RunAllCompletesEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<int> results(100, 0);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back([&results, i] { results[i] = i * i; });
  }
  pool.RunAll(tasks);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(results[i], i * i);
}

TEST(ThreadPoolTest, EmptyBatchAndRepeatedBatches) {
  ThreadPool pool(2);
  pool.RunAll({});
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks(10, [&counter] { ++counter; });
  for (int round = 0; round < 20; ++round) pool.RunAll(tasks);
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, CallerMakesProgressOnTinyPool) {
  // Even a 1-thread pool whose worker is busy cannot stall RunAll, since
  // the calling thread drains the batch itself.
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> outer;
  outer.push_back([&] {
    std::vector<std::function<void()>> inner(5, [&counter] { ++counter; });
    pool.RunAll(inner);  // nested RunAll from a worker thread
  });
  outer.push_back([&counter] { ++counter; });
  pool.RunAll(outer);
  EXPECT_EQ(counter.load(), 6);
}

TEST(ThreadPoolTest, SubmitRunsDetachedTasks) {
  std::atomic<int> counter{0};
  std::mutex mu;
  std::condition_variable cv;
  ThreadPool pool(2);
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&] {
      if (counter.fetch_add(1) + 1 == 50) {
        // Notify under the mutex: the waiter checks the predicate under
        // it, so the cv cannot be destroyed mid-notify.
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return counter.load() == 50; }));
}

TEST(KeyedTaskQueueTest, PerKeyOrderingAcrossConcurrentKeys) {
  ThreadPool pool(4);
  KeyedTaskQueue queue(&pool);
  constexpr std::size_t kKeys = 5;
  constexpr int kTasksPerKey = 40;
  std::vector<std::vector<int>> seen(kKeys);
  std::vector<std::mutex> mus(kKeys);
  for (int i = 0; i < kTasksPerKey; ++i) {
    for (std::size_t key = 0; key < kKeys; ++key) {
      queue.Submit(key, [&, key, i] {
        // Per-key ordering means no lock is needed for correctness; the
        // mutex only gives the vector a sane cross-thread view.
        std::lock_guard<std::mutex> lock(mus[key]);
        seen[key].push_back(i);
      });
      // Tasks that queue behind a running one may be coalesced; slow the
      // producer enough that most run. Ordering is what this asserts —
      // executed indices must be strictly increasing per key.
      if (i % 8 == 0) std::this_thread::yield();
    }
  }
  queue.Drain();
  for (std::size_t key = 0; key < kKeys; ++key) {
    std::lock_guard<std::mutex> lock(mus[key]);
    ASSERT_FALSE(seen[key].empty()) << "key " << key;
    for (std::size_t j = 1; j < seen[key].size(); ++j) {
      EXPECT_LT(seen[key][j - 1], seen[key][j]) << "key " << key;
    }
    // Nothing runs after drain, and the last submission for a key is
    // never coalesced away — it is exactly the one that must win.
    EXPECT_EQ(seen[key].back(), kTasksPerKey - 1) << "key " << key;
  }
}

TEST(KeyedTaskQueueTest, SupersededPendingTasksCoalesce) {
  ThreadPool pool(1);
  KeyedTaskQueue queue(&pool);
  // Block the key's running slot so every later submission parks as the
  // single pending task and supersedes the previous one.
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> last_ran{-1};
  queue.Submit(1, [&] {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return gate_open; });
  });
  for (int i = 0; i < 10; ++i) {
    queue.Submit(1, [&, i] { last_ran.store(i); });
  }
  EXPECT_TRUE(queue.Busy(1));
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  queue.Drain();
  // Of the 10 parked submissions only the last survives; the other 9
  // were elided while pending.
  EXPECT_EQ(last_ran.load(), 9);
  EXPECT_EQ(queue.coalesced(), 9u);
  EXPECT_FALSE(queue.Busy(1));
}

}  // namespace
}  // namespace q::util
