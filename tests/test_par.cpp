// Tests for the thread pool and the parallel loop helpers: full coverage of
// the index space, exception propagation, nested-free deadlock safety on a
// one-thread pool, and chunked iteration.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "par/thread_pool.h"

namespace {

using omega::par::ThreadPool;

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.emplace_back([&counter] { counter.fetch_add(1); });
  }
  pool.run_blocking(std::move(tasks));
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, EmptyBatchIsNoop) {
  ThreadPool pool(2);
  pool.run_blocking({});
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([] { throw std::runtime_error("boom"); });
  tasks.emplace_back([] {});
  EXPECT_THROW(pool.run_blocking(std::move(tasks)), std::runtime_error);
}

TEST(ThreadPool, AllTasksRunEvenWhenOneThrows) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 20; ++i) {
    tasks.emplace_back([&ran, i] {
      ran.fetch_add(1);
      if (i == 3) throw std::runtime_error("one failure");
    });
  }
  EXPECT_THROW(pool.run_blocking(std::move(tasks)), std::runtime_error);
  EXPECT_EQ(ran.load(), 20);
}

TEST(ThreadPool, RethrowsEarliestSubmittedError) {
  // Multiple tasks fail; run_blocking must rethrow the failure of the
  // earliest-submitted task, not whichever thread lost the race. With tasks
  // 7 and 2 both throwing, the batch must always report task 2.
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 10; ++i) {
      tasks.emplace_back([i] {
        if (i == 7) throw std::runtime_error("task 7");
        if (i == 2) throw std::runtime_error("task 2");
      });
    }
    try {
      pool.run_blocking(std::move(tasks));
      FAIL() << "expected run_blocking to throw";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "task 2");
    }
  }
}

TEST(ThreadPool, WorkerThrownErrorReachesTheCaller) {
  // Deterministically force the *worker* thread (not the task-stealing
  // caller) to run the throwing task: a pool of size 1 gives two lanes, and
  // a 2-party barrier inside both tasks means each lane takes exactly one.
  // Whichever lane runs the throwing task, the caller must see the error.
  ThreadPool pool(1);
  std::mutex mutex;
  std::condition_variable cv;
  int arrived = 0;
  auto rendezvous = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    ++arrived;
    cv.notify_all();
    cv.wait(lock, [&] { return arrived >= 2; });
  };
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([&] {
    rendezvous();
    throw std::runtime_error("worker lane failure");
  });
  tasks.emplace_back([&] { rendezvous(); });
  try {
    pool.run_blocking(std::move(tasks));
    FAIL() << "expected run_blocking to throw";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "worker lane failure");
  }
}

TEST(ThreadPool, NonStdExceptionPropagates) {
  ThreadPool pool(2);
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([] { throw std::string("not derived from std::exception"); });
  EXPECT_THROW(pool.run_blocking(std::move(tasks)), std::string);
}

TEST(ThreadPool, SequentialBatches) {
  ThreadPool pool(2);
  int value = 0;  // unsynchronized on purpose: batches are barriers
  for (int round = 0; round < 10; ++round) {
    std::vector<std::function<void()>> tasks;
    tasks.emplace_back([&value] { ++value; });
    pool.run_blocking(std::move(tasks));
  }
  EXPECT_EQ(value, 10);
}

class PoolSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PoolSizes, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(GetParam());
  const std::size_t n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  omega::par::parallel_for(pool, 0, n, 64, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PoolSizes, ::testing::Values(1, 2, 4, 8));

TEST(ThreadPoolSubmit, FutureSynchronizesWithTheTask) {
  ThreadPool pool(1);
  int value = 0;
  auto done = pool.submit([&] { value = 42; });
  done.get();  // publishes the worker's write
  EXPECT_EQ(value, 42);
}

TEST(ThreadPoolSubmit, SerializedSubmitsRunInOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    // One task in flight at a time — the streaming prefetch discipline.
    pool.submit([&order, i] { order.push_back(i); }).get();
  }
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPoolSubmit, ExceptionArrivesThroughTheFuture) {
  ThreadPool pool(2);
  auto failing = pool.submit([] { throw std::runtime_error("io failed"); });
  EXPECT_THROW(failing.get(), std::runtime_error);
  // The pool survives: batch dispatch and further submits still work.
  auto ok = pool.submit([] {});
  EXPECT_NO_THROW(ok.get());
}

TEST(ParallelFor, EmptyAndSingleRanges) {
  ThreadPool pool(2);
  int count = 0;
  omega::par::parallel_for(pool, 5, 5, 1, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
  std::atomic<int> one{0};
  omega::par::parallel_for(pool, 7, 8, 16, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    one.fetch_add(1);
  });
  EXPECT_EQ(one.load(), 1);
}

TEST(ParallelFor, ReductionMatchesSerial) {
  ThreadPool pool(4);
  const std::size_t n = 100'000;
  std::atomic<long long> sum{0};
  omega::par::parallel_for(pool, 0, n, 1'000, [&](std::size_t i) {
    sum.fetch_add(static_cast<long long>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), static_cast<long long>(n) * (n - 1) / 2);
}

}  // namespace
