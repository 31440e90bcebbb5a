#pragma once
// Fixed-size thread pool shared by the multithreaded CPU scanner (Table IV)
// and the GPU execution-model simulator (each worker plays one compute unit).
//
// Design notes:
//  * one condition variable, one mutex, FIFO queue — contention is irrelevant
//    because tasks are coarse (a grid position or a work-group batch);
//  * `run_blocking` lets the submitting thread participate in draining its
//    own batch, so a pool of size 1 still makes progress without deadlock and
//    single-core machines are not oversubscribed;
//  * every task runs under the telemetry scope its submitter was in
//    (util/telemetry.h Scope), whichever thread runs it, so a scan's pool
//    work records into that scan's scope.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace omega::util::telemetry {
class Counter;
class Histogram;
class Scope;
}

namespace omega::par {

class ThreadPool {
 public:
  /// Creates `threads` workers. `threads == 0` means "hardware concurrency".
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Runs `tasks` to completion; the calling thread also executes tasks.
  /// If tasks throw, the batch still drains fully (no task is left running),
  /// then the exception of the earliest-submitted failing task is rethrown —
  /// deterministic regardless of which worker ran which task first.
  void run_blocking(std::vector<std::function<void()>> tasks);

  /// Enqueues one fire-and-collect task and returns immediately; the future
  /// delivers the task's completion (or rethrows its exception) on get().
  /// Unlike run_blocking, the submitting thread does NOT participate — this
  /// is the overlap primitive the streaming scanner prefetches chunks with
  /// (IO on a pool thread while the caller computes).
  std::future<void> submit(std::function<void()> task);

 private:
  struct Batch;
  struct Item {
    Batch* batch = nullptr;
    std::size_t index = 0;  // submission order within the batch
    std::function<void()> task;
    util::telemetry::Scope* scope = nullptr;  // the submitter's
    std::shared_ptr<std::promise<void>> promise;  // submit() tasks only
  };
  void run_item(Item& item);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Item> queue_;
  bool stopping_ = false;
  // Process-wide telemetry (util/telemetry.h), resolved once per pool:
  // queue depth sampled at each enqueue, per-task wall latency, and a task
  // counter. The registry never deallocates, so these stay valid for the
  // pool's lifetime.
  util::telemetry::Histogram* queue_depth_hist_ = nullptr;
  util::telemetry::Histogram* task_seconds_hist_ = nullptr;
  util::telemetry::Counter* tasks_total_ = nullptr;
};

/// Work-stealing claim scheduler for coarse, ordered work items (the scan
/// engine's grid spans). Each worker owns a deque seeded with a contiguous
/// run of item indices; claim() pops the owner's queue from the FRONT (so a
/// worker walks its run in order, keeping DP-matrix relocation chains
/// intact), and when the owner's queue is dry it steals from the BACK of the
/// first non-empty victim in cyclic order — the item farthest from the
/// victim's current locality, so the victim's own relocation chain is hurt
/// least. Queues are mutex-guarded: items are coarse (milliseconds of work),
/// so claim cost is irrelevant and the simple locking is trivially correct.
class StealScheduler {
 public:
  explicit StealScheduler(std::size_t workers);

  [[nodiscard]] std::size_t workers() const noexcept { return queues_.size(); }

  /// Seeds worker `worker`'s queue with an ordered run of item indices.
  /// Setup-phase only: must complete (on one thread) before any claim().
  void assign(std::size_t worker, std::vector<std::size_t> items);

  struct Claim {
    std::size_t item = 0;
    bool stolen = false;  // came from another worker's queue
  };

  /// Claims the next item for `worker`; nullopt when every queue is empty.
  /// Thread-safe; each item is handed out exactly once.
  [[nodiscard]] std::optional<Claim> claim(std::size_t worker);

 private:
  struct Queue {
    std::mutex mutex;
    std::deque<std::size_t> items;
  };
  // unique_ptr keeps Queue addresses stable (mutexes are immovable).
  std::vector<std::unique_ptr<Queue>> queues_;
};

/// Parallel loop over [begin, end) with dynamic chunking.
/// `body(i)` is invoked exactly once per index, in unspecified order.
/// `grain` indices are claimed per atomic fetch to amortize overhead.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  std::size_t grain, const std::function<void(std::size_t)>& body);

}  // namespace omega::par
