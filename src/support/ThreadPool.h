//===-- ThreadPool.h - Shared work-stealing thread pool ---------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The work-stealing thread pool behind the batched slice engine (one
/// per analysis session) and the slice daemon's request execution.
/// The analyses themselves — points-to, mod-ref, SDG construction —
/// run sequentially. The pool follows the Chase-Lev deque discipline: each
/// worker owns a deque it pushes and pops at the bottom (LIFO, cache
/// warm), while idle workers steal from the top (FIFO, oldest — and
/// typically largest — subtask first). Tasks submitted from outside
/// the pool land in a shared injection queue.
///
/// Determinism contract: the pool itself makes no ordering promises —
/// batch answers stay byte-identical across thread counts because
/// each item computes over the frozen graph into its own pre-sized
/// result slot (see DESIGN.md section 11).
///
/// Budget governance is cooperative: parallelFor() takes an optional
/// SharedBudgetGate and stops handing out new indices once the gate
/// trips, so a deadline or step cap cancels the remaining queue
/// without interrupting an index mid-flight.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SUPPORT_THREADPOOL_H
#define THINSLICER_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace tsl {

class SharedBudgetGate;

/// Work-stealing pool of `Threads - 1` worker threads; the thread
/// calling parallelFor() participates as the extra lane, so Threads
/// names the total concurrency. Threads == 1 spawns nothing and every
/// operation runs inline on the caller — the single-threaded path is
/// the plain sequential loop, with no pool machinery on it.
class ThreadPool {
public:
  /// \p Threads = total concurrency including the calling thread;
  /// 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned Threads = 0);

  /// Drains every queued task, then joins the workers: a future
  /// obtained from submit() before destruction is always satisfied.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Total concurrency (workers + the participating caller).
  unsigned concurrency() const { return NumWorkers + 1; }
  /// Threads actually spawned (0 for a Threads == 1 pool).
  unsigned numWorkers() const { return NumWorkers; }

  /// Submits one task. The future rethrows anything the task threw.
  /// Called from a worker of this pool, the task goes to that
  /// worker's own deque (stealable by the others); from any other
  /// thread it goes to the shared injection queue. With no workers
  /// the task runs inline, here, before submit returns.
  template <typename F>
  auto submit(F &&Fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto Task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(Fn));
    std::future<R> Fut = Task->get_future();
    schedule([Task] { (*Task)(); });
    return Fut;
  }

  /// Runs Fn(0) .. Fn(N-1), each exactly once unless cancelled,
  /// blocking until every started index finished. Indices are handed
  /// out dynamically (an atomic cursor), so imbalanced work
  /// self-balances. Runs inline on the caller — no task, no thread —
  /// when the pool has no workers, N <= 1, or MaxConcurrency <= 1.
  ///
  /// \p MaxConcurrency caps the lanes used (0 = concurrency()).
  /// \p Gate, when non-null, is checked between indices: once it is
  /// exhausted — or the budget it wraps was preemptively cancelled by
  /// the watchdog — no further index starts (indices already running
  /// finish). The first exception thrown by Fn is captured per-task,
  /// cancels the remaining indices through \p Gate (reason
  /// "exception"), and is rethrown here on the caller; the pool's
  /// workers survive and the pool stays usable.
  void parallelFor(std::size_t N, const std::function<void(std::size_t)> &Fn,
                   unsigned MaxConcurrency = 0,
                   SharedBudgetGate *Gate = nullptr);

  /// Tasks executed to completion (parallelFor lanes count as one
  /// task per lane).
  uint64_t tasksExecuted() const {
    return TasksExecuted.load(std::memory_order_relaxed);
  }
  /// Tasks taken from another worker's deque.
  uint64_t tasksStolen() const {
    return TasksStolen.load(std::memory_order_relaxed);
  }

private:
  struct Worker {
    std::mutex Mu;
    std::deque<std::function<void()>> Deque;
    std::thread Thread;
  };

  void schedule(std::function<void()> Task);
  void workerLoop(unsigned Id);

  /// Dequeues and runs one task — own deque bottom, then the
  /// injection queue, then a steal sweep — and returns true; false
  /// when every queue was empty. \p SelfId is ~0u for non-worker
  /// threads (helpers waiting in parallelFor).
  bool runOne(unsigned SelfId);

  unsigned NumWorkers = 0;
  std::vector<std::unique_ptr<Worker>> Workers;

  std::mutex InjectMu; ///< Guards Inject and the sleep protocol.
  std::condition_variable WorkCV;
  std::deque<std::function<void()>> Inject;
  /// Tasks sitting in any queue (injection + every deque). The CV
  /// predicate, so a worker never sleeps through a push to a deque it
  /// could steal from.
  std::atomic<std::size_t> Pending{0};
  bool Stopping = false; ///< Guarded by InjectMu.

  std::atomic<uint64_t> TasksExecuted{0};
  std::atomic<uint64_t> TasksStolen{0};
};

} // namespace tsl

#endif // THINSLICER_SUPPORT_THREADPOOL_H
