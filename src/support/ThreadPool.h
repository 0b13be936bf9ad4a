//===-- ThreadPool.h - Fork-join pool for slice batches ---------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fork-join pool behind the batched slice engine (one per
/// analysis session, or one a caller of a standalone SliceEngine
/// constructs; the engine itself never creates threads). Its
/// only operation is parallelFor: a fixed set of workers joins the
/// caller on one index range at a time, taking indices from a shared
/// atomic cursor. The analyses themselves — points-to, mod-ref, SDG
/// construction — run sequentially, and the slice daemon runs each
/// request on its connection thread, not here.
///
/// Determinism contract: the pool makes no ordering promises — batch
/// answers stay byte-identical across thread counts because each
/// index computes over the frozen graph into its own pre-sized result
/// slot (see DESIGN.md section 11).
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SUPPORT_THREADPOOL_H
#define THINSLICER_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tsl {

/// A pool of `Threads - 1` worker threads; the thread calling
/// parallelFor() is the extra lane, so Threads names the total
/// concurrency. Threads == 1 spawns nothing and parallelFor runs the
/// plain sequential loop on the caller.
class ThreadPool {
public:
  /// \p Threads = total concurrency including the calling thread;
  /// 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned Threads = 0);

  /// Joins the workers. No parallelFor may be running.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Total concurrency (workers + the participating caller).
  unsigned concurrency() const { return numWorkers() + 1; }
  /// Threads actually spawned (0 for a Threads == 1 pool).
  unsigned numWorkers() const { return static_cast<unsigned>(Workers.size()); }

  /// Runs Fn(0) .. Fn(N-1), each exactly once, and returns when every
  /// index has finished. The caller is one lane and up to
  /// MaxConcurrency - 1 workers join it (0 = concurrency()); indices
  /// come from an atomic cursor, so imbalanced work self-balances.
  /// Runs inline on the caller when the pool has no workers, N <= 1,
  /// or MaxConcurrency == 1.
  ///
  /// The first exception thrown by Fn stops the remaining indices
  /// from starting and is rethrown here once every lane has finished;
  /// the pool stays usable. Concurrent callers take turns. Fn must
  /// not call parallelFor on the same pool.
  void parallelFor(std::size_t N, const std::function<void(std::size_t)> &Fn,
                   unsigned MaxConcurrency = 0);

private:
  struct Loop;

  void workerLoop();
  static void runLane(Loop &L);

  std::mutex CallMu; ///< Serializes parallelFor callers.

  std::mutex Mu; ///< Guards Cur, Seats, Active and Stopping.
  std::condition_variable WorkCV; ///< Seats opened, or stopping.
  std::condition_variable DoneCV; ///< Active dropped to 0.
  Loop *Cur = nullptr;  ///< The loop being served.
  unsigned Seats = 0;   ///< Workers still invited to join Cur.
  unsigned Active = 0;  ///< Workers running a lane of Cur.
  bool Stopping = false;

  /// Declared last: the workers use every member above.
  std::vector<std::thread> Workers;
};

} // namespace tsl

#endif // THINSLICER_SUPPORT_THREADPOOL_H
