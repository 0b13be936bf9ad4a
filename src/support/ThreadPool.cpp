//===-- ThreadPool.cpp - Fork-join pool for slice batches ------------------==//

#include "support/ThreadPool.h"

#include <atomic>
#include <exception>

using namespace tsl;

/// One parallelFor call: the range, the cursor its lanes share, and
/// the first exception a lane caught.
struct ThreadPool::Loop {
  Loop(std::size_t N, const std::function<void(std::size_t)> &Fn)
      : N(N), Fn(Fn) {}

  const std::size_t N;
  const std::function<void(std::size_t)> &Fn;
  std::atomic<std::size_t> Next{0};
  std::atomic<bool> Abort{false};
  std::mutex ErrMu;
  std::exception_ptr Err;
};

ThreadPool::ThreadPool(unsigned Threads) {
  if (Threads == 0)
    Threads = std::thread::hardware_concurrency();
  if (Threads == 0)
    Threads = 1;
  Workers.reserve(Threads - 1);
  for (unsigned I = 1; I < Threads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> L(Mu);
    Stopping = true;
  }
  WorkCV.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::runLane(Loop &L) {
  while (!L.Abort.load(std::memory_order_relaxed)) {
    std::size_t I = L.Next.fetch_add(1, std::memory_order_relaxed);
    if (I >= L.N)
      return;
    try {
      L.Fn(I);
    } catch (...) {
      std::lock_guard<std::mutex> G(L.ErrMu);
      if (!L.Err)
        L.Err = std::current_exception();
      L.Abort.store(true, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::workerLoop() {
  std::unique_lock<std::mutex> L(Mu);
  for (;;) {
    WorkCV.wait(L, [this] { return Stopping || Seats != 0; });
    if (Stopping)
      return;
    --Seats;
    ++Active;
    Loop &Job = *Cur;
    L.unlock();
    runLane(Job);
    L.lock();
    if (--Active == 0)
      DoneCV.notify_one();
  }
}

void ThreadPool::parallelFor(std::size_t N,
                             const std::function<void(std::size_t)> &Fn,
                             unsigned MaxConcurrency) {
  unsigned Lanes = concurrency();
  if (MaxConcurrency && MaxConcurrency < Lanes)
    Lanes = MaxConcurrency;
  if (N < Lanes)
    Lanes = static_cast<unsigned>(N);

  if (Lanes <= 1) {
    // Sequential path: a plain loop on the caller, no synchronization.
    for (std::size_t I = 0; I != N; ++I)
      Fn(I);
    return;
  }

  std::lock_guard<std::mutex> Call(CallMu);
  Loop Job(N, Fn);
  {
    std::lock_guard<std::mutex> L(Mu);
    Cur = &Job;
    Seats = Lanes - 1;
  }
  WorkCV.notify_all();
  runLane(Job); // The caller is one lane.
  {
    // The caller's lane ends only once the cursor is past N (or a lane
    // threw), so seats no worker took yet have nothing left to run:
    // withdraw them, then wait for the workers that did join.
    std::unique_lock<std::mutex> L(Mu);
    Seats = 0;
    DoneCV.wait(L, [this] { return Active == 0; });
    Cur = nullptr;
  }
  if (Job.Err)
    std::rethrow_exception(Job.Err);
}
