//===-- threadpool_test.cpp - Fork-join pool tests -----------------------------==//
//
// The pool contract the batched slice engine leans on: every index of
// a parallelFor runs exactly once, a one-thread pool is the plain
// sequential loop, MaxConcurrency caps the lanes, and the first
// exception reaches the caller while the pool stays usable.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace tsl;

namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.concurrency(), 4u);
  EXPECT_EQ(Pool.numWorkers(), 3u);
  constexpr std::size_t N = 1000;
  std::vector<std::atomic<unsigned>> Hits(N);
  // Several rounds on one pool: each call is a fresh loop.
  for (unsigned Round = 0; Round != 5; ++Round)
    Pool.parallelFor(N, [&](std::size_t I) { Hits[I].fetch_add(1); });
  for (std::size_t I = 0; I != N; ++I)
    EXPECT_EQ(Hits[I].load(), 5u) << "index " << I;
}

TEST(ThreadPool, SingleThreadPoolRunsInlineWithoutWorkers) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.numWorkers(), 0u);
  EXPECT_EQ(Pool.concurrency(), 1u);
  const std::thread::id Caller = std::this_thread::get_id();
  std::vector<std::size_t> Order;
  bool AllOnCaller = true;
  Pool.parallelFor(17, [&](std::size_t I) {
    AllOnCaller &= std::this_thread::get_id() == Caller;
    Order.push_back(I);
  });
  EXPECT_TRUE(AllOnCaller);
  ASSERT_EQ(Order.size(), 17u);
  for (std::size_t I = 0; I != Order.size(); ++I)
    EXPECT_EQ(Order[I], I);
}

// No more than MaxConcurrency lanes (caller included) ever run Fn at
// once; a cap of 1 keeps the whole loop on the caller.
TEST(ThreadPool, MaxConcurrencyCapsTheLanes) {
  ThreadPool Pool(4);
  for (unsigned Cap : {1u, 2u, 3u}) {
    std::atomic<unsigned> Running{0}, Peak{0}, Ran{0};
    const std::thread::id Caller = std::this_thread::get_id();
    std::atomic<bool> OffCaller{false};
    Pool.parallelFor(
        64,
        [&](std::size_t) {
          unsigned Now = Running.fetch_add(1) + 1;
          unsigned Old = Peak.load();
          while (Now > Old && !Peak.compare_exchange_weak(Old, Now))
            ;
          if (std::this_thread::get_id() != Caller)
            OffCaller.store(true);
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          Running.fetch_sub(1);
          Ran.fetch_add(1);
        },
        Cap);
    EXPECT_EQ(Ran.load(), 64u) << "cap " << Cap;
    EXPECT_LE(Peak.load(), Cap) << "cap " << Cap;
    if (Cap == 1) {
      EXPECT_FALSE(OffCaller.load());
    }
  }
}

TEST(ThreadPool, ParallelForRethrowsTheFirstExceptionOnTheCaller) {
  ThreadPool Pool(4);
  std::atomic<unsigned> Ran{0};
  EXPECT_THROW(Pool.parallelFor(100,
                                [&](std::size_t I) {
                                  if (I == 3)
                                    throw std::logic_error("index 3");
                                  Ran.fetch_add(1);
                                }),
               std::logic_error);
  // The throw stops un-started indices; started ones finished.
  EXPECT_LT(Ran.load(), 100u);
}

// A throwing loop leaves no worker dead or stuck: the same pool then
// serves complete loops, round after round (runs under TSan via the
// "parallel" label).
TEST(ThreadPool, ThrowWithoutGateStillRethrowsAndPoolSurvives) {
  ThreadPool Pool(3);
  for (unsigned Round = 0; Round != 20; ++Round) {
    EXPECT_THROW(Pool.parallelFor(32,
                                  [&](std::size_t I) {
                                    if (I == Round % 32)
                                      throw std::logic_error("first");
                                  }),
                 std::logic_error);
    std::atomic<unsigned> After{0};
    Pool.parallelFor(64, [&](std::size_t) { After.fetch_add(1); });
    EXPECT_EQ(After.load(), 64u);
  }
}

} // namespace
