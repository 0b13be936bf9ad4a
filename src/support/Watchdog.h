//===-- Watchdog.h - Preemptive wall-clock deadline enforcement -*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cooperative BudgetGate only works when a stage polls it; a stage
/// stuck in a non-polling loop (or an injected Stall fault) would blow
/// straight through the wall-clock deadline. The Watchdog closes that
/// hole: while armed it sleeps until the budget's deadline and then
/// sets the budget's atomic cancel flag, which every gate poll and
/// every SharedBudgetGate spend observes. The stage is stopped at its
/// next poll and degrades through the same sound fallback the budget
/// path uses, tagged "watchdog". Scope-bound: arm
/// around one stage computation, disarm (join) on destruction.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SUPPORT_WATCHDOG_H
#define THINSLICER_SUPPORT_WATCHDOG_H

#include "support/Budget.h"

#include <condition_variable>
#include <mutex>
#include <thread>

namespace tsl {

/// RAII deadline enforcer for one governed computation. No-op unless
/// the budget exists, has a wall-clock limit, and has been started —
/// the ungoverned path spawns no thread and stays byte-identical.
class Watchdog {
public:
  explicit Watchdog(const AnalysisBudget *Budget);
  ~Watchdog();

  Watchdog(const Watchdog &) = delete;
  Watchdog &operator=(const Watchdog &) = delete;

  /// True when a deadline thread is running (test hook).
  bool armed() const { return Thread.joinable(); }

private:
  void run(std::chrono::steady_clock::time_point Deadline);

  const AnalysisBudget *B;
  std::mutex Mu;
  std::condition_variable Cv;
  bool Disarmed = false;
  std::thread Thread;
};

} // namespace tsl

#endif // THINSLICER_SUPPORT_WATCHDOG_H
