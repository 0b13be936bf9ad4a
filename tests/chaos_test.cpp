//===-- chaos_test.cpp - Seeded fault-schedule chaos suite ----------------------==//
//
// Replays >1000 seeded probabilistic fault schedules (see
// FaultInjector::armRandomSchedule) through whole analysis sessions,
// the interpreter, and thin expansion, asserting the fail-safe
// contract end to end:
//
//   - no crash: no injected Throw/Stall/Degrade fault, at any poll of
//     any stage, under any thread count, escapes a boundary;
//   - complete-or-soundly-degraded: every produced result is either
//     complete or carries a degradation reason, and a stage that
//     crashed past its retries yields a structured Status (nothing is
//     cached) rather than a partial artifact;
//   - healing: after the fault schedule is disarmed, a query on the
//     SAME session is byte-identical to a fault-free session's answer
//     (tainted artifacts were evicted, failures were never cached).
//
// The suite carries the "chaos" ctest label: the TSL_SANITIZE=address
// and TSL_SANITIZE=thread trees run it (`ctest -L chaos`) so every
// schedule is also leak- and race-checked.
//
//===----------------------------------------------------------------------===//

#include "dyn/Interp.h"
#include "lang/Lower.h"
#include "pipeline/Session.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"
#include "slicer/Expansion.h"
#include "slicer/Slicer.h"
#include "support/Budget.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

using namespace tsl;

namespace {

/// Exercises every pipeline stage: a call, heap flow through a field
/// and an array, a loop, and a downcast.
const char *Source = R"(
class Cell { var v: int; }
def store(c: Cell, x: int) {
  c.v = x;
}
def main() {
  var c = new Cell();
  var box: Object[] = new Object[2];
  var i = 0;
  while (i < 3) {
    store(c, i);
    i = i + 1;
  }
  box[0] = c;
  var got = (Cell) box[0];
  print("v");
  print("w");
}
)";

/// Resets the injector (and restores the stall cap) on entry and
/// exit, so no test leaks an armed schedule into the next.
struct InjectorGuard {
  InjectorGuard() { clean(); }
  ~InjectorGuard() { clean(); }
  static void clean() {
    FaultInjector::instance().reset();
    FaultInjector::instance().setStallCapMs(100);
  }
};

/// The last instruction carrying the highest source line — a
/// deterministic seed for identical compiles of the same source.
const Instr *lastSeed(const Program &P) {
  const Instr *Best = nullptr;
  for (const auto &M : P.methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs())
        if (I->loc().Line && (!Best || I->loc().Line >= Best->loc().Line))
          Best = I.get();
  return Best;
}

/// Canonical rendering for byte-identical comparison across sessions.
std::string renderSlice(const SliceResult &R, const Program &P) {
  std::string Out = std::to_string(R.sizeStmts()) + "|";
  for (const SourceLine &L : R.sourceLines()) {
    Out += L.M->qualifiedName(P.strings());
    Out += ':';
    Out += std::to_string(L.Line);
    Out += ';';
  }
  return Out;
}

/// Fault-free baseline for one SDG mode, computed on a fresh session.
std::string baselineSlice(bool ContextSensitive) {
  InjectorGuard::clean();
  AnalysisSession S(Source);
  if (ContextSensitive) {
    SDGOptions SO;
    SO.ContextSensitive = true;
    S.setSDGOptions(SO);
  }
  Program *P = S.program();
  EXPECT_NE(P, nullptr);
  const SliceResult *R = S.sliceBackwardCached(lastSeed(*P), SliceMode::Thin);
  EXPECT_NE(R, nullptr);
  EXPECT_TRUE(R->complete());
  return renderSlice(*R, *P);
}

} // namespace

// 500 schedules x threads {1,4}; odd schedules run the
// context-sensitive representation so the mod-ref and tabulation
// fault points are in play too.
TEST(Chaos, SeededSessionSchedulesCompleteOrDegradeAndHeal) {
  InjectorGuard Guard;
  const std::string BaselineCI = baselineSlice(false);
  const std::string BaselineCS = baselineSlice(true);

  FaultInjector &FI = FaultInjector::instance();
  uint64_t Complete = 0, Degraded = 0, Failed = 0;
  for (unsigned Threads : {1u, 4u}) {
    for (uint64_t Schedule = 0; Schedule != 500; ++Schedule) {
      const bool CS = (Schedule & 1) != 0;
      FI.reset();
      FI.setStallCapMs(2); // Un-rescued stalls must stay fast.
      FI.armRandomSchedule(Schedule * 2 + (Threads == 4 ? 1 : 0));

      AnalysisBudget B;
      B.BudgetMs = 60'000; // Watchdog armed, but only stalls reach it.
      B.start();
      AnalysisSession S(Source);
      S.setThreads(Threads);
      S.setBudget(&B);
      if (CS) {
        SDGOptions SO;
        SO.ContextSensitive = true;
        S.setSDGOptions(SO);
      }

      Program *P = S.program();
      ASSERT_NE(P, nullptr); // Compilation is ungoverned.
      const SliceResult *R = S.sliceBackwardCached(lastSeed(*P),
                                                   SliceMode::Thin);
      if (!R) {
        // A stage crashed past its retries: the failure must be
        // structured, and nothing may have been cached (verified by
        // the healing check below succeeding from scratch).
        EXPECT_FALSE(S.lastError().isOk())
            << "schedule " << Schedule << " threads " << Threads;
        ++Failed;
      } else if (!R->complete()) {
        EXPECT_FALSE(R->degradedReason().empty())
            << "schedule " << Schedule << " threads " << Threads;
        ++Degraded;
      } else {
        ++Complete;
      }

      // Disarm and drop governance: the SAME session must now answer
      // byte-identically to a fault-free session.
      FI.reset();
      S.setBudget(nullptr);
      Program *P2 = S.program();
      ASSERT_NE(P2, nullptr);
      const SliceResult *Healed =
          S.sliceBackwardCached(lastSeed(*P2), SliceMode::Thin);
      ASSERT_NE(Healed, nullptr)
          << "schedule " << Schedule << " threads " << Threads << ": "
          << S.lastError().str();
      EXPECT_TRUE(Healed->complete())
          << "schedule " << Schedule << " threads " << Threads;
      EXPECT_EQ(renderSlice(*Healed, *P2), CS ? BaselineCS : BaselineCI)
          << "schedule " << Schedule << " threads " << Threads;
    }
  }
  // The schedule generator must actually produce fault activity, or
  // this suite silently tests nothing.
  EXPECT_GT(Degraded + Failed, 100u);
  EXPECT_GT(Complete, 0u);
}

// Mid-incremental chaos: seeded schedules armed across the
// function-granular setSource() fast path (fault points pta.update
// and modref.update). Whatever combination of stage updates a
// schedule knocks out, setSource must not throw, and the post-edit
// answer on the SAME session — queried after the schedule clears —
// must be byte-identical to a cold session built from the edited
// source. A third of the schedules additionally pin a low-poll fault
// on one of the two update points so each is guaranteed to fire.
TEST(Chaos, SeededMidIncrementalSchedulesMatchColdRebuild) {
  InjectorGuard Guard;
  // The edit rewrites store()'s body through a fresh alias: real
  // retraction work for every stage update. Same line count, so the
  // seed line is stable across the edit.
  std::string Edited = Source;
  const std::string Old = "  c.v = x;";
  const std::string New = "  var d = c; d.v = x + 1 - 1;";
  const std::size_t At = Edited.find(Old);
  ASSERT_NE(At, std::string::npos);
  Edited.replace(At, Old.size(), New);

  // Cold fault-free baselines on the edited source, per SDG mode.
  auto editedBaseline = [&](bool ContextSensitive) {
    InjectorGuard::clean();
    AnalysisSession S(Edited);
    if (ContextSensitive) {
      SDGOptions SO;
      SO.ContextSensitive = true;
      S.setSDGOptions(SO);
    }
    Program *P = S.program();
    EXPECT_NE(P, nullptr);
    const SliceResult *R =
        S.sliceBackwardCached(lastSeed(*P), SliceMode::Thin);
    EXPECT_NE(R, nullptr);
    EXPECT_TRUE(R->complete());
    return renderSlice(*R, *P);
  };
  const std::string BaselineCI = editedBaseline(false);
  const std::string BaselineCS = editedBaseline(true);

  FaultInjector &FI = FaultInjector::instance();
  const char *UpdatePoints[] = {"pta.update", "modref.update"};
  uint64_t UpdateFired[2] = {0, 0};
  uint64_t Fallbacks = 0, CleanApplies = 0;
  for (unsigned Threads : {1u, 4u}) {
    for (uint64_t Schedule = 0; Schedule != 150; ++Schedule) {
      const bool CS = (Schedule & 1) != 0;
      // Warm the session fault-free: the chaos targets the update,
      // not the initial build.
      InjectorGuard::clean();
      AnalysisSession S(Source);
      S.setThreads(Threads);
      S.setIncremental(true);
      if (CS) {
        SDGOptions SO;
        SO.ContextSensitive = true;
        S.setSDGOptions(SO);
      }
      Program *P = S.program();
      ASSERT_NE(P, nullptr);
      ASSERT_NE(S.modRef(), nullptr); // put mod-ref on the update path
      ASSERT_NE(S.sliceBackwardCached(lastSeed(*P), SliceMode::Thin),
                nullptr);

      FI.reset();
      FI.setStallCapMs(2);
      FI.armRandomSchedule(0x3000 + Schedule * 2 + (Threads == 4 ? 1 : 0));
      if (Schedule % 3 == 0) {
        // K's low bit is the SDG mode (Schedule & 1); the next two
        // bits pick the point and the fault kind, so the pinned faults
        // cycle through every (mode, point, kind) combination.
        const uint64_t K = Schedule / 3;
        FI.arm(UpdatePoints[(K / 2) % 2], /*AtPoll=*/1,
               (K / 4) % 2 ? FaultKind::Throw : FaultKind::Degrade);
      }

      S.setSource(Edited); // must not throw, whatever fires inside
      EXPECT_EQ(S.incrementalStats().Attempts, 1u)
          << "schedule " << Schedule << " threads " << Threads;
      for (int I = 0; I != 2; ++I)
        if (FI.fired().count(UpdatePoints[I]))
          ++UpdateFired[I];
      if (S.incrementalStats().StageFallbacks ||
          S.incrementalStats().ColdFallbacks)
        ++Fallbacks;
      else
        ++CleanApplies;

      // Disarm: the same session must now answer byte-identically to
      // a cold session on the edited source.
      FI.reset();
      Program *P2 = S.program();
      ASSERT_NE(P2, nullptr);
      const SliceResult *R =
          S.sliceBackwardCached(lastSeed(*P2), SliceMode::Thin);
      ASSERT_NE(R, nullptr)
          << "schedule " << Schedule << " threads " << Threads << ": "
          << S.lastError().str();
      EXPECT_TRUE(R->complete())
          << "schedule " << Schedule << " threads " << Threads;
      EXPECT_EQ(renderSlice(*R, *P2), CS ? BaselineCS : BaselineCI)
          << "schedule " << Schedule << " threads " << Threads;
    }
  }
  // Every update point must have been knocked out at least once, and
  // some schedules must have let the fast path run to completion.
  EXPECT_GT(UpdateFired[0], 0u) << "pta.update never fired";
  EXPECT_GT(UpdateFired[1], 0u) << "modref.update never fired";
  EXPECT_GT(Fallbacks, 0u);
  EXPECT_GT(CleanApplies, 0u);
}

// The interpreter's fault points (interp.step / interp.output) are
// not on the session path: chaos them directly. No schedule may
// escape interpret() as an exception — crashes surface as
// InterpResult::Crashed, budget trips as HitLimit.
TEST(Chaos, SeededInterpreterSchedulesNeverEscape) {
  InjectorGuard Guard;
  DiagnosticEngine Diag;
  std::unique_ptr<Program> P = compileThinJ(Source, Diag);
  ASSERT_NE(P, nullptr) << Diag.str();

  InterpResult Baseline = interpret(*P);
  ASSERT_TRUE(Baseline.Completed);

  FaultInjector &FI = FaultInjector::instance();
  uint64_t Crashed = 0, Limited = 0;
  for (uint64_t Schedule = 0; Schedule != 200; ++Schedule) {
    FI.reset();
    FI.setStallCapMs(2);
    FI.armRandomSchedule(0x1000 + Schedule);
    AnalysisBudget B;
    B.BudgetMs = 60'000;
    B.start();
    InterpOptions O;
    O.Budget = &B;
    InterpResult R = interpret(*P, O); // Must not throw.
    if (R.Crashed) {
      EXPECT_FALSE(R.Error.empty()) << "schedule " << Schedule;
      ++Crashed;
    } else if (!R.Completed) {
      EXPECT_TRUE(R.HitLimit || !R.Error.empty()) << "schedule " << Schedule;
      ++Limited;
    } else {
      EXPECT_EQ(R.Output, Baseline.Output) << "schedule " << Schedule;
    }
  }
  EXPECT_GT(Crashed + Limited, 10u);

  // After the schedules clear, a plain run is byte-identical again.
  FI.reset();
  InterpResult Clean = interpret(*P);
  ASSERT_TRUE(Clean.Completed);
  EXPECT_EQ(Clean.Output, Baseline.Output);
}

// Thin expansion (fault point expand.round) is the remaining gated
// loop off the session path: every schedule must yield a
// complete-or-degraded expansion, never an escape.
TEST(Chaos, SeededExpansionSchedulesCompleteOrDegrade) {
  InjectorGuard Guard;
  // Fault-free upstream artifacts; only the expansion itself is
  // chaosed below.
  AnalysisSession S(Source);
  Program *P = S.program();
  ASSERT_NE(P, nullptr) << S.diagnostics().str();
  PointsToResult *PTA = S.pointsTo();
  ASSERT_NE(PTA, nullptr);
  SDG *G = S.sdg();
  ASSERT_NE(G, nullptr);
  const Instr *Seed = lastSeed(*P);

  ThinExpansion CleanExp(*G, *PTA);
  SliceResult Baseline = CleanExp.expandToTraditional(Seed);
  ASSERT_TRUE(Baseline.complete());
  const std::string BaselineStr = renderSlice(Baseline, *P);

  FaultInjector &FI = FaultInjector::instance();
  uint64_t Degraded = 0;
  for (uint64_t Schedule = 0; Schedule != 300; ++Schedule) {
    FI.reset();
    FI.setStallCapMs(2);
    FI.armRandomSchedule(0x2000 + Schedule);
    // The random schedules spread AtPoll over 1..40, but this small
    // fixture runs only a handful of expansion rounds, so most armed
    // expand.round faults never reach their poll. Top up a third of
    // the schedules with a low-poll fault (still a pure function of
    // the schedule number) so the loop under test degrades often
    // enough to be measured.
    if (Schedule % 3 == 0)
      FI.arm("expand.round", /*AtPoll=*/1 + (Schedule / 3) % 3,
             Schedule % 2 ? FaultKind::Throw : FaultKind::Degrade);
    AnalysisBudget B;
    B.BudgetMs = 60'000;
    B.start();
    SliceResult R(G, BitSet(G->numNodes()));
    try {
      ThinExpansion Exp(*G, *PTA, &B);
      R = Exp.expandToTraditional(Seed);
    } catch (const FaultInjectedError &) {
      // An expansion-level Throw fault is allowed to surface here —
      // expansion is driven directly, not through a session boundary —
      // but it must be exactly FaultInjectedError, nothing else.
      ++Degraded;
      continue;
    }
    if (!R.complete()) {
      EXPECT_FALSE(R.degradedReason().empty()) << "schedule " << Schedule;
      ++Degraded;
    } else {
      EXPECT_EQ(renderSlice(R, *P), BaselineStr) << "schedule " << Schedule;
    }
  }
  // ~1/3 arming probability per point: plenty of schedules degrade.
  EXPECT_GT(Degraded, 10u);

  FI.reset();
  ThinExpansion HealedExp(*G, *PTA);
  SliceResult Healed = HealedExp.expandToTraditional(Seed);
  ASSERT_TRUE(Healed.complete());
  EXPECT_EQ(renderSlice(Healed, *P), BaselineStr);
}

// 200 seeded schedules against the snapshot warm-start path: a third
// pin the "snapshot.load" point (alternating Throw/Degrade), the rest
// roll the dice. loadSnapshot() must never throw; whatever fires, the
// session either warm-started or recorded a fallback, and its
// post-disarm answer is byte-identical to a fault-free cold session
// (never stale, never partial).
TEST(Chaos, SeededSnapshotLoadSchedulesNeverGoStale) {
  InjectorGuard Guard;
  const std::string Snap =
      (std::filesystem::temp_directory_path() / "tsl_chaos_snapshot.tslsnap")
          .string();
  {
    AnalysisSession Saver{std::string(Source)};
    ASSERT_TRUE(Saver.saveSnapshot(Snap).isOk()) << Saver.lastError().str();
  }
  const std::string Baseline = baselineSlice(false);

  FaultInjector &FI = FaultInjector::instance();
  uint64_t LoadFired = 0, WarmStarts = 0, Fallbacks = 0;
  for (uint64_t Schedule = 0; Schedule != 200; ++Schedule) {
    FI.reset();
    FI.setStallCapMs(2);
    FI.armRandomSchedule(0x4000 + Schedule);
    if (Schedule % 3 == 0)
      FI.arm("snapshot.load", /*AtPoll=*/1,
             Schedule % 2 ? FaultKind::Throw : FaultKind::Degrade);

    AnalysisSession S{std::string(Source)};
    Status L = S.loadSnapshot(Snap); // must not throw, whatever fires
    EXPECT_EQ(S.snapshotStats().Loads + S.snapshotStats().Fallbacks, 1u)
        << "schedule " << Schedule;
    if (S.snapshotStats().Loads)
      ++WarmStarts;
    else
      ++Fallbacks;
    if (FI.fired().count("snapshot.load")) {
      ++LoadFired;
      EXPECT_FALSE(L.isOk()) << "schedule " << Schedule;
      EXPECT_FALSE(S.snapshotStats().LastFallbackReason.empty());
    }

    // Disarm: warm-started or fallen back, the session answers
    // byte-identically to the fault-free baseline.
    FI.reset();
    Program *P = S.program();
    ASSERT_NE(P, nullptr) << "schedule " << Schedule;
    const SliceResult *R = S.sliceBackwardCached(lastSeed(*P), SliceMode::Thin);
    ASSERT_NE(R, nullptr)
        << "schedule " << Schedule << ": " << S.lastError().str();
    EXPECT_TRUE(R->complete()) << "schedule " << Schedule;
    EXPECT_EQ(renderSlice(*R, *P), Baseline) << "schedule " << Schedule;
  }
  EXPECT_GT(LoadFired, 0u) << "snapshot.load never fired";
  EXPECT_GT(WarmStarts, 0u);
  EXPECT_GT(Fallbacks, 0u);
  std::filesystem::remove(Snap);
}

// Deterministic replay: the same seed arms the same schedule and
// produces the same outcome, which is what makes a chaos failure
// reproducible from its logged seed.
TEST(Chaos, SchedulesAreDeterministicallyReplayable) {
  InjectorGuard Guard;
  FaultInjector &FI = FaultInjector::instance();
  for (uint64_t Seed : {7ull, 42ull, 123456789ull}) {
    auto RunOnce = [&](uint64_t S) {
      FI.reset();
      FI.setStallCapMs(2);
      FI.armRandomSchedule(S);
      AnalysisBudget B;
      B.BudgetMs = 60'000;
      B.start();
      AnalysisSession Sess(Source);
      Sess.setBudget(&B);
      Program *P = Sess.program();
      EXPECT_NE(P, nullptr);
      const SliceResult *R =
          Sess.sliceBackwardCached(lastSeed(*P), SliceMode::Thin);
      if (!R)
        return std::string("failed:") + Sess.lastError().str();
      if (!R->complete())
        return std::string("degraded:") + R->degradedReason();
      return std::string("complete:") + renderSlice(*R, *P);
    };
    EXPECT_EQ(RunOnce(Seed), RunOnce(Seed)) << "seed " << Seed;
  }
}
