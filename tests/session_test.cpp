//===-- session_test.cpp - AnalysisSession memoization tests --------------------==//
//
// The pipeline-layer contract (pipeline/Session.h): artifact identity
// on repeated requests, invalidation of exactly the downstream cone on
// option changes (one artifact per stage: the upstream ones survive,
// switching back rebuilds the cone), a full reset on source
// replacement, and budget degradation identical to the hand-built
// one-shot pipeline. The suite carries the "pipeline" ctest
// label: like "engine", it runs under the TSL_SANITIZE=address and
// TSL_SANITIZE=thread trees (session-owned engines fan batches across
// worker pools over graphs the session keeps warm).
//
//===----------------------------------------------------------------------===//

#include "eval/Experiments.h"
#include "eval/Workload.h"
#include "lang/Lower.h"
#include "modref/ModRef.h"
#include "pipeline/Session.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"
#include "slicer/Engine.h"
#include "slicer/Report.h"
#include "slicer/Slicer.h"
#include "support/Budget.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

using namespace tsl;

namespace {

/// A small program with a call, heap flow through a field and an
/// array, and a downcast, so every stage (points-to, mod-ref, SDG,
/// slicing) has real work to do.
const char *Source = R"(
class Cell { var v: int; }
def store(c: Cell, x: int) {
  c.v = x;
}
def main() {
  var c = new Cell();
  var box: Object[] = new Object[2];
  store(c, readInt());
  box[0] = c;
  var got = (Cell) box[0];
  print(got.v);
}
)";

PTAOptions noObjOptions() {
  PTAOptions O;
  O.ObjSensContainers = false;
  return O;
}

SDGOptions csOptions() {
  SDGOptions O;
  O.ContextSensitive = true;
  return O;
}

uint64_t hitsOf(const AnalysisSession &S, SessionStage St) {
  return S.stageReports()[static_cast<unsigned>(St)].CacheHits;
}

uint64_t missesOf(const AnalysisSession &S, SessionStage St) {
  return S.stageReports()[static_cast<unsigned>(St)].CacheMisses;
}

uint64_t invalidatedOf(const AnalysisSession &S, SessionStage St) {
  return S.stageReports()[static_cast<unsigned>(St)].CacheInvalidated;
}

/// Outcome equality: Status/Reason/Fallback/StepsUsed. Seconds is wall
/// time and legitimately differs between two runs of the same work, so
/// StageReport::str() is not byte-comparable.
void expectSameOutcome(const StageReport &Got, const StageReport &Want) {
  EXPECT_EQ(Got.Stage, Want.Stage);
  EXPECT_EQ(Got.Status, Want.Status) << Got.Stage;
  EXPECT_EQ(Got.Reason, Want.Reason) << Got.Stage;
  EXPECT_EQ(Got.Fallback, Want.Fallback) << Got.Stage;
  EXPECT_EQ(Got.StepsUsed, Want.StepsUsed) << Got.Stage;
}

std::vector<unsigned> lineNumbers(const SliceResult &S) {
  std::vector<unsigned> Out;
  for (const SourceLine &L : S.sourceLines())
    Out.push_back(L.Line);
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// (a) Artifact identity on repeated requests
//===----------------------------------------------------------------------===//

TEST(Session, RepeatedRequestsReturnTheIdenticalArtifact) {
  AnalysisSession S(Source);
  Program *P1 = S.program();
  ASSERT_NE(P1, nullptr) << S.diagnostics().str();
  PointsToResult *Pta1 = S.pointsTo();
  SDG *G1 = S.sdg();
  SliceEngine *E1 = S.engine();

  EXPECT_EQ(S.program(), P1);
  EXPECT_EQ(S.pointsTo(), Pta1);
  EXPECT_EQ(S.sdg(), G1);
  EXPECT_EQ(S.engine(), E1);

  // Each stage computed exactly once; the second round was all hits.
  for (SessionStage St : {SessionStage::Compile, SessionStage::PTA,
                          SessionStage::SDGBuild, SessionStage::Engine}) {
    EXPECT_EQ(missesOf(S, St), 1u) << sessionStageName(St);
    EXPECT_GE(hitsOf(S, St), 1u) << sessionStageName(St);
  }
}

TEST(Session, SliceQueriesAreMemoizedPerSeedAndMode) {
  AnalysisSession S(Source);
  ASSERT_NE(S.program(), nullptr) << S.diagnostics().str();
  const Instr *Seed = seedAtLine(*S.program(), 12); // print(got.v)
  ASSERT_NE(Seed, nullptr);

  const SliceResult *R1 = S.sliceBackwardCached(Seed, SliceMode::Thin);
  ASSERT_NE(R1, nullptr);
  EXPECT_EQ(S.sliceBackwardCached(Seed, SliceMode::Thin), R1);
  EXPECT_EQ(hitsOf(S, SessionStage::Slice), 1u);
  EXPECT_EQ(missesOf(S, SessionStage::Slice), 1u);

  // A different mode is a different query.
  const SliceResult *R2 = S.sliceBackwardCached(Seed, SliceMode::Traditional);
  ASSERT_NE(R2, nullptr);
  EXPECT_NE(R2, R1);
  EXPECT_EQ(missesOf(S, SessionStage::Slice), 2u);
  EXPECT_GE(R2->sizeStmts(), R1->sizeStmts());
}

//===----------------------------------------------------------------------===//
// (b) Option changes invalidate exactly the downstream cone
//===----------------------------------------------------------------------===//

TEST(Session, PtaOptionChangeKeepsTheProgramAndDropsItsCone) {
  AnalysisSession S(Source);
  Program *P = S.program();
  ASSERT_NE(P, nullptr) << S.diagnostics().str();
  ASSERT_NE(S.pointsTo(), nullptr);
  ASSERT_NE(S.sdg(), nullptr);
  uint64_t CompileEpoch = S.epoch(SessionStage::Compile);
  uint64_t PtaEpoch = S.epoch(SessionStage::PTA);
  uint64_t SliceEpoch = S.epoch(SessionStage::Slice);

  S.setPTAOptions(noObjOptions());
  // Downstream cone bumped and dropped, compile untouched.
  EXPECT_EQ(S.epoch(SessionStage::Compile), CompileEpoch);
  EXPECT_EQ(S.epoch(SessionStage::PTA), PtaEpoch + 1);
  EXPECT_EQ(S.epoch(SessionStage::Slice), SliceEpoch + 1);
  EXPECT_EQ(invalidatedOf(S, SessionStage::Compile), 0u);
  EXPECT_EQ(invalidatedOf(S, SessionStage::PTA), 1u);
  EXPECT_EQ(invalidatedOf(S, SessionStage::SDGBuild), 1u);

  // The program is the same object; PTA and SDG are built for the new
  // options.
  EXPECT_EQ(S.program(), P);
  ASSERT_NE(S.pointsTo(), nullptr);
  ASSERT_NE(S.sdg(), nullptr);
  EXPECT_EQ(missesOf(S, SessionStage::PTA), 2u);

  // The session holds one variant: switching back rebuilds the cone
  // (counted as invalidated) and keeps the program again.
  S.setPTAOptions(PTAOptions());
  EXPECT_EQ(invalidatedOf(S, SessionStage::PTA), 2u);
  EXPECT_EQ(invalidatedOf(S, SessionStage::SDGBuild), 2u);
  EXPECT_EQ(S.program(), P);
  ASSERT_NE(S.pointsTo(), nullptr);
  ASSERT_NE(S.sdg(), nullptr);
  EXPECT_EQ(missesOf(S, SessionStage::Compile), 1u);
  EXPECT_EQ(missesOf(S, SessionStage::PTA), 3u);
  EXPECT_EQ(missesOf(S, SessionStage::SDGBuild), 3u);
}

TEST(Session, SdgOptionChangeReusesThePointsToRun) {
  AnalysisSession S(Source);
  Program *P = S.program();
  ASSERT_NE(P, nullptr) << S.diagnostics().str();
  PointsToResult *Pta = S.pointsTo();
  ASSERT_NE(S.sdg(), nullptr);
  uint64_t PtaEpoch = S.epoch(SessionStage::PTA);
  uint64_t SdgEpoch = S.epoch(SessionStage::SDGBuild);

  // CI -> CS: the points-to run (and its epoch) survive; only the
  // SDG..Slice cone drops.
  S.setSDGOptions(csOptions());
  EXPECT_EQ(S.epoch(SessionStage::PTA), PtaEpoch);
  EXPECT_EQ(S.epoch(SessionStage::SDGBuild), SdgEpoch + 1);
  EXPECT_EQ(invalidatedOf(S, SessionStage::PTA), 0u);
  EXPECT_EQ(invalidatedOf(S, SessionStage::SDGBuild), 1u);
  SDG *CS = S.sdg();
  ASSERT_NE(CS, nullptr);
  EXPECT_GT(CS->numHeapParamNodes(), 0u);
  EXPECT_EQ(S.pointsTo(), Pta);
  ModRefResult *MR = S.modRef();
  EXPECT_EQ(missesOf(S, SessionStage::PTA), 1u);

  // And back: the CI graph is rebuilt (the CS one counted dropped);
  // program, points-to and mod-ref are the same objects.
  S.setSDGOptions(SDGOptions());
  EXPECT_EQ(invalidatedOf(S, SessionStage::SDGBuild), 2u);
  SDG *CI = S.sdg();
  ASSERT_NE(CI, nullptr);
  EXPECT_EQ(CI->numHeapParamNodes(), 0u);
  EXPECT_EQ(S.program(), P);
  EXPECT_EQ(S.pointsTo(), Pta);
  EXPECT_EQ(S.modRef(), MR);
  EXPECT_EQ(missesOf(S, SessionStage::PTA), 1u);
  EXPECT_EQ(missesOf(S, SessionStage::ModRef), 1u);
  EXPECT_EQ(missesOf(S, SessionStage::SDGBuild), 3u);
  EXPECT_EQ(invalidatedOf(S, SessionStage::ModRef), 0u);
}

TEST(Session, NoOpOptionSetDoesNotInvalidate) {
  AnalysisSession S(Source);
  SDG *G = S.sdg();
  ASSERT_NE(G, nullptr);
  uint64_t SdgEpoch = S.epoch(SessionStage::SDGBuild);
  S.setPTAOptions(PTAOptions());
  S.setSDGOptions(SDGOptions());
  EXPECT_EQ(S.epoch(SessionStage::SDGBuild), SdgEpoch);
  EXPECT_EQ(S.sdg(), G);
}

//===----------------------------------------------------------------------===//
// (c) Source replacement resets everything
//===----------------------------------------------------------------------===//

TEST(Session, SourceReplacementDestroysEveryArtifact) {
  AnalysisSession S(Source);
  ASSERT_NE(S.program(), nullptr) << S.diagnostics().str();
  S.sdg();
  S.engine();
  const Instr *Seed = seedAtLine(*S.program(), 12);
  S.sliceBackwardCached(Seed, SliceMode::Thin);

  uint64_t Epochs[NumSessionStages];
  for (unsigned I = 0; I != NumSessionStages; ++I)
    Epochs[I] = S.epoch(static_cast<SessionStage>(I));

  S.setSource("def main() { print(1); }");

  // Every stage epoch bumped, every cached artifact counted destroyed
  // (mod-ref was never computed — the CI build does not need it).
  for (unsigned I = 0; I != NumSessionStages; ++I)
    EXPECT_EQ(S.epoch(static_cast<SessionStage>(I)), Epochs[I] + 1)
        << sessionStageName(static_cast<SessionStage>(I));
  for (SessionStage St :
       {SessionStage::Compile, SessionStage::PTA, SessionStage::SDGBuild,
        SessionStage::Engine, SessionStage::Slice})
    EXPECT_EQ(invalidatedOf(S, St), 1u) << sessionStageName(St);
  EXPECT_EQ(invalidatedOf(S, SessionStage::ModRef), 0u);

  // The session recompiles the new source on demand.
  Program *P = S.program();
  ASSERT_NE(P, nullptr) << S.diagnostics().str();
  EXPECT_EQ(missesOf(S, SessionStage::Compile), 2u);
  EXPECT_NE(S.sdg(), nullptr);
}

TEST(Session, CompileFailureIsMemoizedAndRecoverable) {
  AnalysisSession S("def main() { this does not parse }");
  EXPECT_EQ(S.program(), nullptr);
  EXPECT_FALSE(S.diagnostics().str().empty());
  EXPECT_EQ(S.sdg(), nullptr);
  // The failed compile is cached, not retried.
  EXPECT_EQ(S.program(), nullptr);
  EXPECT_EQ(missesOf(S, SessionStage::Compile), 1u);

  S.setSource("def main() { print(1); }");
  ASSERT_NE(S.program(), nullptr) << S.diagnostics().str();
  const Instr *Seed = seedAtLine(*S.program(), 1);
  ASSERT_NE(Seed, nullptr);
  EXPECT_NE(S.sliceBackwardCached(Seed, SliceMode::Thin), nullptr);
}

//===----------------------------------------------------------------------===//
// (d) Budget exhaustion degrades identically to the one-shot pipeline
//===----------------------------------------------------------------------===//

TEST(Session, BudgetedSdgDegradesLikeOneShot) {
  // A deterministic step cap (no wall clock): the SDG node budget
  // trips on this program in both pipelines.
  AnalysisBudget B;
  B.MaxSdgNodes = 4;
  B.start();

  // The hand-built one-shot pipeline, budget threaded by hand exactly
  // as tools/thinslice.cpp does for a single query.
  DiagnosticEngine Diag;
  std::unique_ptr<Program> P = compileThinJ(Source, Diag);
  ASSERT_NE(P, nullptr) << Diag.str();
  PTAOptions PO;
  PO.Budget = &B;
  std::unique_ptr<PointsToResult> PTA = runPointsTo(*P, PO);
  SDGOptions SO;
  SO.Budget = &B;
  std::unique_ptr<SDG> G = buildSDG(*P, *PTA, nullptr, SO);
  ASSERT_TRUE(G->report().degraded());

  AnalysisSession S(Source);
  S.setBudget(&B);
  SDG *GS = S.sdg();
  ASSERT_NE(GS, nullptr);
  expectSameOutcome(GS->report(), G->report());
  EXPECT_EQ(GS->numStmtNodes(), G->numStmtNodes());
  EXPECT_EQ(GS->numEdges(), G->numEdges());
  expectSameOutcome(S.pointsTo()->report(), PTA->report());

  // The governed status block the CLI prints is assembled identically.
  PipelineStatus OneShot;
  OneShot.add(PTA->report());
  OneShot.add(G->report());
  PipelineStatus FromSession = S.status();
  ASSERT_EQ(FromSession.Stages.size(), OneShot.Stages.size());
  for (std::size_t I = 0; I != OneShot.Stages.size(); ++I)
    expectSameOutcome(FromSession.Stages[I], OneShot.Stages[I]);
  EXPECT_EQ(FromSession.complete(), OneShot.complete());
}

// The session runs a query like the one-shot CLI and the daemon do:
// one seed through the single-seed slicer, several seeds as one batch.
// Under a budget the two degrade differently, so each is pinned to its
// own reference.
TEST(Session, BudgetedSliceDegradesLikeOneShot) {
  AnalysisBudget B;
  B.MaxSlicePops = 2;
  B.start();

  DiagnosticEngine Diag;
  std::unique_ptr<Program> P = compileThinJ(Source, Diag);
  ASSERT_NE(P, nullptr) << Diag.str();
  PTAOptions PO;
  PO.Budget = &B;
  std::unique_ptr<PointsToResult> PTA = runPointsTo(*P, PO);
  SDGOptions SO;
  SO.Budget = &B;
  std::unique_ptr<SDG> G = buildSDG(*P, *PTA, nullptr, SO);
  const Instr *SeedOne = seedAtLine(*P, 12);
  ASSERT_NE(SeedOne, nullptr);
  SliceResult OneShot = sliceBackward(*G, SeedOne, SliceMode::Thin, &B);
  ASSERT_FALSE(OneShot.complete());

  AnalysisSession S(Source);
  S.setBudget(&B);
  ASSERT_NE(S.program(), nullptr) << S.diagnostics().str();
  const Instr *SeedSess = seedAtLine(*S.program(), 12);
  const SliceResult *Sess = S.sliceBackwardCached(SeedSess, SliceMode::Thin);
  ASSERT_NE(Sess, nullptr);
  EXPECT_EQ(Sess->complete(), OneShot.complete());
  EXPECT_EQ(Sess->degradedReason(), OneShot.degradedReason());
  EXPECT_EQ(Sess->sizeStmts(), OneShot.sizeStmts());
  EXPECT_EQ(lineNumbers(*Sess), lineNumbers(OneShot));

  // Several seeds: one batch, budgeted as a whole.
  SliceEngine Eng(*G);
  BatchOptions BO;
  BO.Mode = SliceMode::Thin;
  BO.Budget = &B;
  std::vector<SliceResult> Batch =
      Eng.sliceBackwardBatch({SeedOne, seedAtLine(*P, 11)}, BO);
  const SliceAnswer *Answer = S.slice(SliceQuery::backward(
      {SeedSess, seedAtLine(*S.program(), 11)}, SliceMode::Thin));
  ASSERT_NE(Answer, nullptr);
  const std::vector<SliceResult> *SessBatch = &Answer->Results;
  ASSERT_EQ(SessBatch->size(), Batch.size());
  for (std::size_t I = 0; I != Batch.size(); ++I) {
    EXPECT_FALSE(Batch[I].complete()) << I;
    EXPECT_EQ((*SessBatch)[I].complete(), Batch[I].complete()) << I;
    EXPECT_EQ((*SessBatch)[I].degradedReason(), Batch[I].degradedReason())
        << I;
    EXPECT_EQ((*SessBatch)[I].sizeStmts(), Batch[I].sizeStmts()) << I;
    EXPECT_EQ(lineNumbers((*SessBatch)[I]), lineNumbers(Batch[I])) << I;
  }
}

TEST(Session, BudgetChangeDestroysAnalysesButKeepsTheProgram) {
  AnalysisSession S(Source);
  Program *P = S.program();
  ASSERT_NE(P, nullptr) << S.diagnostics().str();
  ASSERT_NE(S.sdg(), nullptr);
  uint64_t CompileEpoch = S.epoch(SessionStage::Compile);

  AnalysisBudget B;
  B.MaxSdgNodes = 4;
  B.start();
  S.setBudget(&B);

  // Cached analyses embed the budget outcome they were computed under,
  // so they are destroyed (not re-keyed); compilation is ungoverned
  // and survives.
  EXPECT_EQ(S.epoch(SessionStage::Compile), CompileEpoch);
  EXPECT_EQ(invalidatedOf(S, SessionStage::PTA), 1u);
  EXPECT_EQ(invalidatedOf(S, SessionStage::SDGBuild), 1u);
  EXPECT_EQ(S.program(), P);
  ASSERT_NE(S.sdg(), nullptr);
  EXPECT_TRUE(S.sdg()->report().degraded());

  // Clearing the budget invalidates again; the complete artifacts come
  // back.
  S.setBudget(nullptr);
  ASSERT_NE(S.sdg(), nullptr);
  EXPECT_FALSE(S.sdg()->report().degraded());
}

//===----------------------------------------------------------------------===//
// Warm-session batched slicing (the thread-sanitizer target)
//===----------------------------------------------------------------------===//

TEST(Session, MultiWorkerBatchesOnOneWarmSession) {
  WorkloadProgram W =
      padWorkload(debuggingCases().front().Prog, "SS", /*PadClasses=*/2,
                  /*MethodsPerClass=*/4);
  AnalysisSession S(W.Source);
  S.setThreads(4); // The engine fans out on the session's pool.
  ASSERT_NE(S.program(), nullptr) << S.diagnostics().str();
  std::vector<const Instr *> Seeds = collectSliceSeeds(*S.program(), 16);
  ASSERT_FALSE(Seeds.empty());

  SliceEngine *E = S.engine();
  ASSERT_NE(E, nullptr);
  BatchOptions BO;
  BO.Mode = SliceMode::Thin;
  BO.Jobs = 4;
  std::vector<SliceResult> First = E->sliceBackwardBatch(Seeds, BO);
  // Same warm engine again, across its worker pool: the session hands
  // out the identical engine and the results are reproducible.
  ASSERT_EQ(S.engine(), E);
  std::vector<SliceResult> Second = E->sliceBackwardBatch(Seeds, BO);
  ASSERT_EQ(First.size(), Second.size());
  for (std::size_t I = 0; I != First.size(); ++I)
    EXPECT_TRUE(First[I].nodeSet() == Second[I].nodeSet()) << I;
  EXPECT_EQ(missesOf(S, SessionStage::Engine), 1u);
}

//===----------------------------------------------------------------------===//
// The eval drivers ride the session registry unchanged
//===----------------------------------------------------------------------===//

TEST(Session, ExperimentTablesAreStableAcrossRuns) {
  // The eval drivers share one session per workload; a second run is
  // served from warm caches and must format byte-identically (the
  // inspection and ablation tables carry no timings).
  std::string T2a =
      formatInspectionTable("Table 2", runDebuggingExperiment());
  std::string T2b =
      formatInspectionTable("Table 2", runDebuggingExperiment());
  EXPECT_EQ(T2a, T2b);

  std::string Aa = formatAblation(runContextAblation());
  std::string Ab = formatAblation(runContextAblation());
  EXPECT_EQ(Aa, Ab);
}

//===----------------------------------------------------------------------===//
// Telemetry rendering
//===----------------------------------------------------------------------===//

TEST(Session, StatsStringListsEveryStage) {
  AnalysisSession S(Source);
  ASSERT_NE(S.sdg(), nullptr);
  std::string Stats = S.statsString();
  EXPECT_NE(Stats.find("session stages (memoization):"), std::string::npos);
  for (unsigned I = 0; I != NumSessionStages; ++I)
    EXPECT_NE(Stats.find(std::string("  ") +
                         sessionStageName(static_cast<SessionStage>(I)) +
                         ": hits="),
              std::string::npos)
        << sessionStageName(static_cast<SessionStage>(I));
}

//===----------------------------------------------------------------------===//
// Failure isolation: stage crashes, retries, taint, watchdog
//===----------------------------------------------------------------------===//

namespace {

/// Resets the injector (and restores the stall cap) around a test.
struct InjectorGuard {
  InjectorGuard() { clean(); }
  ~InjectorGuard() { clean(); }
  static void clean() {
    FaultInjector::instance().reset();
    FaultInjector::instance().setStallCapMs(100);
  }
};

const Instr *anySeed(const Program &P) {
  const Instr *Last = nullptr;
  for (const auto &M : P.methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs())
        if (I->loc().Line)
          Last = I.get();
  return Last;
}

} // namespace

TEST(Session, TransientStageCrashIsRetriedToSuccess) {
  InjectorGuard Guard;
  // The fault fires once and disarms; the session's bounded retry
  // reruns the stage clean, so the caller never sees the crash.
  FaultInjector::instance().arm("pta.solve", /*AtPoll=*/1, FaultKind::Throw,
                                /*Transient=*/true);
  AnalysisSession S(Source);
  PointsToResult *PTA = S.pointsTo();
  ASSERT_NE(PTA, nullptr);
  EXPECT_TRUE(S.lastError().isOk());
  EXPECT_GE(S.stageRetries(), 1u);
  EXPECT_EQ(S.stageFailures(), 0u);
  // The retried artifact ran clean: it is NOT degraded and NOT
  // tainted, so a re-request is a pure cache hit.
  EXPECT_FALSE(PTA->report().degraded());
  EXPECT_EQ(S.pointsTo(), PTA);
}

TEST(Session, PersistentStageCrashFailsWithStatusAndCachesNothing) {
  InjectorGuard Guard;
  FaultInjector::instance().arm("pta.solve", /*AtPoll=*/1, FaultKind::Throw);
  AnalysisSession S(Source);
  EXPECT_EQ(S.pointsTo(), nullptr);
  EXPECT_FALSE(S.lastError().isOk());
  EXPECT_EQ(S.lastError().code(), StatusCode::FaultInjected);
  uint64_t FailuresAfterFirst = S.stageFailures();
  EXPECT_GE(FailuresAfterFirst, 1u);

  // The failure was NOT memoized: a second request retries the stage
  // from scratch (and fails again while the fault stays armed).
  EXPECT_EQ(S.pointsTo(), nullptr);
  EXPECT_GT(S.stageFailures(), FailuresAfterFirst);

  // Downstream accessors propagate the failure instead of crashing.
  EXPECT_EQ(S.sdg(), nullptr);
  EXPECT_EQ(S.lastError().code(), StatusCode::FaultInjected);

  // Once the fault clears, the SAME session heals with no reset.
  FaultInjector::instance().reset();
  PointsToResult *PTA = S.pointsTo();
  ASSERT_NE(PTA, nullptr);
  EXPECT_TRUE(S.lastError().isOk());
  EXPECT_FALSE(PTA->report().degraded());
  ASSERT_NE(S.sdg(), nullptr);
}

TEST(Session, TaintedDegradedArtifactIsRecomputedAfterFaultClears) {
  InjectorGuard Guard;
  // A Degrade fault produces a valid-but-degraded artifact. It is
  // served for the request that computed it, but marked tainted: the
  // next request evicts it (and its downstream cone) and recomputes.
  FaultInjector::instance().arm("pta.solve", /*AtPoll=*/1,
                                FaultKind::Degrade);
  AnalysisSession S(Source);
  PointsToResult *Faulty = S.pointsTo();
  ASSERT_NE(Faulty, nullptr);
  EXPECT_TRUE(Faulty->report().degraded());
  EXPECT_EQ(Faulty->report().Reason, "fault:pta.solve");
  const SliceResult *FaultySlice =
      S.sliceBackwardCached(anySeed(*S.program()), SliceMode::Thin);
  ASSERT_NE(FaultySlice, nullptr);

  FaultInjector::instance().reset();
  uint64_t InvalidatedBefore = invalidatedOf(S, SessionStage::PTA);
  PointsToResult *Healed = S.pointsTo();
  ASSERT_NE(Healed, nullptr);
  EXPECT_FALSE(Healed->report().degraded());
  EXPECT_GT(invalidatedOf(S, SessionStage::PTA), InvalidatedBefore);

  // The healed answer matches a fault-free session byte for byte.
  const SliceResult *HealedSlice =
      S.sliceBackwardCached(anySeed(*S.program()), SliceMode::Thin);
  ASSERT_NE(HealedSlice, nullptr);
  EXPECT_TRUE(HealedSlice->complete());
  AnalysisSession Fresh(Source);
  const SliceResult *Ref =
      Fresh.sliceBackwardCached(anySeed(*Fresh.program()), SliceMode::Thin);
  ASSERT_NE(Ref, nullptr);
  EXPECT_EQ(lineNumbers(*HealedSlice), lineNumbers(*Ref));
  EXPECT_EQ(HealedSlice->sizeStmts(), Ref->sizeStmts());
}

TEST(Session, WatchdogRescuesAStalledStage) {
  InjectorGuard Guard;
  // The stage stops polling usefully (a Stall fault busy-waits); only
  // the watchdog's preemptive cancel can stop it before the stall
  // cap. With a 10 s cap and a 50 ms deadline, finishing quickly
  // proves the watchdog did the rescue — and the reason says so.
  FaultInjector::instance().arm("pta.solve", /*AtPoll=*/1, FaultKind::Stall);
  FaultInjector::instance().setStallCapMs(10'000);
  AnalysisBudget B;
  B.BudgetMs = 50;
  B.start();
  AnalysisSession S(Source);
  S.setBudget(&B);
  auto T0 = std::chrono::steady_clock::now();
  PointsToResult *PTA = S.pointsTo();
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
  ASSERT_NE(PTA, nullptr);
  EXPECT_TRUE(PTA->report().degraded());
  EXPECT_EQ(PTA->report().Reason, "watchdog");
  EXPECT_LT(ElapsedMs, 5000) << "stall was not rescued by the watchdog";
}

TEST(Session, CheckedAccessorsReportStructuredStatus) {
  InjectorGuard Guard;
  AnalysisSession S(Source);
  // Caller error: a null seed is InvalidArgument, not a crash.
  EXPECT_EQ(S.slice(SliceQuery::backward({nullptr}, SliceMode::Thin)),
            nullptr);
  EXPECT_EQ(S.lastError().code(), StatusCode::InvalidArgument);

  Program *P = S.program();
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(S.lastError().isOk());
  // So is a query whose shape combines exclusive fields, or whose
  // context sensitivity differs from the session's SDG options.
  SliceQuery Conflicting = SliceQuery::backward({anySeed(*P)}, SliceMode::Thin);
  Conflicting.Forward = true;
  Conflicting.Expand = true;
  EXPECT_EQ(S.slice(Conflicting), nullptr);
  EXPECT_EQ(S.lastError().code(), StatusCode::InvalidArgument);
  EXPECT_EQ(S.slice(SliceQuery::backward({anySeed(*P)}, SliceMode::Thin,
                                         /*ContextSensitive=*/true)),
            nullptr);
  EXPECT_EQ(S.lastError().code(), StatusCode::InvalidArgument);

  const SliceAnswer *Good =
      S.slice(SliceQuery::backward({anySeed(*P)}, SliceMode::Thin));
  ASSERT_NE(Good, nullptr) << S.lastError().str();
  EXPECT_TRUE(S.lastError().isOk());
  EXPECT_TRUE(Good->Results.front().complete());

  // A compile failure surfaces as a ParseError/SemaError Status.
  S.setSource("def main() { var x = }");
  EXPECT_EQ(S.program(), nullptr);
  const Status &BadP = S.lastError();
  EXPECT_TRUE(BadP.code() == StatusCode::ParseError ||
              BadP.code() == StatusCode::SemaError);
  EXPECT_FALSE(BadP.message().empty());
}

TEST(Session, StatsStringReportsFailureIsolationTelemetry) {
  InjectorGuard Guard;
  FaultInjector::instance().arm("pta.solve", /*AtPoll=*/1, FaultKind::Throw);
  AnalysisSession S(Source);
  EXPECT_EQ(S.pointsTo(), nullptr);
  std::string Stats = S.statsString();
  EXPECT_NE(Stats.find("failure isolation:"), std::string::npos) << Stats;
  EXPECT_NE(Stats.find("stage_failures="), std::string::npos) << Stats;
}
