//===-- parallel_test.cpp - Cross-thread-count determinism tests ----------------==//
//
// The hard requirement of the threaded session (DESIGN.md section
// 11): every artifact — points-to sets, mod-ref sets, the SDG, batch
// slices, and the eval tables — is byte-identical for every thread
// count. Each fixture computes full signatures at threads ∈ {1, 2, 8}
// and compares the bytes. The suite carries the "parallel" ctest
// label and runs in the TSL_SANITIZE=thread tree alongside "engine"
// and "pipeline".
//
//===----------------------------------------------------------------------===//

#include "eval/Experiments.h"
#include "eval/Generator.h"
#include "ir/Program.h"
#include "lang/Lower.h"
#include "modref/ModRef.h"
#include "pipeline/Session.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"
#include "sdg/SDGDot.h"
#include "slicer/Engine.h"
#include "slicer/Slicer.h"

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace tsl;

namespace {

const unsigned ThreadCounts[] = {1, 2, 8};

/// Every value-producing statement's merged points-to set plus the
/// call-graph shape, in program order: a full byte signature of one
/// points-to result.
std::string ptaSignature(const Program &P, const PointsToResult &PTA) {
  std::ostringstream OS;
  OS << "objects=" << PTA.objects().size()
     << ";cgnodes=" << PTA.callGraph().nodes().size()
     << ";cgedges=" << PTA.callGraph().edges().size() << "\n";
  for (const auto &M : P.methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs()) {
        if (!I->dest())
          continue;
        OS << M->id() << ":" << I->loc().Line << ":";
        PTA.pointsTo(I->dest()).forEach([&](unsigned Obj) {
          OS << " " << Obj;
        });
        OS << "\n";
      }
  return OS.str();
}

std::string modrefSignature(const Program &P, const ModRefResult &MR) {
  std::ostringstream OS;
  OS << "partitions=" << MR.numPartitions() << "\n";
  for (const auto &M : P.methods()) {
    OS << M->id() << " mod:";
    MR.modOf(M.get()).forEach([&](unsigned Id) { OS << " " << Id; });
    OS << " ref:";
    MR.refOf(M.get()).forEach([&](unsigned Id) { OS << " " << Id; });
    OS << "\n";
  }
  return OS.str();
}

std::vector<const Instr *> printSeeds(const Program &P) {
  std::vector<const Instr *> Seeds;
  for (const auto &M : P.methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs())
        if (isa<PrintInstr>(I.get()))
          Seeds.push_back(I.get());
  return Seeds;
}

std::string batchSignature(SliceEngine &E,
                           const std::vector<const Instr *> &Seeds,
                           unsigned Jobs) {
  BatchOptions BO;
  BO.Mode = SliceMode::Thin;
  BO.Jobs = Jobs;
  std::ostringstream OS;
  for (const SliceResult &R : E.sliceBackwardBatch(Seeds, BO)) {
    R.nodeSet().forEach([&](unsigned Node) { OS << Node << " "; });
    OS << "\n";
  }
  return OS.str();
}

/// One full pipeline pass at a given thread count, reduced to bytes.
struct PipelineSignature {
  std::string Pta, ModRef, Sdg, Slices;
};

PipelineSignature signatureAt(const std::string &Source, unsigned Threads) {
  AnalysisSession S(Source);
  S.setThreads(Threads);
  Program *P = S.program();
  EXPECT_NE(P, nullptr) << S.diagnostics().str();
  PipelineSignature Sig;
  Sig.Pta = ptaSignature(*P, *S.pointsTo());
  Sig.ModRef = modrefSignature(*P, *S.modRef());
  Sig.Sdg = exportDot(*S.sdg());
  Sig.Slices = batchSignature(*S.engine(), printSeeds(*P), Threads);
  return Sig;
}

class ParallelDeterminism : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelDeterminism, ArtifactsAreByteIdenticalAcrossThreadCounts) {
  const std::string Source = generateRandomProgram(GetParam());
  PipelineSignature Base = signatureAt(Source, ThreadCounts[0]);
  ASSERT_FALSE(Base.Pta.empty());
  ASSERT_FALSE(Base.Sdg.empty());
  for (unsigned I = 1; I != std::size(ThreadCounts); ++I) {
    PipelineSignature Other = signatureAt(Source, ThreadCounts[I]);
    EXPECT_EQ(Base.Pta, Other.Pta) << "threads=" << ThreadCounts[I];
    EXPECT_EQ(Base.ModRef, Other.ModRef) << "threads=" << ThreadCounts[I];
    EXPECT_EQ(Base.Sdg, Other.Sdg) << "threads=" << ThreadCounts[I];
    EXPECT_EQ(Base.Slices, Other.Slices) << "threads=" << ThreadCounts[I];
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminism,
                         ::testing::Values(3u, 7u, 23u));

// The context-sensitive cone too: heap formal/actual wiring consumes
// the mod-ref sets.
TEST(ParallelDeterminism, ContextSensitiveSdgIsByteIdentical) {
  const std::string Source = generateRandomProgram(11);
  std::string Base;
  for (unsigned Threads : ThreadCounts) {
    AnalysisSession S(Source);
    S.setThreads(Threads);
    ASSERT_NE(S.program(), nullptr);
    SDGOptions SO;
    SO.ContextSensitive = true;
    S.setSDGOptions(SO);
    std::string Dot = exportDot(*S.sdg());
    if (Base.empty())
      Base = Dot;
    else
      EXPECT_EQ(Base, Dot) << "threads=" << Threads;
  }
}

// Eval tables: the paper-table drivers run their whole pipeline under
// the configured thread count; the rendered bytes must not move.
TEST(ParallelDeterminism, DebuggingTableBytesAreThreadCountInvariant) {
  std::string Base;
  for (unsigned Threads : ThreadCounts) {
    resetEvalSessions();
    setEvalThreads(Threads);
    std::string Table =
        formatInspectionTable("Table 2", runDebuggingExperiment());
    if (Base.empty())
      Base = Table;
    else
      EXPECT_EQ(Base, Table) << "threads=" << Threads;
  }
  resetEvalSessions();
  setEvalThreads(1);
}

// A one-item batch must never touch a pool: no pool is created, no
// thread spawned, whatever Jobs says (the engine clamps workers to
// the item count and runs inline).
TEST(ParallelEngine, SingleItemBatchSpawnsNoPool) {
  DiagnosticEngine Diag;
  const std::string Source = generateRandomProgram(3);
  std::unique_ptr<Program> P = compileThinJ(Source, Diag);
  ASSERT_NE(P, nullptr) << Diag.str();
  std::unique_ptr<PointsToResult> PTA = runPointsTo(*P);
  std::unique_ptr<SDG> G = buildSDG(*P, *PTA, nullptr);

  std::vector<const Instr *> Seeds = printSeeds(*P);
  ASSERT_FALSE(Seeds.empty());

  SliceEngine E(*G);
  ASSERT_EQ(E.pool(), nullptr);
  BatchOptions BO;
  BO.Jobs = 8; // Eight requested; one item -> inline, still no pool.
  E.sliceBackwardBatch({Seeds.front()}, BO);
  EXPECT_EQ(E.pool(), nullptr);
  EXPECT_EQ(E.stats().Workers, 1u);

  // The control making the assertion above meaningful: a batch with
  // more than one work item at Jobs > 1 does create a pool. CI mode
  // chunks 64 queries per item, so use the context-sensitive engine,
  // where every unique seed is its own item.
  if (Seeds.size() > 1) {
    ModRefResult MR(*P, *PTA);
    SDGOptions SO;
    SO.ContextSensitive = true;
    std::unique_ptr<SDG> CSG = buildSDG(*P, *PTA, &MR, SO);
    SliceEngine CSE(*CSG);
    BO.ContextSensitive = true;
    BO.Jobs = 2;
    CSE.sliceBackwardBatch(Seeds, BO);
    ASSERT_GT(CSE.stats().UniqueQueries, 1u);
    EXPECT_NE(CSE.pool(), nullptr);
  }
}

// An injected shared pool is adopted, not wrapped: the engine must
// use exactly the session pool instance.
TEST(ParallelEngine, AdoptsTheInjectedSessionPool) {
  const std::string Source = generateRandomProgram(7);
  AnalysisSession S(Source);
  S.setThreads(4);
  ASSERT_NE(S.program(), nullptr);
  SliceEngine *E = S.engine();
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->pool(), S.pool());
}

} // namespace
