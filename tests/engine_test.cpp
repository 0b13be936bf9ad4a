//===-- engine_test.cpp - Batched slice-engine tests ----------------------------==//
//
// Differential coverage for SliceEngine: every configuration of the
// batch path (1 and 4 workers, one CI chunk and several,
// context-insensitive and -sensitive, summary cache cold and warm,
// both slice modes) must produce statement-identical results to the
// single-seed reference slicers — the edge-record BFS referenceSlice
// or sliceBackward for CI, TabulationSlicer::slice for CS — plus unit coverage of
// dedup, the per-mode condensation cache, and batch-wide budget
// degradation (a step cap, and a watchdog cancel seen on every lane).
// These tests carry the "engine" ctest label and are the set the TSan
// tree runs.

#include "eval/Experiments.h"
#include "eval/Workload.h"
#include "lang/Lower.h"
#include "pipeline/Session.h"
#include "modref/ModRef.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"
#include "slicer/Engine.h"
#include "slicer/Slicer.h"
#include "slicer/Tabulation.h"

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace tsl;

namespace {

/// Reference backward slice: a plain BFS over the raw edge records,
/// testing each edge's kind. Shares nothing with the CSR traversal the
/// engine and sliceBackward run.
SliceResult referenceSlice(const SDG &G, const Instr *Seed, SliceMode Mode) {
  BitSet Visited(G.numNodes());
  std::deque<unsigned> Queue;
  for (unsigned Node : G.nodesFor(Seed))
    if (Visited.insert(Node))
      Queue.push_back(Node);
  while (!Queue.empty()) {
    unsigned Node = Queue.front();
    Queue.pop_front();
    for (unsigned EdgeId : G.inEdges(Node)) {
      const SDGEdge &E = G.edge(EdgeId);
      if (sliceFollowsEdge(Mode, E.K) && Visited.insert(E.From))
        Queue.push_back(E.From);
    }
  }
  return SliceResult(&G, std::move(Visited));
}

struct Compiled {
  std::unique_ptr<AnalysisSession> S;
  Program *P = nullptr;
  PointsToResult *PTA = nullptr;
  SDG *CI = nullptr;
  std::unique_ptr<SDG> CSGraph;
  SDG *CS = nullptr;
};

Compiled compile(const std::string &Source, bool WithCS = false) {
  Compiled C;
  C.S = std::make_unique<AnalysisSession>(Source);
  C.P = C.S->program();
  EXPECT_NE(C.P, nullptr) << C.S->diagnostics().str();
  if (!C.P)
    return C;
  C.PTA = C.S->pointsTo();
  C.CI = C.S->sdg();
  if (WithCS) {
    // A session holds one graph: the CS one is built beside it.
    SDGOptions CSOpts;
    CSOpts.ContextSensitive = true;
    C.CSGraph = buildSDG(*C.P, *C.PTA, C.S->modRef(), CSOpts);
    C.CS = C.CSGraph.get();
  }
  return C;
}

/// Node- and statement-identity between a batch result and its
/// single-seed reference.
void expectIdentical(const SliceResult &Got, const SliceResult &Want,
                     const std::string &What) {
  EXPECT_TRUE(Got.nodeSet() == Want.nodeSet()) << What << ": node sets differ";
  EXPECT_TRUE(Got.statements() == Want.statements())
      << What << ": statement lists differ";
}

std::string tag(const char *Case, SliceMode Mode, unsigned Jobs,
                std::size_t Seed) {
  return std::string(Case) + (Mode == SliceMode::Thin ? "/thin" : "/trad") +
         "/jobs" + std::to_string(Jobs) + "/seed" + std::to_string(Seed);
}

} // namespace

//===----------------------------------------------------------------------===//
// Differential: eval cases
//===----------------------------------------------------------------------===//

// Every evaluation case's seed, batched per shared program graph, must
// match the legacy edge-record slicer seed by seed — both modes, both
// worker counts.
TEST(Engine, DifferentialEvalCases) {
  std::map<std::string, Compiled> Programs;
  std::map<std::string, std::vector<const Instr *>> SeedsOf;

  auto Add = [&](const WorkloadProgram &Prog, const std::string &Marker) {
    auto It = Programs.find(Prog.Name);
    if (It == Programs.end())
      It = Programs.emplace(Prog.Name, compile(Prog.Source)).first;
    if (!It->second.P)
      return;
    const Instr *Seed = instrAtLine(*It->second.P, Prog.markerLine(Marker));
    if (Seed)
      SeedsOf[Prog.Name].push_back(Seed);
  };
  for (const BugCase &Case : debuggingCases())
    Add(Case.Prog, Case.SeedMarker);
  for (const CastCase &Case : toughCastCases())
    Add(Case.Prog,
        Case.SeedMarker.empty() ? Case.CastMarker : Case.SeedMarker);
  ASSERT_FALSE(SeedsOf.empty());

  for (auto &[Name, Seeds] : SeedsOf) {
    const Compiled &C = Programs.at(Name);
    SliceEngine Engine(*C.CI);
    for (SliceMode Mode : {SliceMode::Thin, SliceMode::Traditional}) {
      // Per-seed reference slices, computed once per mode.
      std::vector<SliceResult> Ref;
      for (const Instr *Seed : Seeds)
        Ref.push_back(referenceSlice(*C.CI, Seed, Mode));
      for (unsigned Jobs : {1u, 4u}) {
        BatchOptions Opts;
        Opts.Mode = Mode;
        Opts.Jobs = Jobs;
        std::vector<SliceResult> Got = Engine.sliceBackwardBatch(Seeds, Opts);
        ASSERT_EQ(Got.size(), Seeds.size());
        for (std::size_t I = 0; I != Seeds.size(); ++I)
          expectIdentical(Got[I], Ref[I], tag(Name.c_str(), Mode, Jobs, I));
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Differential: 50 generated seeds, context-insensitive
//===----------------------------------------------------------------------===//

TEST(Engine, DifferentialGeneratedSeedsCI) {
  WorkloadProgram W =
      padWorkload(debuggingCases().front().Prog, "ET", /*PadClasses=*/4,
                  /*MethodsPerClass=*/4);
  Compiled C = compile(W.Source);
  ASSERT_NE(C.P, nullptr);
  std::vector<const Instr *> Seeds = collectSliceSeeds(*C.P, 50);
  ASSERT_EQ(Seeds.size(), 50u);

  SliceEngine Engine(*C.CI);
  for (SliceMode Mode : {SliceMode::Thin, SliceMode::Traditional}) {
    std::vector<SliceResult> Ref;
    for (const Instr *Seed : Seeds)
      Ref.push_back(referenceSlice(*C.CI, Seed, Mode));
    for (unsigned Jobs : {1u, 4u}) {
      BatchOptions Opts;
      Opts.Mode = Mode;
      Opts.Jobs = Jobs;
      std::vector<SliceResult> Got = Engine.sliceBackwardBatch(Seeds, Opts);
      ASSERT_EQ(Got.size(), Seeds.size());
      EXPECT_EQ(Engine.stats().Queries, 50u);
      for (std::size_t I = 0; I != Seeds.size(); ++I)
        expectIdentical(Got[I], Ref[I], tag("generated", Mode, Jobs, I));
    }
  }
}

//===----------------------------------------------------------------------===//
// Differential: a multi-chunk context-insensitive batch
//===----------------------------------------------------------------------===//

// Context-insensitive batches fan out per 64-query chunk, so only a
// batch of several chunks puts more than one pool lane to work: 200
// unique seeds make 4 chunks.
TEST(Engine, DifferentialMultiChunkCI) {
  WorkloadProgram W =
      padWorkload(debuggingCases().front().Prog, "EM", /*PadClasses=*/12,
                  /*MethodsPerClass=*/6);
  Compiled C = compile(W.Source);
  ASSERT_NE(C.P, nullptr);
  std::vector<const Instr *> Seeds = collectSliceSeeds(*C.P, 200);
  ASSERT_EQ(Seeds.size(), 200u);

  SliceEngine Engine(*C.CI);
  for (SliceMode Mode : {SliceMode::Thin, SliceMode::Traditional}) {
    std::vector<SliceResult> Ref;
    for (const Instr *Seed : Seeds)
      Ref.push_back(sliceBackward(*C.CI, Seed, Mode));
    for (unsigned Jobs : {1u, 4u}) {
      BatchOptions Opts;
      Opts.Mode = Mode;
      Opts.Jobs = Jobs;
      std::vector<SliceResult> Got = Engine.sliceBackwardBatch(Seeds, Opts);
      ASSERT_EQ(Got.size(), Seeds.size());
      EXPECT_GT(Engine.stats().UniqueQueries, 128u); // >= 3 chunks.
      if (Jobs > 1) {
        EXPECT_GT(Engine.stats().Workers, 1u);
      }
      for (std::size_t I = 0; I != Seeds.size(); ++I)
        expectIdentical(Got[I], Ref[I], tag("multi-chunk", Mode, Jobs, I));
    }
  }

  // A budget the watchdog already cancelled degrades every chunk, on
  // every lane: each chunk's first gate spend sees the cancel flag.
  AnalysisBudget Cancelled;
  Cancelled.cancel();
  BatchOptions Opts;
  Opts.Jobs = 4;
  Opts.Budget = &Cancelled;
  std::vector<SliceResult> Got = Engine.sliceBackwardBatch(Seeds, Opts);
  ASSERT_EQ(Got.size(), Seeds.size());
  EXPECT_GT(Engine.stats().Workers, 1u);
  for (std::size_t I = 0; I != Got.size(); ++I) {
    EXPECT_FALSE(Got[I].complete()) << "seed " << I;
    EXPECT_EQ(Got[I].degradedReason(), "watchdog") << "seed " << I;
  }
}

//===----------------------------------------------------------------------===//
// Differential: context-sensitive, summary cache cold and warm
//===----------------------------------------------------------------------===//

TEST(Engine, DifferentialContextSensitive) {
  Compiled C = compile(debuggingCases().front().Prog.Source, /*WithCS=*/true);
  ASSERT_NE(C.P, nullptr);
  std::vector<const Instr *> Seeds = collectSliceSeeds(*C.P, 50);
  ASSERT_FALSE(Seeds.empty());

  SliceEngine Engine(*C.CS);
  SummaryCache Cache;
  for (SliceMode Mode : {SliceMode::Thin, SliceMode::Traditional}) {
    TabulationSlicer Ref(*C.CS, Mode);
    std::vector<SliceResult> Want;
    for (const Instr *Seed : Seeds)
      Want.push_back(Ref.slice(Seed));
    bool First = true; // First batch of this mode misses the cache.
    for (bool Warm : {false, true}) {
      for (unsigned Jobs : {1u, 4u}) {
        BatchOptions Opts;
        Opts.Mode = Mode;
        Opts.ContextSensitive = true;
        Opts.Jobs = Jobs;
        Opts.Summaries = &Cache;
        std::vector<SliceResult> Got = Engine.sliceBackwardBatch(Seeds, Opts);
        ASSERT_EQ(Got.size(), Seeds.size());
        EXPECT_EQ(Engine.stats().SummariesReused, !First);
        First = false;
        for (std::size_t I = 0; I != Seeds.size(); ++I)
          expectIdentical(Got[I], Want[I],
                          tag(Warm ? "cs-warm" : "cs-cold", Mode, Jobs, I));
      }
    }
  }
  // Both modes' summary sets live in the cache and the warm batches
  // hit it.
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_GT(Cache.hits(), 0u);
}

//===----------------------------------------------------------------------===//
// Dedup
//===----------------------------------------------------------------------===//

TEST(Engine, DeduplicatesSeeds) {
  Compiled C = compile(R"(
def main() {
  var a = readInt();
  var b = a + 1;
  print(a);
  print(b);
}
)");
  ASSERT_NE(C.P, nullptr);
  const Instr *A = instrAtLine(*C.P, 5); // print(a)
  const Instr *B = instrAtLine(*C.P, 6); // print(b)
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);

  SliceEngine Engine(*C.CI);
  std::vector<const Instr *> Seeds{A, B, A, A, B};
  std::vector<SliceResult> Got = Engine.sliceBackwardBatch(Seeds);
  ASSERT_EQ(Got.size(), 5u);
  EXPECT_EQ(Engine.stats().Queries, 5u);
  EXPECT_EQ(Engine.stats().UniqueQueries, 2u);
  // Duplicate positions carry the unique query's result.
  EXPECT_TRUE(Got[0].nodeSet() == Got[2].nodeSet());
  EXPECT_TRUE(Got[0].nodeSet() == Got[3].nodeSet());
  EXPECT_TRUE(Got[1].nodeSet() == Got[4].nodeSet());
  for (std::size_t I = 0; I != Seeds.size(); ++I)
    expectIdentical(Got[I],
                    referenceSlice(*C.CI, Seeds[I], SliceMode::Thin),
                    tag("dedup", SliceMode::Thin, 1, I));
}

TEST(Engine, EmptyBatch) {
  Compiled C = compile("def main() { print(1); }");
  ASSERT_NE(C.P, nullptr);
  SliceEngine Engine(*C.CI);
  EXPECT_TRUE(Engine.sliceBackwardBatch({}).empty());
  EXPECT_EQ(Engine.stats().Queries, 0u);
  EXPECT_EQ(Engine.stats().UniqueQueries, 0u);
}

//===----------------------------------------------------------------------===//
// Condensation cache
//===----------------------------------------------------------------------===//

TEST(Engine, CondensationCachedPerMode) {
  Compiled C = compile(R"(
def main() {
  var a = readInt();
  var b = a * 2;
  print(b);
}
)");
  ASSERT_NE(C.P, nullptr);
  const Instr *Seed = instrAtLine(*C.P, 5);
  ASSERT_NE(Seed, nullptr);
  SliceEngine Engine(*C.CI);

  BatchOptions Thin;
  Engine.sliceBackwardBatch({Seed}, Thin);
  EXPECT_FALSE(Engine.stats().CondensationReused);
  Engine.sliceBackwardBatch({Seed}, Thin);
  EXPECT_TRUE(Engine.stats().CondensationReused);

  // A different mode masks a different subgraph: its first batch
  // builds, its second reuses.
  BatchOptions Trad;
  Trad.Mode = SliceMode::Traditional;
  Engine.sliceBackwardBatch({Seed}, Trad);
  EXPECT_FALSE(Engine.stats().CondensationReused);
  Engine.sliceBackwardBatch({Seed}, Trad);
  EXPECT_TRUE(Engine.stats().CondensationReused);

  // Switching back reuses the first mode's condensation: one engine
  // keeps one per mask.
  std::vector<SliceResult> Got = Engine.sliceBackwardBatch({Seed}, Thin);
  EXPECT_TRUE(Engine.stats().CondensationReused);
  expectIdentical(Got.front(),
                  referenceSlice(*C.CI, Seed, SliceMode::Thin),
                  "reused-condensation");
}

//===----------------------------------------------------------------------===//
// Batch-wide budget
//===----------------------------------------------------------------------===//

TEST(Engine, BatchBudgetDegradesSoundly) {
  WorkloadProgram W =
      padWorkload(debuggingCases().front().Prog, "EB", /*PadClasses=*/2,
                  /*MethodsPerClass=*/4);
  Compiled C = compile(W.Source);
  ASSERT_NE(C.P, nullptr);
  std::vector<const Instr *> Seeds = collectSliceSeeds(*C.P, 20);
  ASSERT_FALSE(Seeds.empty());

  SliceEngine Engine(*C.CI);
  std::vector<SliceResult> Full = Engine.sliceBackwardBatch(Seeds);

  AnalysisBudget Budget;
  Budget.MaxSlicePops = 3; // Trips almost immediately.
  BatchOptions Opts;
  Opts.Budget = &Budget;
  std::vector<SliceResult> Capped = Engine.sliceBackwardBatch(Seeds, Opts);
  ASSERT_EQ(Capped.size(), Full.size());

  bool AnyDegraded = false;
  for (std::size_t I = 0; I != Capped.size(); ++I) {
    if (!Capped[I].complete()) {
      AnyDegraded = true;
      EXPECT_FALSE(Capped[I].degradedReason().empty());
    }
    // A capped slice is a subset of the uncapped one (sound
    // under-approximation).
    Capped[I].nodeSet().forEach([&](unsigned Node) {
      EXPECT_TRUE(Full[I].containsNode(Node))
          << "seed " << I << " node " << Node;
    });
  }
  EXPECT_TRUE(AnyDegraded);
}
