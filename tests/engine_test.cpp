//===-- engine_test.cpp - Batched slice-engine tests ----------------------------==//
//
// Differential coverage for SliceEngine: every configuration of the
// batch path (1 and 4 workers, one CI chunk and several,
// context-insensitive and -sensitive, summary cache cold and warm,
// both slice modes) must produce statement-identical results to the
// single-seed reference slicers — the edge-record BFS referenceSlice
// or sliceBackward for CI, TabulationSlicer::slice for CS — plus unit coverage of
// dedup, the per-mode condensation cache, batch-wide budget
// degradation (a step cap, and a watchdog cancel seen on every lane),
// and concurrent callers sharing one engine.
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
#include "slicer/Report.h"
#include "slicer/Slicer.h"
#include "slicer/Tabulation.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
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

/// The backward batch of \p Seeds under \p Opts, through run() so the
/// answer carries its statistics (two or more seeds, or none, take
/// the batch path).
SliceAnswer runBatch(const SliceEngine &E,
                     const std::vector<const Instr *> &Seeds,
                     const BatchOptions &Opts = {}) {
  SliceQuery Q;
  static_cast<BatchOptions &>(Q) = Opts;
  Q.Seeds = Seeds;
  return E.run(Q);
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
    const Instr *Seed = seedAtLine(*It->second.P, Prog.markerLine(Marker));
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
    ThreadPool Pool(4);
    SliceEngine Engine(*C.CI, &Pool);
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

  ThreadPool Pool(4);
  SliceEngine Engine(*C.CI, &Pool);
  for (SliceMode Mode : {SliceMode::Thin, SliceMode::Traditional}) {
    std::vector<SliceResult> Ref;
    for (const Instr *Seed : Seeds)
      Ref.push_back(referenceSlice(*C.CI, Seed, Mode));
    for (unsigned Jobs : {1u, 4u}) {
      BatchOptions Opts;
      Opts.Mode = Mode;
      Opts.Jobs = Jobs;
      SliceAnswer A = runBatch(Engine, Seeds, Opts);
      const std::vector<SliceResult> &Got = A.Results;
      ASSERT_EQ(Got.size(), Seeds.size());
      EXPECT_EQ(A.Stats.Queries, 50u);
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

  ThreadPool Pool(4);
  SliceEngine Engine(*C.CI, &Pool);
  for (SliceMode Mode : {SliceMode::Thin, SliceMode::Traditional}) {
    std::vector<SliceResult> Ref;
    for (const Instr *Seed : Seeds)
      Ref.push_back(sliceBackward(*C.CI, Seed, Mode));
    for (unsigned Jobs : {1u, 4u}) {
      BatchOptions Opts;
      Opts.Mode = Mode;
      Opts.Jobs = Jobs;
      SliceAnswer A = runBatch(Engine, Seeds, Opts);
      const std::vector<SliceResult> &Got = A.Results;
      ASSERT_EQ(Got.size(), Seeds.size());
      EXPECT_GT(A.Stats.UniqueQueries, 128u); // >= 3 chunks.
      if (Jobs > 1) {
        EXPECT_GT(A.Stats.Workers, 1u);
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
  SliceAnswer A = runBatch(Engine, Seeds, Opts);
  const std::vector<SliceResult> &Got = A.Results;
  ASSERT_EQ(Got.size(), Seeds.size());
  EXPECT_GT(A.Stats.Workers, 1u);
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

  ThreadPool Pool(4);
  SliceEngine Engine(*C.CS, &Pool);
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
        SliceAnswer A = runBatch(Engine, Seeds, Opts);
        const std::vector<SliceResult> &Got = A.Results;
        ASSERT_EQ(Got.size(), Seeds.size());
        EXPECT_EQ(A.Stats.SummariesReused, !First);
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
  const Instr *A = seedAtLine(*C.P, 5); // print(a)
  const Instr *B = seedAtLine(*C.P, 6); // print(b)
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);

  SliceEngine Engine(*C.CI);
  std::vector<const Instr *> Seeds{A, B, A, A, B};
  SliceAnswer Answer = runBatch(Engine, Seeds);
  const std::vector<SliceResult> &Got = Answer.Results;
  ASSERT_EQ(Got.size(), 5u);
  EXPECT_EQ(Answer.Stats.Queries, 5u);
  EXPECT_EQ(Answer.Stats.UniqueQueries, 2u);
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
  SliceAnswer A = runBatch(Engine, {});
  EXPECT_TRUE(A.Results.empty());
  EXPECT_EQ(A.Stats.Queries, 0u);
  EXPECT_EQ(A.Stats.UniqueQueries, 0u);
  EXPECT_TRUE(Engine.sliceBackwardBatch({}).empty());
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
  const Instr *Seed = seedAtLine(*C.P, 5);
  ASSERT_NE(Seed, nullptr);
  SliceEngine Engine(*C.CI);
  // Two copies of the seed: run() answers one seed with the
  // single-seed slicer, two (one unique) with a batch.
  const std::vector<const Instr *> Seeds{Seed, Seed};

  BatchOptions Thin;
  EXPECT_FALSE(runBatch(Engine, Seeds, Thin).Stats.CondensationReused);
  EXPECT_TRUE(runBatch(Engine, Seeds, Thin).Stats.CondensationReused);

  // A different mode masks a different subgraph: its first batch
  // builds, its second reuses.
  BatchOptions Trad;
  Trad.Mode = SliceMode::Traditional;
  EXPECT_FALSE(runBatch(Engine, Seeds, Trad).Stats.CondensationReused);
  EXPECT_TRUE(runBatch(Engine, Seeds, Trad).Stats.CondensationReused);

  // Switching back reuses the first mode's condensation: one engine
  // keeps one per mask.
  SliceAnswer A = runBatch(Engine, Seeds, Thin);
  EXPECT_TRUE(A.Stats.CondensationReused);
  expectIdentical(A.Results.front(),
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

//===----------------------------------------------------------------------===//
// Reentrancy
//===----------------------------------------------------------------------===//

// One engine, many callers: threads run CI batches in both modes, a
// CS batch and single seeds on one engine at once (the daemon's
// shape). Every answer equals the same query run alone, and each edge
// mask is condensed exactly once: one CI batch per mode reports a
// fresh condensation, every other one reuses it.
TEST(Engine, ConcurrentCallersShareOneEngine) {
  WorkloadProgram W =
      padWorkload(debuggingCases().front().Prog, "EC", /*PadClasses=*/3,
                  /*MethodsPerClass=*/4);
  Compiled C = compile(W.Source, /*WithCS=*/true);
  ASSERT_NE(C.P, nullptr);
  std::vector<const Instr *> Seeds = collectSliceSeeds(*C.P, 40);
  ASSERT_GT(Seeds.size(), 2u);

  SummaryCache Summaries;
  std::vector<SliceQuery> Queries;
  for (SliceMode Mode : {SliceMode::Thin, SliceMode::Traditional})
    for (unsigned Jobs : {1u, 2u, 1u}) {
      Queries.push_back(SliceQuery::backward(Seeds, Mode));
      Queries.back().Jobs = Jobs;
    }
  SliceQuery CSBatch =
      SliceQuery::backward(Seeds, SliceMode::Thin, /*ContextSensitive=*/true);
  CSBatch.Summaries = &Summaries;
  Queries.push_back(CSBatch);
  Queries.push_back(SliceQuery::backward({Seeds[1]}, SliceMode::Thin));
  Queries.push_back(SliceQuery::backward({Seeds[2]}, SliceMode::Traditional,
                                         /*ContextSensitive=*/true));

  // Sequential answers, each from a fresh engine.
  std::vector<SliceAnswer> Want;
  for (const SliceQuery &Q : Queries)
    Want.push_back(SliceEngine(*C.CS).run(Q));

  ThreadPool Pool(2);
  const SliceEngine Engine(*C.CS, &Pool);
  std::vector<SliceAnswer> Got(Queries.size());
  std::vector<std::thread> Threads;
  for (std::size_t I = 0; I != Queries.size(); ++I)
    Threads.emplace_back([&, I] { Got[I] = Engine.run(Queries[I]); });
  for (std::thread &T : Threads)
    T.join();

  std::map<SliceMode, unsigned> Built;
  for (std::size_t I = 0; I != Queries.size(); ++I) {
    ASSERT_EQ(Got[I].Results.size(), Want[I].Results.size()) << I;
    for (std::size_t R = 0; R != Got[I].Results.size(); ++R)
      expectIdentical(Got[I].Results[R], Want[I].Results[R],
                      tag("concurrent", Queries[I].Mode, Queries[I].Jobs, R) +
                          "/query" + std::to_string(I));
    EXPECT_EQ(Got[I].Stats.Queries, Queries[I].Seeds.size()) << I;
    const bool CIBatch =
        Queries[I].Seeds.size() > 1 && !Queries[I].ContextSensitive;
    if (CIBatch && !Got[I].Stats.CondensationReused)
      ++Built[Queries[I].Mode];
  }
  EXPECT_EQ(Built[SliceMode::Thin], 1u);
  EXPECT_EQ(Built[SliceMode::Traditional], 1u);
}
