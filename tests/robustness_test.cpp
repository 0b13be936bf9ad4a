//===-- robustness_test.cpp - Frontend robustness / fuzz-ish tests --------------==//
//
// The frontend must never crash: arbitrary bytes, truncated programs,
// deeply nested expressions, and pathological-but-valid inputs all
// either compile or produce diagnostics.
//
//===----------------------------------------------------------------------===//

#include "dyn/Interp.h"
#include "ir/Verifier.h"
#include "lang/Lower.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"
#include "slicer/Report.h"
#include "slicer/Slicer.h"

#include <gtest/gtest.h>

using namespace tsl;

namespace {

/// Compiles and, on success, verifies; never crashes.
void compileAnything(const std::string &Source) {
  DiagnosticEngine Diag;
  std::unique_ptr<Program> P = compileThinJ(Source, Diag);
  if (P)
    EXPECT_TRUE(verifyProgram(*P).empty());
  else
    EXPECT_TRUE(Diag.hasErrors());
}

} // namespace

TEST(Robustness, ArbitraryBytes) {
  uint64_t S = 0x12345;
  auto Next = [&S]() {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  };
  for (int Round = 0; Round != 200; ++Round) {
    std::string Junk;
    unsigned Len = Next() % 200;
    for (unsigned I = 0; I != Len; ++I)
      Junk += static_cast<char>(32 + Next() % 95); // Printable ASCII.
    compileAnything(Junk);
  }
}

TEST(Robustness, TruncatedRealProgram) {
  const std::string Full = R"(
class Box {
  var v: Object;
  def set(x: Object) { v = x; }
}
def main() {
  var b = new Box();
  b.set("payload");
  if (b.v != null) {
    print("ok");
  }
}
)";
  for (size_t Len = 0; Len <= Full.size(); Len += 7)
    compileAnything(Full.substr(0, Len));
}

TEST(Robustness, TokenSoup) {
  // Valid tokens in invalid orders.
  const char *Soups[] = {
      "def def def",
      "class A extends A extends A { }",
      "def f() { return return; }",
      "def f() { if while for }",
      "def f() { var x = ((((((1)))))); }",
      "def f() { x = = 3; }",
      "class { var : ; def ( ) }",
      "def f() { a.b.c.d.e.f.g.h(); }",
      "def f() { \"unterminated }",
      "def f(x: int[][][][][]) { }",
      "super(1); def main() { }",
      "def f() { (Foo) (Bar) (Baz) x; }",
  };
  for (const char *Soup : Soups)
    compileAnything(Soup);
}

TEST(Robustness, DeepNesting) {
  // Deeply nested blocks/ifs stress scoping and CFG construction.
  std::string Source = "def main() {\n  var x = 0;\n";
  for (int I = 0; I != 200; ++I)
    Source += "  if (x == " + std::to_string(I) + ") {\n";
  Source += "    x = x + 1;\n";
  for (int I = 0; I != 200; ++I)
    Source += "  }\n";
  Source += "  print(x);\n}\n";
  DiagnosticEngine Diag;
  std::unique_ptr<Program> P = compileThinJ(Source, Diag);
  ASSERT_NE(P, nullptr) << Diag.str();
  EXPECT_TRUE(verifyProgram(*P).empty());
  InterpResult R = interpret(*P);
  ASSERT_TRUE(R.Completed);
  // Only the outermost condition holds (x == 0); the nested ones fail,
  // so x is printed unchanged.
  EXPECT_EQ(R.Output.front(), "0");
}

TEST(Robustness, DeepExpression) {
  std::string Expr = "1";
  for (int I = 0; I != 300; ++I)
    Expr = "(" + Expr + " + 1)";
  compileAnything("def main() { print(" + Expr + "); }");
}

TEST(Robustness, ManyLocalsAndBlocks) {
  std::string Source = "def main() {\n";
  for (int I = 0; I != 500; ++I)
    Source += "  var v" + std::to_string(I) + " = " + std::to_string(I) +
              ";\n";
  Source += "  print(v499);\n}\n";
  DiagnosticEngine Diag;
  std::unique_ptr<Program> P = compileThinJ(Source, Diag);
  ASSERT_NE(P, nullptr);
  InterpResult R = interpret(*P);
  EXPECT_EQ(R.Output.front(), "499");
}

TEST(Robustness, SlicingFromEveryStatement) {
  // Slicing must be total: every statement of a program is a valid
  // seed, including params, phis, and terminators.
  DiagnosticEngine Diag;
  std::unique_ptr<Program> P = compileThinJ(R"(
class Pair { var a: int; var b: Object; }
def touch(p: Pair): int {
  if (p.a > 0) {
    return p.a;
  }
  return 0 - p.a;
}
def main() {
  var p = new Pair();
  p.a = readInt();
  p.b = "tag";
  var total = 0;
  while (total < 10) {
    total = total + touch(p);
  }
  print(total);
}
)",
                                            Diag);
  ASSERT_NE(P, nullptr) << Diag.str();
  auto PTA = runPointsTo(*P);
  auto G = buildSDG(*P, *PTA, nullptr);
  unsigned Seeds = 0;
  for (const auto &M : P->methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs()) {
        SliceResult Thin = sliceBackward(*G, I.get(), SliceMode::Thin);
        SliceResult Trad =
            sliceBackward(*G, I.get(), SliceMode::Traditional);
        EXPECT_LE(Thin.sizeStmts(), Trad.sizeStmts());
        ++Seeds;
      }
  EXPECT_GE(Seeds, 30u);
}

TEST(Robustness, EmptyAndCommentOnlySources) {
  compileAnything("");
  compileAnything("// nothing here\n// at all\n");
  compileAnything("\n\n\n");
}

TEST(Robustness, HugeStringLiteral) {
  std::string Big(10000, 'x');
  compileAnything("def main() { print(\"" + Big + "\"); }");
}

TEST(Robustness, UnicodeBytesInStrings) {
  // Non-ASCII bytes inside string literals pass through untouched.
  DiagnosticEngine Diag;
  auto P = compileThinJ("def main() { print(\"\xc3\xa9\xe2\x82\xac\"); }",
                        Diag);
  ASSERT_NE(P, nullptr) << Diag.str();
  InterpResult R = interpret(*P);
  EXPECT_EQ(R.Output.front(), "\xc3\xa9\xe2\x82\xac");
}

//===----------------------------------------------------------------------===//
// Pipeline exhaustion: budgets and fault injection (resource
// governance). Degradation must be sound, never a crash.
//===----------------------------------------------------------------------===//

#include "eval/Workload.h"
#include "modref/ModRef.h"
#include "pipeline/Session.h"
#include "slicer/Engine.h"
#include "slicer/Expansion.h"
#include "slicer/Tabulation.h"
#include "support/Budget.h"

#include <filesystem>
#include <fstream>
#include <set>

namespace {

std::unique_ptr<Program> compileWorkload(const WorkloadProgram &W) {
  DiagnosticEngine Diag;
  std::unique_ptr<Program> P = compileThinJ(W.Source, Diag);
  EXPECT_TRUE(P) << W.Name;
  return P;
}

/// Every instruction that has a node in \p G (slice seeds).
std::vector<const Instr *> allSeedInstrs(const Program &P, const SDG &G) {
  std::vector<const Instr *> Out;
  for (const auto &M : P.methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs())
        if (G.nodeFor(I.get()) >= 0)
          Out.push_back(I.get());
  return Out;
}

/// Statement instruction set of a slice — the representation that is
/// comparable across different SDGs of the same program (node and
/// object ids are not).
std::set<const Instr *> stmtSet(const SliceResult &S) {
  auto V = S.statements();
  return std::set<const Instr *>(V.begin(), V.end());
}

/// Canonical cross-session slice rendering: statement source
/// positions (instruction pointers are not comparable between two
/// different compiles of the same source).
std::set<std::pair<unsigned, unsigned>> stmtPositions(const SliceResult &S) {
  std::set<std::pair<unsigned, unsigned>> Out;
  for (const Instr *I : S.statements())
    Out.insert({I->loc().Line, I->loc().Col});
  return Out;
}

/// Warm/edited source pair for the mid-incremental fault cases. The
/// edit rewrites put()'s body through a fresh alias so the points-to
/// retraction and the mod-ref re-scan both have real work — an armed
/// update fault is guaranteed a poll to fire at.
const char *kIncFaultWarmSrc = R"(
class Cell {
  var v: int;
}
def put(c: Cell, x: int) {
  c.v = x;
}
def main() {
  var a = new Cell();
  put(a, readInt());
  print(a.v);
}
)";
const char *kIncFaultEditedSrc = R"(
class Cell {
  var v: int;
}
def put(c: Cell, x: int) {
  var d = c; d.v = x + 1 - 1;
}
def main() {
  var a = new Cell();
  put(a, readInt());
  print(a.v);
}
)";
constexpr unsigned kIncFaultSeedLine = 11; // print(a.v)

} // namespace

// (b) of the exhaustion checklist: a budget-limited slice on a given
// SDG is a subset of the unbudgeted traditional slice on that SDG,
// for every statement of every debugging workload.
TEST(PipelineExhaustion, DegradedSliceIsSubsetOfTraditional) {
  FaultInjector::instance().reset();
  AnalysisBudget Tight;
  Tight.MaxSlicePops = 5;
  for (const BugCase &Case : debuggingCases()) {
    std::unique_ptr<Program> P = compileWorkload(Case.Prog);
    ASSERT_TRUE(P);
    std::unique_ptr<PointsToResult> PTA = runPointsTo(*P);
    std::unique_ptr<SDG> G = buildSDG(*P, *PTA, nullptr);
    for (const Instr *Seed : allSeedInstrs(*P, *G)) {
      SliceResult Budgeted =
          sliceBackward(*G, Seed, SliceMode::Thin, &Tight);
      SliceResult FullTrad =
          sliceBackward(*G, Seed, SliceMode::Traditional);
      EXPECT_TRUE(FullTrad.complete());
      // Node-level subset on the shared graph.
      BitSet Extra = Budgeted.nodeSet();
      Extra.subtract(FullTrad.nodeSet());
      EXPECT_EQ(Extra.count(), 0u)
          << Case.Id << ": budgeted slice escaped the traditional slice";
      if (!Budgeted.complete()) {
        EXPECT_FALSE(Budgeted.degradedReason().empty());
      }
    }
  }
}

// (a) of the checklist: a tight budget over the whole pipeline — PTA,
// mod-ref, SDG, slicing — never crashes, and slices stay subsets of
// the unbudgeted traditional slice computed on the same (possibly
// degraded) graph.
TEST(PipelineExhaustion, TightFullPipelineBudgetNeverCrashes) {
  FaultInjector::instance().reset();
  AnalysisBudget Tight;
  Tight.MaxPtaPropagations = 20;
  Tight.MaxModRefSteps = 5;
  Tight.MaxSdgNodes = 40;
  Tight.MaxSdgEdges = 6;
  Tight.MaxSlicePops = 8;
  Tight.MaxExpansionRounds = 1;
  for (const BugCase &Case : debuggingCases()) {
    std::unique_ptr<Program> P = compileWorkload(Case.Prog);
    ASSERT_TRUE(P);
    PTAOptions PO;
    PO.Budget = &Tight;
    std::unique_ptr<PointsToResult> PTA = runPointsTo(*P, PO);
    SDGOptions SO;
    SO.Budget = &Tight;
    std::unique_ptr<SDG> G = buildSDG(*P, *PTA, nullptr, SO);
    for (const Instr *Seed : allSeedInstrs(*P, *G)) {
      SliceResult S = sliceBackward(*G, Seed, SliceMode::Thin, &Tight);
      SliceResult Trad = sliceBackward(*G, Seed, SliceMode::Traditional);
      BitSet Extra = S.nodeSet();
      Extra.subtract(Trad.nodeSet());
      EXPECT_EQ(Extra.count(), 0u) << Case.Id;
    }
  }
}

// PTA degradation is an over-approximation: whatever the precise
// object-sensitive analysis says may alias, the coarse CHA + all-heap
// fallback must also say may alias, and the thin slice computed over
// the coarse pipeline must cover the precise thin slice
// statement-for-statement.
TEST(PipelineExhaustion, CoarsePtaFallbackOverApproximates) {
  FaultInjector &FI = FaultInjector::instance();
  WorkloadProgram W = makeFigure1();
  std::unique_ptr<Program> P = compileWorkload(W);
  ASSERT_TRUE(P);

  FI.reset();
  std::unique_ptr<PointsToResult> Precise = runPointsTo(*P);
  ASSERT_FALSE(Precise->report().degraded());
  std::unique_ptr<SDG> PreciseG = buildSDG(*P, *Precise, nullptr);

  FI.reset();
  FI.arm("pta.solve");
  std::unique_ptr<PointsToResult> Coarse = runPointsTo(*P);
  EXPECT_TRUE(FI.fired().count("pta.solve"));
  FI.reset();
  ASSERT_TRUE(Coarse->report().degraded());
  EXPECT_EQ(Coarse->report().Reason, "fault:pta.solve");
  EXPECT_FALSE(Coarse->report().Fallback.empty());

  // mayAlias implication over every pair of reference locals.
  std::vector<const Local *> Refs;
  for (const auto &M : P->methods())
    for (const auto &L : M->locals())
      if (L->type()->isReference())
        Refs.push_back(L.get());
  for (const Local *A : Refs)
    for (const Local *B : Refs)
      if (Precise->mayAlias(A, B)) {
        EXPECT_TRUE(Coarse->mayAlias(A, B));
      }

  // The CHA call graph covers at least the precisely reachable
  // methods.
  for (const Method *M : Precise->callGraph().reachableMethods())
    EXPECT_TRUE(Coarse->callGraph().isReachable(M));

  // Statement-level slice coverage on the coarse-PTA graph.
  std::unique_ptr<SDG> CoarseG = buildSDG(*P, *Coarse, nullptr);
  for (const Instr *Seed : allSeedInstrs(*P, *PreciseG)) {
    if (CoarseG->nodeFor(Seed) < 0)
      continue;
    std::set<const Instr *> PreciseStmts =
        stmtSet(sliceBackward(*PreciseG, Seed, SliceMode::Thin));
    std::set<const Instr *> CoarseStmts =
        stmtSet(sliceBackward(*CoarseG, Seed, SliceMode::Thin));
    for (const Instr *I : PreciseStmts)
      EXPECT_TRUE(CoarseStmts.count(I))
          << "coarse thin slice lost a precise statement";
  }
}

// SDG degradation (merged clones + coarse heap hubs) must also cover
// the precise thin slice at statement level.
TEST(PipelineExhaustion, CoarseSdgFallbackOverApproximates) {
  FaultInjector::instance().reset();
  WorkloadProgram W = makeFigure1();
  std::unique_ptr<Program> P = compileWorkload(W);
  ASSERT_TRUE(P);
  std::unique_ptr<PointsToResult> PTA = runPointsTo(*P);
  std::unique_ptr<SDG> PreciseG = buildSDG(*P, *PTA, nullptr);
  ASSERT_FALSE(PreciseG->report().degraded());

  AnalysisBudget B;
  B.MaxSdgNodes = 1;
  B.MaxSdgEdges = 1;
  SDGOptions SO;
  SO.Budget = &B;
  std::unique_ptr<SDG> CoarseG = buildSDG(*P, *PTA, nullptr, SO);
  ASSERT_TRUE(CoarseG->report().degraded());
  EXPECT_NE(CoarseG->report().Fallback.find("context-merged clones"),
            std::string::npos);
  EXPECT_NE(CoarseG->report().Fallback.find("coarse heap hubs"),
            std::string::npos);

  for (const Instr *Seed : allSeedInstrs(*P, *PreciseG)) {
    ASSERT_GE(CoarseG->nodeFor(Seed), 0);
    std::set<const Instr *> PreciseStmts =
        stmtSet(sliceBackward(*PreciseG, Seed, SliceMode::Thin));
    std::set<const Instr *> CoarseStmts =
        stmtSet(sliceBackward(*CoarseG, Seed, SliceMode::Thin));
    for (const Instr *I : PreciseStmts)
      EXPECT_TRUE(CoarseStmts.count(I))
          << "degraded SDG lost a precise thin-slice statement";
  }
}

// ModRef degradation: all-partitions mod/ref is a superset of the
// precise closure for every reachable method.
TEST(PipelineExhaustion, ModRefFallbackOverApproximates) {
  FaultInjector &FI = FaultInjector::instance();
  WorkloadProgram W = makeFigure1();
  std::unique_ptr<Program> P = compileWorkload(W);
  ASSERT_TRUE(P);
  std::unique_ptr<PointsToResult> PTA = runPointsTo(*P);

  FI.reset();
  ModRefResult Precise(*P, *PTA);
  ASSERT_FALSE(Precise.report().degraded());

  FI.reset();
  FI.arm("modref.closure");
  ModRefResult Degraded(*P, *PTA);
  EXPECT_TRUE(FI.fired().count("modref.closure"));
  FI.reset();
  ASSERT_TRUE(Degraded.report().degraded());

  for (const Method *M : PTA->callGraph().reachableMethods()) {
    SparseBitSet Mod = Precise.modOf(M);
    Mod.subtract(Degraded.modOf(M));
    EXPECT_EQ(Mod.count(), 0u);
    SparseBitSet Ref = Precise.refOf(M);
    Ref.subtract(Degraded.refOf(M));
    EXPECT_EQ(Ref.count(), 0u);
  }
}

// (c) of the checklist: every registered fault point fires at least
// once, and each stage's degradation path returns a sound result.
TEST(PipelineExhaustion, EveryFaultPointFiresWithSoundDegradation) {
  FaultInjector &FI = FaultInjector::instance();
  WorkloadProgram W = makeFigure1();
  std::unique_ptr<Program> P = compileWorkload(W);
  ASSERT_TRUE(P);
  const Instr *Seed = seedAtLine(*P, W.markerLine("seed"));
  ASSERT_TRUE(Seed);

  // Unfaulted references.
  FI.reset();
  std::unique_ptr<PointsToResult> PTA = runPointsTo(*P);
  std::unique_ptr<SDG> G = buildSDG(*P, *PTA, nullptr);
  std::set<const Instr *> FullThin =
      stmtSet(sliceBackward(*G, Seed, SliceMode::Thin));
  ModRefResult MR(*P, *PTA);
  SDGOptions CsOpts;
  CsOpts.ContextSensitive = true;
  std::unique_ptr<SDG> CsG = buildSDG(*P, *PTA, &MR, CsOpts);
  SliceResult FullTab = TabulationSlicer(*CsG, SliceMode::Thin).slice(Seed);
  SliceResult FullExpand =
      ThinExpansion(*G, *PTA).expandToTraditional(Seed);

  // Cold post-edit reference for the mid-incremental fault cases:
  // whichever stage update a fault knocks out, the incremental
  // session's answer must match this fault-free cold rebuild.
  std::set<std::pair<unsigned, unsigned>> IncRef;
  {
    FI.reset();
    AnalysisSession Ref{std::string(kIncFaultEditedSrc)};
    ASSERT_TRUE(Ref.program());
    const Instr *RS = seedAtLine(*Ref.program(), kIncFaultSeedLine);
    ASSERT_TRUE(RS);
    const SliceResult *R = Ref.sliceBackwardCached(RS, SliceMode::Thin);
    ASSERT_TRUE(R);
    IncRef = stmtPositions(*R);
  }

  std::set<std::string> Covered;
  for (const std::string &Point : FaultInjector::knownPoints()) {
    FI.reset();
    FI.arm(Point);

    if (Point == "pta.solve") {
      std::unique_ptr<PointsToResult> R = runPointsTo(*P);
      EXPECT_TRUE(R->report().degraded());
    } else if (Point == "modref.closure") {
      ModRefResult R(*P, *PTA);
      EXPECT_TRUE(R.report().degraded());
    } else if (Point == "sdg.clones" || Point == "sdg.heap") {
      std::unique_ptr<SDG> DG = buildSDG(*P, *PTA, nullptr);
      EXPECT_TRUE(DG->report().degraded()) << Point;
      // Over-approximation: the degraded graph's thin slice covers
      // the precise one.
      if (DG->nodeFor(Seed) >= 0) {
        std::set<const Instr *> S =
            stmtSet(sliceBackward(*DG, Seed, SliceMode::Thin));
        for (const Instr *I : FullThin)
          EXPECT_TRUE(S.count(I)) << Point;
      }
    } else if (Point == "slice.pop") {
      SliceResult S = sliceBackward(*G, Seed, SliceMode::Thin);
      EXPECT_FALSE(S.complete());
      // Under-approximation on the same graph.
      BitSet Extra = S.nodeSet();
      Extra.subtract(
          sliceBackward(*G, Seed, SliceMode::Traditional).nodeSet());
      EXPECT_EQ(Extra.count(), 0u);
    } else if (Point == "tabulation.summary") {
      SliceResult S = TabulationSlicer(*CsG, SliceMode::Thin).slice(Seed);
      EXPECT_FALSE(S.complete());
      BitSet Extra = S.nodeSet();
      Extra.subtract(FullTab.nodeSet());
      EXPECT_EQ(Extra.count(), 0u);
    } else if (Point == "expand.round") {
      SliceResult S = ThinExpansion(*G, *PTA).expandToTraditional(Seed);
      EXPECT_FALSE(S.complete());
      BitSet Extra = S.nodeSet();
      Extra.subtract(FullExpand.nodeSet());
      EXPECT_EQ(Extra.count(), 0u);
    } else if (Point == "pta.update" || Point == "modref.update") {
      // Mid-incremental faults: the point fires inside the session's
      // function-granular setSource() update, the stage declines and
      // is rebuilt cold on the next request, and the post-edit slice
      // is identical to the fault-free cold reference.
      AnalysisSession S{std::string(kIncFaultWarmSrc)};
      S.setIncremental(true);
      ASSERT_TRUE(S.program());
      if (Point == "modref.update") {
        ASSERT_TRUE(S.modRef()); // put the artifact on the update path
      }
      const Instr *WarmSeed = seedAtLine(*S.program(), kIncFaultSeedLine);
      ASSERT_TRUE(WarmSeed);
      ASSERT_TRUE(S.sliceBackwardCached(WarmSeed, SliceMode::Thin));
      S.setSource(kIncFaultEditedSrc); // the armed fault fires in here
      EXPECT_EQ(S.incrementalStats().Applied, 1u) << Point;
      EXPECT_GE(S.incrementalStats().StageFallbacks, 1u) << Point;
      ASSERT_TRUE(S.program());
      const Instr *EditSeed = seedAtLine(*S.program(), kIncFaultSeedLine);
      ASSERT_TRUE(EditSeed);
      const SliceResult *R = S.sliceBackwardCached(EditSeed, SliceMode::Thin);
      ASSERT_TRUE(R) << Point << ": " << S.lastError().str();
      EXPECT_EQ(stmtPositions(*R), IncRef) << Point;
    } else if (Point == "snapshot.load") {
      // A fault during warm start declines the load soundly: the
      // session stays untouched, rebuilds cold on the next request,
      // and answers exactly like a never-warm-started session.
      namespace fs = std::filesystem;
      const std::string Snap =
          (fs::temp_directory_path() / "tsl_faultpoint.tslsnap").string();
      {
        AnalysisSession Saver{std::string(kIncFaultWarmSrc)};
        ASSERT_TRUE(Saver.saveSnapshot(Snap).isOk());
      }
      AnalysisSession S{std::string(kIncFaultWarmSrc)};
      Status L = S.loadSnapshot(Snap); // the armed fault fires in here
      EXPECT_FALSE(L.isOk());
      EXPECT_EQ(S.snapshotStats().Loads, 0u);
      EXPECT_EQ(S.snapshotStats().Fallbacks, 1u);
      EXPECT_NE(S.snapshotStats().LastFallbackReason.find("fault"),
                std::string::npos);
      ASSERT_TRUE(S.program());
      const Instr *SSeed = seedAtLine(*S.program(), kIncFaultSeedLine);
      ASSERT_TRUE(SSeed);
      const SliceResult *R = S.sliceBackwardCached(SSeed, SliceMode::Thin);
      ASSERT_TRUE(R) << S.lastError().str();
      AnalysisSession Cold{std::string(kIncFaultWarmSrc)};
      ASSERT_TRUE(Cold.program());
      const Instr *CSeed = seedAtLine(*Cold.program(), kIncFaultSeedLine);
      const SliceResult *CR = Cold.sliceBackwardCached(CSeed, SliceMode::Thin);
      ASSERT_TRUE(CR);
      EXPECT_EQ(stmtPositions(*R), stmtPositions(*CR));
      fs::remove(Snap);
    } else if (Point == "interp.step" || Point == "interp.output") {
      InterpOptions IO;
      IO.InputLines = {"John Doe"};
      IO.InputInts = {1};
      InterpResult R = interpret(*P, IO);
      EXPECT_TRUE(R.HitLimit) << Point;
      EXPECT_FALSE(R.Error.empty());
    } else {
      ADD_FAILURE() << "fault point without a coverage case: " << Point;
    }

    EXPECT_TRUE(FI.fired().count(Point))
        << "fault point never fired: " << Point;
    if (FI.fired().count(Point))
      Covered.insert(Point);
  }
  FI.reset();
  EXPECT_EQ(Covered.size(), FaultInjector::knownPoints().size());
}

// Satellite: the interpreter's default limits and the budget gate
// terminate runaway programs with a diagnostic.
TEST(PipelineExhaustion, InterpreterLimitsStopRunawayPrograms) {
  FaultInjector::instance().reset();
  const std::string Loop = R"(
def main() {
  var i = 0;
  while (i < 10) {
    print("spin");
    i = i - i;
  }
}
)";
  DiagnosticEngine Diag;
  std::unique_ptr<Program> P = compileThinJ(Loop, Diag);
  ASSERT_TRUE(P);

  InterpOptions StepLimited;
  StepLimited.MaxSteps = 1'000;
  InterpResult R1 = interpret(*P, StepLimited);
  EXPECT_FALSE(R1.Completed);
  EXPECT_TRUE(R1.HitLimit);
  EXPECT_NE(R1.Error.find("step limit exceeded"), std::string::npos);

  InterpOptions OutLimited;
  OutLimited.MaxOutputBytes = 64;
  InterpResult R2 = interpret(*P, OutLimited);
  EXPECT_TRUE(R2.HitLimit);
  EXPECT_NE(R2.Error.find("output limit exceeded"), std::string::npos);
  EXPECT_LE(R2.Output.size(), 13u);

  // The budgeted interpreter stops at its step gate: the interp.step
  // fault point fires at the gate's 500th poll.
  FaultInjector::instance().arm("interp.step", 500);
  AnalysisBudget B;
  InterpOptions Budgeted;
  Budgeted.Budget = &B;
  InterpResult R3 = interpret(*P, Budgeted);
  FaultInjector::instance().reset();
  EXPECT_TRUE(R3.HitLimit);
  EXPECT_NE(R3.Error.find("interpreter budget exhausted (fault:interp.step)"),
            std::string::npos);
  EXPECT_EQ(R3.Steps, 500u);
}

// Chops inherit degradation from either constituent slice and stay
// subsets of the unbudgeted chop.
TEST(PipelineExhaustion, BudgetedChopIsSubset) {
  FaultInjector::instance().reset();
  WorkloadProgram W = makeFigure1();
  std::unique_ptr<Program> P = compileWorkload(W);
  ASSERT_TRUE(P);
  std::unique_ptr<PointsToResult> PTA = runPointsTo(*P);
  std::unique_ptr<SDG> G = buildSDG(*P, *PTA, nullptr);
  const Instr *Src = seedAtLine(*P, W.markerLine("add"));
  const Instr *Snk = seedAtLine(*P, W.markerLine("seed"));
  ASSERT_TRUE(Src && Snk);

  SliceQuery Q = SliceQuery::backward({Src}, SliceMode::Thin);
  Q.ChopSink = Snk;
  SliceEngine Engine(*G);
  SliceResult Full = Engine.run(Q).Results.front();
  AnalysisBudget Tight;
  Tight.MaxSlicePops = 3;
  Q.Budget = &Tight;
  SliceResult Budgeted = Engine.run(Q).Results.front();
  BitSet Extra = Budgeted.nodeSet();
  Extra.subtract(Full.nodeSet());
  EXPECT_EQ(Extra.count(), 0u);
  if (!Budgeted.complete()) {
    EXPECT_FALSE(Budgeted.degradedReason().empty());
  }
}

//===----------------------------------------------------------------------===//
// Snapshot robustness: malformed snapshot files decline soundly
//===----------------------------------------------------------------------===//

namespace {

/// Loads \p Bytes as a snapshot into a fresh session and asserts the
/// sound-decline contract: load fails, the fallback is recorded, and
/// the session still answers every query exactly like \p Ref (the
/// cold answer) — never a crash, never a stale artifact.
void expectSoundDecline(const std::vector<char> &Bytes, const char *Tag,
                        const std::set<std::pair<unsigned, unsigned>> &Ref) {
  namespace fs = std::filesystem;
  const std::string Path =
      (fs::temp_directory_path() / "tsl_corrupt_case.tslsnap").string();
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  }
  AnalysisSession S{std::string(kIncFaultWarmSrc)};
  Status L = S.loadSnapshot(Path);
  EXPECT_FALSE(L.isOk()) << Tag;
  EXPECT_EQ(S.snapshotStats().Loads, 0u) << Tag;
  EXPECT_EQ(S.snapshotStats().Fallbacks, 1u) << Tag;
  EXPECT_FALSE(S.snapshotStats().LastFallbackReason.empty()) << Tag;
  EXPECT_NE(S.statsString().find("last_fallback:"), std::string::npos) << Tag;
  ASSERT_TRUE(S.program()) << Tag;
  const Instr *Seed = seedAtLine(*S.program(), kIncFaultSeedLine);
  ASSERT_TRUE(Seed) << Tag;
  const SliceResult *R = S.sliceBackwardCached(Seed, SliceMode::Thin);
  ASSERT_TRUE(R) << Tag << ": " << S.lastError().str();
  EXPECT_EQ(stmtPositions(*R), Ref) << Tag;
  fs::remove(Path);
}

} // namespace

TEST(SnapshotRobustness, CorruptSnapshotsDeclineSoundly) {
  FaultInjector::instance().reset();
  namespace fs = std::filesystem;
  const std::string Snap =
      (fs::temp_directory_path() / "tsl_corrupt.tslsnap").string();

  AnalysisSession Saver{std::string(kIncFaultWarmSrc)};
  ASSERT_TRUE(Saver.saveSnapshot(Snap).isOk());
  std::vector<char> Bytes;
  {
    std::ifstream In(Snap, std::ios::binary);
    Bytes.assign(std::istreambuf_iterator<char>(In),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(Bytes.size(), 16u);

  // Cold slice reference the declined sessions must still reproduce.
  std::set<std::pair<unsigned, unsigned>> Ref;
  {
    AnalysisSession Cold{std::string(kIncFaultWarmSrc)};
    ASSERT_TRUE(Cold.program());
    const Instr *Seed = seedAtLine(*Cold.program(), kIncFaultSeedLine);
    ASSERT_TRUE(Seed);
    const SliceResult *R = Cold.sliceBackwardCached(Seed, SliceMode::Thin);
    ASSERT_TRUE(R);
    Ref = stmtPositions(*R);
  }

  // Truncations, from empty up to one-byte-short.
  for (std::size_t Len : std::vector<std::size_t>{
           0, 3, 8, Bytes.size() / 4, Bytes.size() / 2, Bytes.size() - 1})
    expectSoundDecline(
        std::vector<char>(Bytes.begin(), Bytes.begin() + Len), "truncated",
        Ref);

  // Single bit flips spread across the whole file: header, section
  // frames, and every payload region. Each must trip the magic check,
  // a bounds check, or a section CRC.
  const std::size_t Step = Bytes.size() / 16 + 1;
  for (std::size_t Pos = 0; Pos < Bytes.size(); Pos += Step) {
    std::vector<char> M = Bytes;
    M[Pos] = static_cast<char>(M[Pos] ^ 0x20);
    expectSoundDecline(M, "bit flip", Ref);
  }

  // Version bump: bytes 4..7 hold the little-endian format version.
  {
    std::vector<char> M = Bytes;
    M[4] = static_cast<char>(M[4] + 1);
    expectSoundDecline(M, "version bump", Ref);
  }

  // Wrong source digest: a session holding different source must
  // refuse the otherwise-valid snapshot.
  {
    AnalysisSession Other{std::string(kIncFaultEditedSrc)};
    Status L = Other.loadSnapshot(Snap);
    EXPECT_FALSE(L.isOk());
    EXPECT_NE(Other.snapshotStats().LastFallbackReason.find("digest"),
              std::string::npos);
    ASSERT_TRUE(Other.program());
  }

  // Wrong option digest: same source, different PTA options.
  {
    AnalysisSession S{std::string(kIncFaultWarmSrc)};
    PTAOptions PO;
    PO.ObjSensContainers = false;
    S.setPTAOptions(PO);
    Status L = S.loadSnapshot(Snap);
    EXPECT_FALSE(L.isOk());
    EXPECT_NE(S.snapshotStats().LastFallbackReason.find("option digest"),
              std::string::npos);
  }

  // The pristine file still loads after all that.
  {
    AnalysisSession S{std::string(kIncFaultWarmSrc)};
    EXPECT_TRUE(S.loadSnapshot(Snap).isOk());
    EXPECT_EQ(S.snapshotStats().Loads, 1u);
    const Instr *Seed = seedAtLine(*S.program(), kIncFaultSeedLine);
    ASSERT_TRUE(Seed);
    const SliceResult *R = S.sliceBackwardCached(Seed, SliceMode::Thin);
    ASSERT_TRUE(R);
    EXPECT_EQ(stmtPositions(*R), Ref);
  }
  fs::remove(Snap);
}
