//===-- report_test.cpp - Slice narration unit tests ----------------------------==//

#include "LineOracle.h"
#include "eval/Experiments.h"
#include "eval/Runtime.h"
#include "eval/Workload.h"
#include "lang/Lower.h"
#include "pipeline/Session.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"
#include "slicer/Report.h"
#include "slicer/Slicer.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace tsl;

namespace {

struct Fixture {
  std::unique_ptr<AnalysisSession> S;
  Program *P = nullptr;
  PointsToResult *PTA = nullptr;
  SDG *G = nullptr;

  explicit Fixture(const std::string &Source) {
    S = std::make_unique<AnalysisSession>(Source);
    P = S->program();
    EXPECT_NE(P, nullptr) << S->diagnostics().str();
    if (!P)
      return;
    PTA = S->pointsTo();
    G = S->sdg();
  }

  const Instr *lastAtLine(unsigned Line) {
    const Instr *Last = nullptr;
    for (const auto &M : P->methods())
      for (const auto &BB : M->blocks())
        for (const auto &I : BB->instrs())
          if (I->loc().Line == Line)
            Last = I.get();
    return Last;
  }

  /// Narrates the context-insensitive \p Mode slice from \p Seed.
  SliceNarration narrate(const Instr *Seed, SliceMode Mode) {
    return narrateSlice(sliceBackward(*G, Seed, Mode), Seed, Mode);
  }
};

} // namespace

TEST(Report, SeedFirstAndDepthsMonotoneInBfsOrder) {
  Fixture F(R"(
def main() {
  var a = readInt();
  var b = a + 1;
  print(b);
}
)");
  SliceNarration Story = F.narrate(F.lastAtLine(5), SliceMode::Thin);
  const auto &Steps = Story.steps();
  ASSERT_FALSE(Steps.empty());
  EXPECT_EQ(Steps.front().ViaNode, -1);
  EXPECT_EQ(Steps.front().Depth, 0u);
  for (size_t I = 1; I < Steps.size(); ++I) {
    EXPECT_GE(Steps[I].Depth, Steps[I - 1].Depth); // BFS order.
    EXPECT_GE(Steps[I].ViaNode, 0);
    EXPECT_GT(Steps[I].Depth, 0u);
  }
}

TEST(Report, EveryStepHasReachedProvenance) {
  Fixture F(makeFigure1().Source);
  WorkloadProgram W = makeFigure1();
  SliceNarration Story =
      F.narrate(F.lastAtLine(W.markerLine("seed")), SliceMode::Thin);
  // Each non-seed step's ViaNode must itself appear earlier.
  BitSet Seen;
  for (const NarrationStep &Step : Story.steps()) {
    if (Step.ViaNode >= 0) {
      EXPECT_TRUE(Seen.test(static_cast<unsigned>(Step.ViaNode)));
    }
    Seen.insert(Step.Node);
  }
}

TEST(Report, RenderingNamesTheReasons) {
  Fixture F(R"(
class Box { var v: Object; }
def fill(b: Box, x: Object) {
  b.v = x;
}
def main() {
  var b = new Box();
  fill(b, new Object());
  var r = b.v;
  print(r == null);
}
)");
  SliceNarration Story = F.narrate(F.lastAtLine(10), SliceMode::Thin);
  std::string Text = Story.str();
  EXPECT_NE(Text.find("[seed]"), std::string::npos);
  EXPECT_NE(Text.find("produces the value used by"), std::string::npos);
  EXPECT_NE(Text.find("passes an argument into"), std::string::npos);
  // Thin narration never explains via base pointers or control.
  EXPECT_EQ(Text.find("base pointer"), std::string::npos);
  EXPECT_EQ(Text.find("controls whether"), std::string::npos);

  SliceNarration Trad = F.narrate(F.lastAtLine(10), SliceMode::Traditional);
  EXPECT_NE(Trad.str().find("base pointer"), std::string::npos);
}

TEST(Report, LineOffsetRendering) {
  Fixture F(R"(
def main() {
  var a = 1;
  print(a);
}
)");
  SliceNarration Story = F.narrate(F.lastAtLine(4), SliceMode::Thin);
  // With an offset of 1, line 4 renders as 3.
  std::string Text = Story.str(1);
  EXPECT_NE(Text.find("main:3"), std::string::npos);
  EXPECT_EQ(Text.find("main:4"), std::string::npos);
}

TEST(Report, NarrationCoversTheThinSliceLines) {
  WorkloadProgram W = makeFigure1();
  Fixture F(W.Source);
  const Instr *Seed = F.lastAtLine(W.markerLine("seed"));
  SliceResult Slice = sliceBackward(*F.G, Seed, SliceMode::Thin);
  SliceNarration Story = narrateSlice(Slice, Seed, SliceMode::Thin);
  // Every narration node is in the slice and vice versa.
  BitSet Narrated;
  for (const NarrationStep &Step : Story.steps())
    Narrated.insert(Step.Node);
  EXPECT_TRUE(Narrated == Slice.nodeSet());
  // The buggy line is narrated.
  std::string BugLine = ":";
  BugLine += std::to_string(W.markerLine("bug"));
  EXPECT_NE(Story.str().find(BugLine), std::string::npos);
}

TEST(Report, ContextSensitiveNarrationStaysInsideTheSlice) {
  // A context-sensitive slice excludes nodes that plain reachability
  // over the CS graph reaches; the narration must not bring them back.
  BugCase Case;
  for (BugCase &C : debuggingCases())
    if (C.Id == "nanoxml-1")
      Case = std::move(C);
  ASSERT_EQ(Case.Id, "nanoxml-1");
  std::vector<unsigned> Lines;
  for (const auto &[Name, Line] : Case.Prog.Markers)
    Lines.push_back(Line);
  std::sort(Lines.begin(), Lines.end());
  Lines.resize(std::min<std::size_t>(Lines.size(), 5));
  ASSERT_EQ(Lines.size(), 5u);

  AnalysisSession S(Case.Prog.Source);
  SDGOptions CS;
  CS.ContextSensitive = true;
  S.setSDGOptions(CS);
  ASSERT_NE(S.program(), nullptr) << S.diagnostics().str();
  for (SliceMode Mode : {SliceMode::Thin, SliceMode::Traditional})
    for (unsigned Line : Lines) {
      const Instr *Seed = seedAtLine(*S.program(), Line);
      ASSERT_NE(Seed, nullptr) << Line;
      const SliceAnswer *A =
          S.slice(SliceQuery::backward({Seed}, Mode, /*ContextSensitive=*/true));
      ASSERT_NE(A, nullptr);
      const SliceResult &Slice = A->Results.front();
      const std::vector<SourceLine> &SliceLines = Slice.sourceLines();
      SliceNarration Story = narrateSlice(Slice, Seed, Mode);
      for (const NarrationStep &Step : Story.steps()) {
        const SDGNode &N = Slice.graph().node(Step.Node);
        if (!N.isSourceStmt() || !N.I->loc().isValid())
          continue;
        EXPECT_TRUE(std::binary_search(SliceLines.begin(), SliceLines.end(),
                                       SourceLine{N.M, N.I->loc().Line}))
            << "marker line " << Line << " narrates line "
            << N.I->loc().Line << " outside its slice";
      }
    }
}

namespace {

/// The 36 evaluation workloads: Table 2's debugging cases, then Table
/// 3's tough casts.
std::vector<std::pair<std::string, WorkloadProgram>> evaluationWorkloads() {
  std::vector<std::pair<std::string, WorkloadProgram>> Out;
  for (BugCase &C : debuggingCases())
    Out.emplace_back(C.Id, std::move(C.Prog));
  for (CastCase &C : toughCastCases())
    Out.emplace_back(C.Id, std::move(C.Prog));
  return Out;
}

} // namespace

// The line table answers every seed lookup as the whole-program scan
// did, no-statement messages included, on every line of the 36
// workloads and of a pad-100 program, below the runtime prefix and
// with no prefix at all.
TEST(Report, SeedLookupMatchesScanOnEveryLine) {
  auto Workloads = evaluationWorkloads();
  ASSERT_EQ(Workloads.size(), 36u);
  Workloads.emplace_back(
      "pad-100", padWorkload(debuggingCases().front().Prog, "BS", 100, 6));
  for (const auto &[Id, W] : Workloads) {
    DiagnosticEngine Diag;
    std::unique_ptr<Program> P = compileThinJ(W.Source, Diag);
    ASSERT_TRUE(P) << Id << ": " << Diag.str();
    lineoracle::expectSeedLookupMatchesScan(*P, runtimeLibraryLines(), Id);
    lineoracle::expectSeedLookupMatchesScan(*P, 0, Id);
  }
}

// sourceLines() reads (method, line) ranks back in table order; it
// must equal the sort-based list on every marker line's slice: thin
// and traditional, context-insensitive and context-sensitive.
TEST(Report, SourceLinesMatchSortedReferenceOnMarkerLines) {
  unsigned Markers = 0;
  for (const auto &[Id, W] : evaluationWorkloads()) {
    AnalysisSession S(W.Source);
    ASSERT_NE(S.program(), nullptr) << Id << ": " << S.diagnostics().str();
    for (bool CS : {false, true}) {
      SDGOptions Opts;
      Opts.ContextSensitive = CS;
      S.setSDGOptions(Opts);
      for (const auto &[Name, Line] : W.Markers) {
        Markers += !CS;
        const Instr *Seed = seedAtLine(*S.program(), Line);
        ASSERT_NE(Seed, nullptr) << Id << " " << Name;
        for (SliceMode Mode : {SliceMode::Thin, SliceMode::Traditional}) {
          const SliceAnswer *A =
              S.slice(SliceQuery::backward({Seed}, Mode, CS));
          ASSERT_NE(A, nullptr) << Id << " " << Name;
          const SliceResult &R = A->Results.front();
          EXPECT_TRUE(R.sourceLines() == lineoracle::sortedSourceLines(R))
              << Id << " marker " << Name << (CS ? " cs " : " ci ")
              << (Mode == SliceMode::Thin ? "thin" : "trad");
        }
      }
    }
  }
  EXPECT_EQ(Markers, 918u);
}

// LineTable::patch when a dirty body's line set changes without any
// line moving: a line the body leaves falls back to the previous
// method on it, a line it enters goes to the highest method id on it,
// and the rank bases after it move. Two methods share line 2, so b
// (the later method) owns it until its body leaves for main's line.
TEST(Report, LineTablePatchFollowsDirtyLineSets) {
  Fixture F("def a(): int { return 1; }\n"
            "def b(): int { return 2; } def c(): int { return 3; }\n"
            "def main() {\n"
            "  print(a() + b() + c());\n"
            "}\n");
  ASSERT_NE(F.P, nullptr);
  Program &P = *F.P;
  lineoracle::expectSeedLookupMatchesScan(P, 0, "before");
  Method *B = nullptr;
  for (const auto &M : P.methods())
    if (P.strings().str(M->name()) == "b")
      B = M.get();
  ASSERT_NE(B, nullptr);
  for (Instr *I : B->instrs())
    if (I->loc().isValid())
      I->setLoc(SourceLoc(4, 1));
  P.lineTable().patch({B});
  lineoracle::expectSeedLookupMatchesScan(P, 0, "b moved to line 4");
  for (Instr *I : B->instrs())
    if (I->loc().isValid())
      I->setLoc(SourceLoc(2, 1));
  P.lineTable().patch({B});
  lineoracle::expectSeedLookupMatchesScan(P, 0, "b back on line 2");

  // Ranks follow the patched line sets: every positioned statement's
  // rank reads back its own (method, line).
  const LineTable &T = P.lineTable();
  for (const auto &M : P.methods())
    for (const Instr *I : M->instrs()) {
      const unsigned Rank = T.rank(M->id(), I->lineRank());
      EXPECT_EQ(T.methodOfRank(Rank), M->id());
      EXPECT_EQ(T.lineOfRank(M->id(), Rank), I->loc().Line);
    }
}
