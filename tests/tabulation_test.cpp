//===-- tabulation_test.cpp - Context-sensitive slicing tests -------------------==//

#include "eval/Experiments.h"
#include "eval/Workload.h"
#include "lang/Lower.h"
#include "pipeline/Session.h"
#include "modref/ModRef.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"
#include "slicer/Slicer.h"
#include "slicer/Tabulation.h"

#include <gtest/gtest.h>

using namespace tsl;

namespace {

struct Fixture {
  std::unique_ptr<AnalysisSession> S;
  Program *P = nullptr;
  PointsToResult *PTA = nullptr;
  ModRefResult *MR = nullptr;
  std::unique_ptr<SDG> CSGraph;
  SDG *CS = nullptr;
  SDG *CI = nullptr;

  explicit Fixture(const std::string &Source) {
    S = std::make_unique<AnalysisSession>(Source);
    P = S->program();
    EXPECT_NE(P, nullptr) << S->diagnostics().str();
    if (!P)
      return;
    PTA = S->pointsTo();
    MR = S->modRef();
    // A session holds one graph: the CS one is built beside it.
    SDGOptions CSOpts;
    CSOpts.ContextSensitive = true;
    CSGraph = buildSDG(*P, *PTA, MR, CSOpts);
    CS = CSGraph.get();
    CI = S->sdg();
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

  bool sliceHasLine(const SliceResult &S, unsigned Line) {
    for (const SourceLine &L : S.sourceLines())
      if (L.Line == Line)
        return true;
    return false;
  }
};

// The classic unrealizable-path example: two callers pass different
// values through the same identity function. A context-insensitive
// slice of one result drags in the other caller's argument; the
// tabulation slicer does not.
const char *TwoCallers = R"(
def id(x: int): int {
  return x;
}
def main() {
  var a = readInt();
  var b = readInt();
  var ra = id(a);
  var rb = id(b);
  print(ra);
  print(rb);
}
)";

} // namespace

TEST(Tabulation, ExcludesUnrealizablePaths) {
  Fixture F(TwoCallers);
  const Instr *Seed = F.lastAtLine(10); // print(ra)

  SliceResult CISlice = sliceBackward(*F.CI, Seed, SliceMode::Thin);
  // Context-insensitive: both inputs pollute the slice.
  EXPECT_TRUE(F.sliceHasLine(CISlice, 6));
  EXPECT_TRUE(F.sliceHasLine(CISlice, 7));

  TabulationSlicer Tab(*F.CS, SliceMode::Thin);
  SliceResult CSSlice = Tab.slice(Seed);
  // Context-sensitive: only a's chain.
  EXPECT_TRUE(F.sliceHasLine(CSSlice, 6));
  EXPECT_FALSE(F.sliceHasLine(CSSlice, 7));
  EXPECT_TRUE(F.sliceHasLine(CSSlice, 3)); // id's return.
  EXPECT_TRUE(F.sliceHasLine(CSSlice, 8)); // The call.
}

TEST(Tabulation, SummaryEdgesExist) {
  Fixture F(TwoCallers);
  TabulationSlicer Tab(*F.CS, SliceMode::Thin);
  EXPECT_GT(Tab.numSummaryEdges(), 0u);
}

TEST(Tabulation, DescendsIntoCallees) {
  Fixture F(R"(
def compute(): int {
  var inner = 21;
  return inner * 2;
}
def main() {
  print(compute());
}
)");
  TabulationSlicer Tab(*F.CS, SliceMode::Thin);
  SliceResult S = Tab.slice(F.lastAtLine(7));
  EXPECT_TRUE(F.sliceHasLine(S, 3));
  EXPECT_TRUE(F.sliceHasLine(S, 4));
}

TEST(Tabulation, HeapFlowThroughCalleesMatched) {
  Fixture F(R"(
class Cell { var v: int; }
def store(c: Cell, x: int) {
  c.v = x;
}
def load(c: Cell): int {
  return c.v;
}
def main() {
  var c1 = new Cell();
  var c2 = new Cell();
  store(c1, readInt());
  store(c2, 5);
  print(load(c1));
}
)");
  TabulationSlicer Tab(*F.CS, SliceMode::Thin);
  SliceResult S = Tab.slice(F.lastAtLine(14)); // print(load(c1))
  EXPECT_TRUE(F.sliceHasLine(S, 4));  // the store statement
  EXPECT_TRUE(F.sliceHasLine(S, 12)); // store(c1, readInt())
  EXPECT_TRUE(F.sliceHasLine(S, 7));  // the load
}

// A call links to its target's heap formals whatever the methods'
// order: first() calls later(), declared (and so built) after it. The
// builder once looked the target's formals up before they existed,
// dropped the call's ParamIn/ParamOut heap edges and lost the store.
TEST(Tabulation, HeapFlowThroughLaterDeclaredCallee) {
  Fixture F(R"(
class Cell { var v: int; }
def first(c: Cell): int {
  return later(c);
}
def later(c: Cell): int {
  return c.v;
}
def main() {
  var c = new Cell();
  c.v = 42;
  print(first(c));
}
)");
  TabulationSlicer Tab(*F.CS, SliceMode::Thin);
  SliceResult S = Tab.slice(F.lastAtLine(12)); // print(first(c))
  EXPECT_TRUE(F.sliceHasLine(S, 11)); // the store
  EXPECT_TRUE(F.sliceHasLine(S, 7));  // the load in later()
  EXPECT_TRUE(F.sliceHasLine(S, 4));  // first()'s call of later()
}

TEST(Tabulation, ThinStillSubsetOfTraditional) {
  Fixture F(TwoCallers);
  TabulationSlicer Thin(*F.CS, SliceMode::Thin);
  TabulationSlicer Trad(*F.CS, SliceMode::Traditional);
  const Instr *Seed = F.lastAtLine(10);
  BitSet Extra = Thin.slice(Seed).nodeSet();
  Extra.subtract(Trad.slice(Seed).nodeSet());
  EXPECT_TRUE(Extra.empty());
}

TEST(Tabulation, TraditionalFollowsControl) {
  Fixture F(R"(
def main() {
  var x = 0;
  if (readInt() > 0) {
    x = 1;
  }
  print(x);
}
)");
  TabulationSlicer Thin(*F.CS, SliceMode::Thin);
  TabulationSlicer Trad(*F.CS, SliceMode::Traditional);
  const Instr *Seed = F.lastAtLine(7);
  EXPECT_FALSE(F.sliceHasLine(Thin.slice(Seed), 4));
  EXPECT_TRUE(F.sliceHasLine(Trad.slice(Seed), 4));
}

TEST(Tabulation, RecursionTerminates) {
  Fixture F(R"(
def fact(n: int): int {
  if (n <= 1) {
    return 1;
  }
  return n * fact(n - 1);
}
def main() {
  print(fact(5));
}
)");
  TabulationSlicer Tab(*F.CS, SliceMode::Thin);
  SliceResult S = Tab.slice(F.lastAtLine(9));
  EXPECT_TRUE(F.sliceHasLine(S, 4));
  EXPECT_TRUE(F.sliceHasLine(S, 6));
}

// Summary edges are a function of same-level paths, so they pin the CS
// heap wiring: one hub per (method, partition) from the writers to the
// readers, with the formal-in kept off it, has exactly the paths of the
// pairwise writer x reader edges it replaced. Routing the formal-in
// through the hub, or dropping a writer or reader, changes the counts.
// The traditional count at pad-4 is EXPERIMENTS.md's Scalability row.
TEST(Tabulation, HeapHubsKeepSummaryEdges) {
  Fixture F(padWorkload(debuggingCases().front().Prog, "S", 4, 6).Source);
  ASSERT_TRUE(F.CS);
  EXPECT_EQ(TabulationSlicer(*F.CS, SliceMode::Traditional).numSummaryEdges(),
            93608u);
  EXPECT_EQ(TabulationSlicer(*F.CS, SliceMode::Thin).numSummaryEdges(), 27970u);
}
