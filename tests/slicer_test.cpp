//===-- slicer_test.cpp - CI slicing unit tests ---------------------------------==//

#include "lang/Lower.h"
#include "pipeline/Session.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"
#include "slicer/Slicer.h"

#include <gtest/gtest.h>

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

  /// Source line numbers (within any method) of the slice.
  std::vector<unsigned> lines(const SliceResult &S) {
    std::vector<unsigned> Out;
    for (const SourceLine &L : S.sourceLines())
      Out.push_back(L.Line);
    std::sort(Out.begin(), Out.end());
    Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
    return Out;
  }
};

bool containsLine(const std::vector<unsigned> &Lines, unsigned Line) {
  return std::find(Lines.begin(), Lines.end(), Line) != Lines.end();
}

} // namespace

TEST(Slicer, StraightLineValueChain) {
  Fixture F(R"(
def main() {
  var a = 1;
  var b = a + 2;
  var unrelated = 99;
  var c = b * 3;
  print(c);
  print(unrelated);
}
)");
  const Instr *Seed = F.lastAtLine(7); // print(c)
  ASSERT_NE(Seed, nullptr);
  SliceResult Thin = sliceBackward(*F.G, Seed, SliceMode::Thin);
  auto L = F.lines(Thin);
  EXPECT_TRUE(containsLine(L, 3)); // a
  EXPECT_TRUE(containsLine(L, 4)); // b
  EXPECT_TRUE(containsLine(L, 6)); // c
  EXPECT_FALSE(containsLine(L, 5)); // unrelated
  EXPECT_FALSE(containsLine(L, 8));
}

TEST(Slicer, ThinSubsetOfTraditional) {
  Fixture F(R"(
class Box { var v: Object; }
def main() {
  var b = new Box();
  if (readInt() > 0) {
    b.v = new Object();
  }
  var r = b.v;
  print(r == null);
}
)");
  const Instr *Seed = F.lastAtLine(9);
  SliceResult Thin = sliceBackward(*F.G, Seed, SliceMode::Thin);
  SliceResult Trad = sliceBackward(*F.G, Seed, SliceMode::Traditional);
  BitSet Extra = Thin.nodeSet();
  Extra.subtract(Trad.nodeSet());
  EXPECT_TRUE(Extra.empty());
  EXPECT_LT(Thin.sizeStmts(), Trad.sizeStmts());
  // The branch is in the traditional slice only.
  const Instr *Branch = nullptr;
  for (const auto &BB : F.P->mainMethod()->blocks())
    if (BB->terminator() && isa<BranchInstr>(BB->terminator()))
      Branch = BB->terminator();
  ASSERT_NE(Branch, nullptr);
  EXPECT_FALSE(Thin.contains(Branch));
  EXPECT_TRUE(Trad.contains(Branch));
}

TEST(Slicer, SeedAlwaysInSlice) {
  Fixture F("def main() { print(1); }");
  const Instr *Seed = F.lastAtLine(1);
  SliceResult Thin = sliceBackward(*F.G, Seed, SliceMode::Thin);
  EXPECT_TRUE(Thin.contains(Seed));
}

TEST(Slicer, InterproceduralThinChain) {
  Fixture F(R"(
def double(x: int): int {
  return x * 2;
}
def main() {
  var n = readInt();
  var d = double(n);
  print(d);
}
)");
  const Instr *Seed = F.lastAtLine(8);
  SliceResult Thin = sliceBackward(*F.G, Seed, SliceMode::Thin);
  auto L = F.lines(Thin);
  EXPECT_TRUE(containsLine(L, 3)); // return x * 2
  EXPECT_TRUE(containsLine(L, 6)); // n = readInt()
  EXPECT_TRUE(containsLine(L, 7)); // the call line (actual-in)
}

TEST(Slicer, IndexFlowExcludedFromThin) {
  Fixture F(R"(
def main() {
  var arr = new int[10];
  var idx = readInt();
  arr[idx] = 42;
  var out = arr[idx - idx];
  print(out);
}
)");
  const Instr *Seed = F.lastAtLine(7);
  SliceResult Thin = sliceBackward(*F.G, Seed, SliceMode::Thin);
  SliceResult Trad = sliceBackward(*F.G, Seed, SliceMode::Traditional);
  // The stored 42 (line 5) is a producer; the index computation
  // (line 4) is explainer material.
  EXPECT_TRUE(containsLine(F.lines(Thin), 5));
  EXPECT_FALSE(containsLine(F.lines(Thin), 4));
  EXPECT_TRUE(containsLine(F.lines(Trad), 4));
}

TEST(Slicer, PhiJoinsBothArms) {
  Fixture F(R"(
def main() {
  var x = 0;
  if (readInt() > 0) {
    x = 10;
  } else {
    x = 20;
  }
  print(x);
}
)");
  const Instr *Seed = F.lastAtLine(9);
  SliceResult Thin = sliceBackward(*F.G, Seed, SliceMode::Thin);
  auto L = F.lines(Thin);
  EXPECT_TRUE(containsLine(L, 5));
  EXPECT_TRUE(containsLine(L, 7));
  EXPECT_FALSE(containsLine(L, 4)); // The condition is control-only.
}

TEST(Slicer, ForwardSlice) {
  Fixture F(R"(
def main() {
  var a = readInt();
  var b = a + 1;
  var c = 5;
  print(b);
  print(c);
}
)");
  const Instr *Seed = F.lastAtLine(3); // a's def
  SliceResult Fwd = sliceForward(*F.G, Seed, SliceMode::Thin);
  auto L = F.lines(Fwd);
  EXPECT_TRUE(containsLine(L, 4));
  EXPECT_TRUE(containsLine(L, 6));
  EXPECT_FALSE(containsLine(L, 5));
  EXPECT_FALSE(containsLine(L, 7));
}

TEST(Slicer, MultiSeed) {
  Fixture F(R"(
def main() {
  var a = 1;
  var b = 2;
  print(a);
  print(b);
}
)");
  const Instr *S1 = F.lastAtLine(5);
  const Instr *S2 = F.lastAtLine(6);
  std::vector<unsigned> Clones;
  for (const Instr *Seed : {S1, S2})
    for (unsigned Node : F.G->nodesFor(Seed))
      Clones.push_back(Node);
  SliceResult Both = sliceBackwardNodes(*F.G, Clones, SliceMode::Thin);
  auto L = F.lines(Both);
  EXPECT_TRUE(containsLine(L, 3));
  EXPECT_TRUE(containsLine(L, 4));
  // Slicing from both seeds at once is the union of the two slices.
  SliceResult Union = sliceBackward(*F.G, S1, SliceMode::Thin);
  Union.unionWith(sliceBackward(*F.G, S2, SliceMode::Thin));
  EXPECT_TRUE(Both.nodeSet() == Union.nodeSet());
}

TEST(Slicer, HeapFlowThroughContainerInternals) {
  // The essence of Figure 1: the value is traced through the container
  // while the container plumbing stays out of the thin slice.
  Fixture F(R"(
class Vec {
  var elems: Object[];
  var count: int;
  def init() { elems = new Object[4]; count = 0; }
  def add(p: Object) { elems[count] = p; count = count + 1; }
  def get(i: int): Object { return elems[i]; }
}
def main() {
  var v = new Vec();
  var payload = readLine();
  v.add(payload);
  var out = (string) v.get(0);
  print(out);
}
)");
  const Instr *Seed = F.lastAtLine(14);
  SliceResult Thin = sliceBackward(*F.G, Seed, SliceMode::Thin);
  auto L = F.lines(Thin);
  EXPECT_TRUE(containsLine(L, 6));  // add's array write
  EXPECT_TRUE(containsLine(L, 7));  // get's array read
  EXPECT_TRUE(containsLine(L, 11)); // payload = readLine()
  EXPECT_TRUE(containsLine(L, 12)); // the add call (actual-in)
  EXPECT_FALSE(containsLine(L, 5)); // init's elems allocation: base only
  SliceResult Trad = sliceBackward(*F.G, Seed, SliceMode::Traditional);
  EXPECT_TRUE(containsLine(F.lines(Trad), 5));
}

TEST(Slicer, SliceResultViews) {
  Fixture F("def main() { var x = 1; print(x); }");
  const Instr *Seed = F.lastAtLine(1);
  SliceResult Thin = sliceBackward(*F.G, Seed, SliceMode::Thin);
  EXPECT_GE(Thin.statements().size(), 2u);
  EXPECT_FALSE(Thin.sourceLines().empty());
  EXPECT_NE(Thin.str().find("main:1"), std::string::npos);
  EXPECT_TRUE(Thin.containsLine(F.P->mainMethod(), 1));
  EXPECT_FALSE(Thin.containsLine(F.P->mainMethod(), 99));
}

TEST(Slicer, StatementViewCachedAndInvalidated) {
  Fixture F(R"(
def main() {
  var a = 1;
  var b = a + 2;
  print(b);
  print(a);
}
)");
  const Instr *Seed = F.lastAtLine(5); // print(b)
  ASSERT_NE(Seed, nullptr);
  SliceResult S = sliceBackward(*F.G, Seed, SliceMode::Thin);

  // Repeated calls return the one cached vector, sorted by node id.
  const std::vector<const Instr *> &Stmts = S.statements();
  EXPECT_EQ(&Stmts, &S.statements());
  EXPECT_EQ(&S.sourceLines(), &S.sourceLines());
  std::vector<int> Ids;
  for (const Instr *I : Stmts)
    Ids.push_back(F.G->nodeFor(I));
  EXPECT_TRUE(std::is_sorted(Ids.begin(), Ids.end()));

  // Mutation through unionWith invalidates the cache; the recomputed
  // view covers the union.
  SliceResult Other =
      sliceBackward(*F.G, F.lastAtLine(6), SliceMode::Traditional);
  const std::size_t Before = S.statements().size();
  S.unionWith(Other);
  EXPECT_GE(S.statements().size(), Before);
  for (const Instr *I : Other.statements())
    EXPECT_TRUE(S.contains(I));
}

TEST(Slicer, Deterministic) {
  Fixture F(R"(
class Box { var v: Object; }
def main() {
  var b = new Box();
  b.v = new Object();
  print(b.v == null);
}
)");
  const Instr *Seed = F.lastAtLine(6);
  SliceResult A = sliceBackward(*F.G, Seed, SliceMode::Traditional);
  SliceResult B = sliceBackward(*F.G, Seed, SliceMode::Traditional);
  EXPECT_TRUE(A.nodeSet() == B.nodeSet());
}
