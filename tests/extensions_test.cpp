//===-- extensions_test.cpp - CHA, chopping, dot export, alias depth ------------==//

#include "cg/CHA.h"
#include "eval/Workload.h"
#include "lang/Lower.h"
#include "pta/PointsTo.h"
#include "sdg/SDGDot.h"
#include "slicer/Engine.h"
#include "slicer/Expansion.h"
#include "slicer/Slicer.h"

#include <gtest/gtest.h>

using namespace tsl;

namespace {

struct Fixture {
  std::unique_ptr<Program> P;
  std::unique_ptr<PointsToResult> PTA;
  std::unique_ptr<SDG> G;

  explicit Fixture(const std::string &Source) {
    DiagnosticEngine Diag;
    P = compileThinJ(Source, Diag);
    EXPECT_NE(P, nullptr) << Diag.str();
    if (!P)
      return;
    PTA = runPointsTo(*P);
    G = buildSDG(*P, *PTA, nullptr);
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

  bool hasLine(const SliceResult &S, unsigned Line) {
    for (const SourceLine &L : S.sourceLines())
      if (L.Line == Line)
        return true;
    return false;
  }

  /// The thin chop from \p Source to \p Sink, as a slice query.
  SliceResult chop(const Instr *Source, const Instr *Sink) {
    SliceQuery Q = SliceQuery::backward({Source}, SliceMode::Thin);
    Q.ChopSink = Sink;
    return SliceEngine(*G).run(Q).Results.front();
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// CHA call graph
//===----------------------------------------------------------------------===//

TEST(CHA, CoarserThanPointsTo) {
  const char *Source = R"(
class Animal { def speak(): string { return "..."; } }
class Cat extends Animal { def speak(): string { return "meow"; } }
class Dog extends Animal { def speak(): string { return "woof"; } }
def main() {
  var a: Animal = new Cat();
  print(a.speak());
}
)";
  Fixture F(Source);
  ClassHierarchy CH(*F.P);
  auto CHA = buildCHACallGraph(*F.P, CH);

  Method *DogSpeak = F.P->findClass(F.P->strings().lookup("Dog"))
                         ->findOwnMethod(F.P->strings().lookup("speak"));
  // CHA conservatively reaches Dog.speak; the points-to call graph
  // does not (pta_test asserts the latter).
  EXPECT_TRUE(CHA->isReachable(DogSpeak));
  EXPECT_FALSE(F.PTA->callGraph().isReachable(DogSpeak));
  // CHA reaches at least everything points-to reaches.
  for (Method *M : F.PTA->callGraph().reachableMethods())
    EXPECT_TRUE(CHA->isReachable(M))
        << M->qualifiedName(F.P->strings());
}

TEST(CHA, StaticCallsAreExact) {
  Fixture F(R"(
def helper(): int { return 3; }
def unused(): int { return 4; }
def main() { print(helper()); }
)");
  ClassHierarchy CH(*F.P);
  auto CHA = buildCHACallGraph(*F.P, CH);
  Method *Unused = nullptr;
  for (const auto &M : F.P->methods())
    if (M->qualifiedName(F.P->strings()) == "unused")
      Unused = M.get();
  EXPECT_FALSE(CHA->isReachable(Unused));
}

//===----------------------------------------------------------------------===//
// Chopping
//===----------------------------------------------------------------------===//

TEST(Chop, IntersectsForwardAndBackward) {
  Fixture F(R"(
def main() {
  var src = readInt();
  var mid = src + 1;
  var other = readInt();
  var sink = mid * 2 + other;
  print(sink);
  print(other);
}
)");
  const Instr *Src = F.lastAtLine(3);
  const Instr *Sink = F.lastAtLine(6);
  SliceResult C = F.chop(Src, Sink);
  EXPECT_TRUE(F.hasLine(C, 3));  // Source.
  EXPECT_TRUE(F.hasLine(C, 4));  // On the path.
  EXPECT_TRUE(F.hasLine(C, 6));  // Sink.
  EXPECT_FALSE(F.hasLine(C, 5)); // Flows to sink but not from source.
  EXPECT_FALSE(F.hasLine(C, 7)); // After the sink.
}

TEST(Chop, EmptyWhenDisconnected) {
  Fixture F(R"(
def main() {
  var a = readInt();
  var b = readInt();
  print(a);
  print(b);
}
)");
  SliceResult C = F.chop(F.lastAtLine(4), F.lastAtLine(5));
  EXPECT_EQ(C.sizeStmts(), 0u);
}

TEST(Chop, ThroughContainer) {
  // The Figure 1 question: how does the value get from the read to the
  // print? The chop is the producer path through the Vector.
  WorkloadProgram W = makeFigure1();
  Fixture F(W.Source);
  const Instr *Src = F.lastAtLine(W.markerLine("bug"));
  const Instr *Sink = F.lastAtLine(W.markerLine("seed"));
  SliceResult C = F.chop(Src, Sink);
  EXPECT_TRUE(F.hasLine(C, W.markerLine("bug")));
  EXPECT_TRUE(F.hasLine(C, W.markerLine("add")));
  EXPECT_TRUE(F.hasLine(C, W.markerLine("get")));
  EXPECT_TRUE(F.hasLine(C, W.markerLine("seed")));
  // The names-reading loop counter is not on the value path.
  EXPECT_LT(C.sizeStmts(),
            sliceBackward(*F.G, Sink, SliceMode::Thin).sizeStmts());
}

//===----------------------------------------------------------------------===//
// Dot export
//===----------------------------------------------------------------------===//

TEST(Dot, EmitsNodesAndStyledEdges) {
  Fixture F(R"(
class Box { var v: Object; }
def main() {
  var b = new Box();
  b.v = new Object();
  if (b.v != null) {
    print("set");
  }
}
)");
  std::string Dot = exportDot(*F.G);
  EXPECT_NE(Dot.find("digraph sdg"), std::string::npos);
  EXPECT_NE(Dot.find("style=solid"), std::string::npos);  // Flow.
  EXPECT_NE(Dot.find("style=dashed"), std::string::npos); // BaseFlow.
  EXPECT_NE(Dot.find("style=dotted"), std::string::npos); // Control.
  EXPECT_NE(Dot.find("main:4"), std::string::npos);
  EXPECT_EQ(Dot.find("heap param"), std::string::npos);
}

TEST(Dot, RestrictionToSlice) {
  Fixture F(R"(
def main() {
  var a = 1;
  var b = 2;
  print(a);
  print(b);
}
)");
  SliceResult S =
      sliceBackward(*F.G, F.lastAtLine(5), SliceMode::Thin);
  DotOptions Opts;
  BitSet Nodes = S.nodeSet();
  Opts.Restrict = &Nodes;
  std::string Dot = exportDot(*F.G, Opts);
  EXPECT_NE(Dot.find("main:3"), std::string::npos);
  EXPECT_EQ(Dot.find("main:4"), std::string::npos); // b not in slice.
}

TEST(Dot, NodeCapRespected) {
  Fixture F(makeFigure1().Source);
  DotOptions Opts;
  Opts.MaxNodes = 10;
  std::string Dot = exportDot(*F.G, Opts);
  // Count node declarations.
  size_t Count = 0, Pos = 0;
  while ((Pos = Dot.find("[label=", Pos)) != std::string::npos) {
    ++Count;
    ++Pos;
  }
  EXPECT_LE(Count, 10u);
}

//===----------------------------------------------------------------------===//
// Alias-depth slicing
//===----------------------------------------------------------------------===//

TEST(AliasDepth, MonotoneAndConverges) {
  WorkloadProgram W = makeFigure4();
  Fixture F(W.Source);
  ThinExpansion Exp(*F.G, *F.PTA);
  const Instr *Seed = F.lastAtLine(W.markerLine("readopen"));

  SliceResult Prev = Exp.thinSliceWithAliasDepth(Seed, 0);
  SliceResult Plain = sliceBackward(*F.G, Seed, SliceMode::Thin);
  EXPECT_TRUE(Prev.nodeSet() == Plain.nodeSet()); // Depth 0 = thin.

  for (unsigned Depth = 1; Depth <= 5; ++Depth) {
    SliceResult Cur = Exp.thinSliceWithAliasDepth(Seed, Depth);
    BitSet Shrink = Prev.nodeSet();
    Shrink.subtract(Cur.nodeSet());
    EXPECT_TRUE(Shrink.empty()) << "depth " << Depth << " lost nodes";
    Prev = Cur;
  }
  // Depth >= 1 exposes the File allocation (the aliasing story).
  SliceResult One = Exp.thinSliceWithAliasDepth(Seed, 1);
  EXPECT_TRUE(F.hasLine(One, W.markerLine("file-alloc")));
  EXPECT_FALSE(F.hasLine(Plain, W.markerLine("file-alloc")));
}

TEST(AliasDepth, StaysWithinTraditionalDataPortion) {
  WorkloadProgram W = makeFigure4();
  Fixture F(W.Source);
  ThinExpansion Exp(*F.G, *F.PTA);
  const Instr *Seed = F.lastAtLine(W.markerLine("readopen"));
  SliceResult Deep = Exp.thinSliceWithAliasDepth(Seed, 10);
  SliceResult Trad = sliceBackward(*F.G, Seed, SliceMode::Traditional);
  BitSet Extra = Deep.nodeSet();
  Extra.subtract(Trad.nodeSet());
  EXPECT_TRUE(Extra.empty());
}
