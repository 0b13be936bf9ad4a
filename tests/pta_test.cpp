//===-- pta_test.cpp - Points-to analysis unit tests ----------------------------==//

#include "cg/CallGraph.h"
#include "eval/Generator.h"
#include "eval/Workload.h"
#include "lang/Lower.h"
#include "pta/PointsTo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>

using namespace tsl;

namespace {

struct Fixture {
  std::unique_ptr<Program> P;
  std::unique_ptr<PointsToResult> PTA;

  explicit Fixture(const std::string &Source, PTAOptions Opts = {}) {
    DiagnosticEngine Diag;
    P = compileThinJ(Source, Diag);
    EXPECT_NE(P, nullptr) << Diag.str();
    if (P)
      PTA = runPointsTo(*P, Opts);
  }

  /// The SSA local the given source variable name resolves to in
  /// method \p MethodName (any version with a non-empty set preferred,
  /// else the last version).
  const Local *local(const std::string &MethodName,
                     const std::string &VarName) {
    Symbol Name = P->strings().lookup(VarName);
    const Local *Best = nullptr;
    for (const auto &M : P->methods()) {
      if (M->qualifiedName(P->strings()) != MethodName)
        continue;
      for (const auto &L : M->locals())
        if (L->baseName() == Name && L->version() > 0)
          Best = L.get();
    }
    return Best;
  }

  unsigned ptsSize(const std::string &MethodName, const std::string &Var) {
    const Local *L = local(MethodName, Var);
    EXPECT_NE(L, nullptr) << MethodName << "." << Var;
    return L ? PTA->pointsTo(L).count() : 0;
  }
};

} // namespace

TEST(PointsTo, AllocationAndCopies) {
  Fixture F(R"(
class A { }
def main() {
  var x = new A();
  var y = x;
  var z = new A();
  print(x == y);
  print(z == y);
}
)");
  const Local *X = F.local("main", "x");
  const Local *Y = F.local("main", "y");
  const Local *Z = F.local("main", "z");
  EXPECT_EQ(F.PTA->pointsTo(X).count(), 1u);
  EXPECT_TRUE(F.PTA->mayAlias(X, Y));
  EXPECT_FALSE(F.PTA->mayAlias(X, Z));
}

TEST(PointsTo, FieldFlow) {
  Fixture F(R"(
class Holder { var item: Object; }
def main() {
  var h1 = new Holder();
  var h2 = new Holder();
  var a = new Object();
  var b = new Object();
  h1.item = a;
  h2.item = b;
  var ra = h1.item;
  var rb = h2.item;
  print(ra == rb);
}
)");
  const Local *Ra = F.local("main", "ra");
  const Local *Rb = F.local("main", "rb");
  // Field-sensitivity on distinct objects keeps the loads apart.
  EXPECT_EQ(F.PTA->pointsTo(Ra).count(), 1u);
  EXPECT_EQ(F.PTA->pointsTo(Rb).count(), 1u);
  EXPECT_FALSE(F.PTA->mayAlias(Ra, Rb));
}

TEST(PointsTo, ArrayElementsMerge) {
  Fixture F(R"(
def main() {
  var arr = new Object[2];
  arr[0] = new Object();
  arr[1] = new Object();
  var r = arr[0];
  print(r == null);
}
)");
  // Array elements are a single partition per array object.
  EXPECT_EQ(F.ptsSize("main", "r"), 2u);
}

TEST(PointsTo, InterproceduralReturnAndParams) {
  Fixture F(R"(
class A { }
def makeA(): A { return new A(); }
def pass(x: A): A { return x; }
def main() {
  var a = makeA();
  var b = pass(a);
  print(a == b);
}
)");
  const Local *A = F.local("main", "a");
  const Local *B = F.local("main", "b");
  EXPECT_TRUE(F.PTA->mayAlias(A, B));
  EXPECT_EQ(F.PTA->pointsTo(B).count(), 1u);
}

TEST(PointsTo, OnTheFlyCallGraphNarrowerThanCHA) {
  Fixture F(R"(
class Animal { def speak(): string { return "..."; } }
class Cat extends Animal { def speak(): string { return "meow"; } }
class Dog extends Animal { def speak(): string { return "woof"; } }
def main() {
  var a: Animal = new Cat();
  print(a.speak());
}
)");
  // Only Cat.speak should be reachable; Dog.speak never.
  Method *DogSpeak =
      F.P->findClass(F.P->strings().lookup("Dog"))
          ->findOwnMethod(F.P->strings().lookup("speak"));
  ASSERT_NE(DogSpeak, nullptr);
  EXPECT_FALSE(F.PTA->callGraph().isReachable(DogSpeak));
  Method *CatSpeak =
      F.P->findClass(F.P->strings().lookup("Cat"))
          ->findOwnMethod(F.P->strings().lookup("speak"));
  EXPECT_TRUE(F.PTA->callGraph().isReachable(CatSpeak));
}

TEST(PointsTo, VirtualDispatchBindsReceiverObjectwise) {
  Fixture F(R"(
class Animal { def self(): Animal { return this; } }
class Cat extends Animal { }
class Dog extends Animal { }
def main() {
  var c: Animal = new Cat();
  var d: Animal = new Dog();
  var rc = c.self();
  var rd = d.self();
  print(rc == rd);
}
)");
  const Local *Rc = F.local("main", "rc");
  const Local *Rd = F.local("main", "rd");
  // Context-insensitive `this` merges both receivers, so both results
  // may alias — but each still contains its own object.
  EXPECT_TRUE(F.PTA->pointsTo(Rc).count() >= 1);
  EXPECT_TRUE(F.PTA->mayAlias(Rc, Rd)); // CI merging, expected.
}

TEST(PointsTo, CastFiltersByType) {
  Fixture F(R"(
class A { }
class B extends A { }
def main() {
  var box = new Object[2];
  box[0] = new A();
  box[1] = new B();
  var any = box[0];
  var b = (B) any;
  print(b == null);
}
)");
  EXPECT_EQ(F.ptsSize("main", "any"), 2u);
  EXPECT_EQ(F.ptsSize("main", "b"), 1u); // The filter dropped the A.
}

TEST(PointsTo, CastCannotFailDetection) {
  Fixture F(R"(
class A { }
class B extends A { }
def main() {
  var objs = new Object[1];
  objs[0] = new B();
  var good = (B) objs[0];
  var mixed = new Object[2];
  mixed[0] = new A();
  mixed[1] = new B();
  var risky = (B) mixed[1];
  print(good == risky);
}
)");
  std::vector<const CastInstr *> Casts;
  for (const auto &M : F.P->methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs())
        if (const auto *C = dyn_cast<CastInstr>(I.get()))
          Casts.push_back(C);
  ASSERT_EQ(Casts.size(), 2u);
  EXPECT_TRUE(F.PTA->castCannotFail(Casts[0]));
  EXPECT_FALSE(F.PTA->castCannotFail(Casts[1])); // "Tough" cast.
}

TEST(PointsTo, StaticFields) {
  Fixture F(R"(
class G {
  static var shared: Object;
}
def main() {
  G.shared = new Object();
  var r = G.shared;
  print(r == null);
}
)");
  EXPECT_EQ(F.ptsSize("main", "r"), 1u);
}

TEST(PointsTo, StringsAreObjects) {
  Fixture F(R"(
def main() {
  var s = "lit";
  var t = s.substring(0, 1);
  var u = s + t;
  var v = readLine();
  print(u.equals(v));
}
)");
  EXPECT_EQ(F.ptsSize("main", "s"), 1u);
  EXPECT_EQ(F.ptsSize("main", "t"), 1u);
  EXPECT_EQ(F.ptsSize("main", "u"), 1u);
  EXPECT_EQ(F.ptsSize("main", "v"), 1u);
  const Local *S = F.local("main", "s");
  const Local *T = F.local("main", "t");
  EXPECT_FALSE(F.PTA->mayAlias(S, T));
}

//===----------------------------------------------------------------------===//
// Object-sensitive containers (the paper's Sec. 6.1 configuration)
//===----------------------------------------------------------------------===//

namespace {

const char *TwoVectors = R"(
class Vector {
  var elems: Object[];
  var count: int;
  def init() { elems = new Object[4]; count = 0; }
  def add(p: Object) { elems[count] = p; count = count + 1; }
  def get(i: int): Object { return elems[i]; }
}
class A { }
class B { }
def main() {
  var va = new Vector();
  var vb = new Vector();
  va.add(new A());
  vb.add(new B());
  var ra = va.get(0);
  var rb = vb.get(0);
  print(ra == rb);
}
)";

} // namespace

TEST(PointsTo, ObjSensSeparatesContainers) {
  Fixture F(TwoVectors);
  const Local *Ra = F.local("main", "ra");
  const Local *Rb = F.local("main", "rb");
  // With object-sensitive cloning, va's contents never leak into vb.
  EXPECT_EQ(F.PTA->pointsTo(Ra).count(), 1u);
  EXPECT_EQ(F.PTA->pointsTo(Rb).count(), 1u);
  EXPECT_FALSE(F.PTA->mayAlias(Ra, Rb));
  // The call graph has multiple (method, context) nodes for Vector.add.
  Method *Add = F.P->findClass(F.P->strings().lookup("Vector"))
                    ->findOwnMethod(F.P->strings().lookup("add"));
  EXPECT_EQ(F.PTA->callGraph().nodesOf(Add).size(), 2u);
}

TEST(PointsTo, NoObjSensMergesContainers) {
  PTAOptions Opts;
  Opts.ObjSensContainers = false;
  Fixture F(TwoVectors, Opts);
  const Local *Ra = F.local("main", "ra");
  const Local *Rb = F.local("main", "rb");
  EXPECT_EQ(F.PTA->pointsTo(Ra).count(), 2u);
  EXPECT_TRUE(F.PTA->mayAlias(Ra, Rb));
}

TEST(PointsTo, PerContextQueries) {
  Fixture F(TwoVectors);
  // The merged set of `p` in Vector.add covers both objects; each
  // context sees exactly one.
  Method *Add = F.P->findClass(F.P->strings().lookup("Vector"))
                    ->findOwnMethod(F.P->strings().lookup("add"));
  const Local *PParam = nullptr;
  for (const auto &L : Add->locals())
    if (F.P->strings().str(L->baseName()) == "p" && L->version())
      PParam = L.get();
  ASSERT_NE(PParam, nullptr);
  EXPECT_EQ(F.PTA->pointsTo(PParam).count(), 2u);
  unsigned NonEmptyCtxs = 0;
  for (unsigned Node : F.PTA->callGraph().nodesOf(Add)) {
    unsigned Ctx = F.PTA->callGraph().node(Node).Ctx;
    unsigned N = F.PTA->pointsTo(PParam, Ctx).count();
    EXPECT_LE(N, 1u);
    NonEmptyCtxs += N != 0;
  }
  EXPECT_EQ(NonEmptyCtxs, 2u);
}

TEST(PointsTo, ConstraintNodeCountIsPositive) {
  Fixture F(TwoVectors);
  EXPECT_GT(F.PTA->numConstraintNodes(), 10u);
}

//===----------------------------------------------------------------------===//
// Differential solver testing: the production solver must produce
// results identical to the naive full-set FIFO reference solver.
//===----------------------------------------------------------------------===//

namespace {

/// Stable per-program instruction names (object/context ids are
/// assigned in solver-visit order, so raw ids cannot be compared
/// across solvers).
std::unordered_map<const Instr *, std::string> nameSites(const Program &P) {
  std::unordered_map<const Instr *, std::string> Names;
  for (const auto &M : P.methods()) {
    unsigned Idx = 0;
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs())
        Names[I.get()] = M->qualifiedName(P.strings()) + "#" +
                         std::to_string(Idx++);
  }
  return Names;
}

/// Canonical name of an abstract object: its allocation site plus the
/// recursively canonicalized allocation-context chain.
std::string objKey(const PointsToResult &R,
                   const std::unordered_map<const Instr *, std::string> &Names,
                   unsigned Obj) {
  const AbstractObject &O = R.objects()[Obj];
  std::string Key = Names.at(O.Site);
  if (O.AllocCtx != 0)
    Key += "@[" + objKey(R, Names, R.contextObject(O.AllocCtx)) + "]";
  return Key;
}

struct CanonicalResult {
  /// Merged points-to set per local, as canonical object names.
  std::map<const Local *, std::set<std::string>> Pts;
  /// Per-context points-to set per (local, canonical context name),
  /// over every call-graph context of the local's method.
  std::map<std::pair<const Local *, std::string>, std::set<std::string>>
      CtxPts;
  /// Call graph edges as canonical (caller, site, callee) strings.
  std::set<std::string> CGEdges;
  /// castCannotFail verdict per cast instruction.
  std::map<const Instr *, bool> Casts;
};

CanonicalResult canonicalize(const Program &P, const PointsToResult &R) {
  CanonicalResult Out;
  auto Names = nameSites(P);

  for (const auto &M : P.methods())
    for (const auto &L : M->locals()) {
      const SparseBitSet &S = R.pointsTo(L.get());
      if (S.empty())
        continue;
      std::set<std::string> &Keys = Out.Pts[L.get()];
      S.forEach([&](unsigned Obj) { Keys.insert(objKey(R, Names, Obj)); });
    }

  const CallGraph &CG = R.callGraph();
  auto ctxKey = [&](unsigned Ctx) {
    return Ctx == 0 ? std::string("-") : objKey(R, Names, R.contextObject(Ctx));
  };
  for (const auto &M : P.methods())
    for (unsigned NodeId : CG.nodesOf(M.get())) {
      const unsigned Ctx = CG.node(NodeId).Ctx;
      for (const auto &L : M->locals()) {
        const SparseBitSet &S = R.pointsTo(L.get(), Ctx);
        if (S.empty())
          continue;
        std::set<std::string> &Keys = Out.CtxPts[{L.get(), ctxKey(Ctx)}];
        S.forEach([&](unsigned Obj) { Keys.insert(objKey(R, Names, Obj)); });
      }
    }
  auto nodeKey = [&](unsigned NodeId) {
    const MethodCtx &MC = CG.node(NodeId);
    std::string Key = MC.M->qualifiedName(P.strings());
    if (MC.Ctx != 0)
      Key += "@[" + objKey(R, Names, R.contextObject(MC.Ctx)) + "]";
    return Key;
  };
  for (const CallEdge &E : CG.edges())
    Out.CGEdges.insert(nodeKey(E.CallerNode) + " --" + Names.at(E.Site) +
                       "--> " + nodeKey(E.CalleeNode));

  for (const auto &M : P.methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs())
        if (const auto *C = dyn_cast<CastInstr>(I.get()))
          Out.Casts[C] = R.castCannotFail(C);

  return Out;
}

void expectSolverMatchesReference(const std::string &CaseId,
                                  const std::string &Source) {
  DiagnosticEngine Diag;
  std::unique_ptr<Program> P = compileThinJ(Source, Diag);
  ASSERT_NE(P, nullptr) << CaseId << ": " << Diag.str();

  CanonicalResult Base = canonicalize(*P, *runPointsToReference(*P));
  CanonicalResult Got = canonicalize(*P, *runPointsTo(*P));
  EXPECT_EQ(Base.Pts, Got.Pts) << CaseId << ": merged points-to sets differ";
  EXPECT_EQ(Base.CtxPts, Got.CtxPts)
      << CaseId << ": per-context points-to sets differ";
  EXPECT_EQ(Base.CGEdges, Got.CGEdges) << CaseId << ": call graph edges differ";
  EXPECT_EQ(Base.Casts, Got.Casts) << CaseId << ": cast verdicts differ";
}

} // namespace

TEST(PointsToDifferential, DebuggingWorkloads) {
  for (const BugCase &Case : debuggingCases())
    expectSolverMatchesReference(Case.Id, Case.Prog.Source);
}

TEST(PointsToDifferential, ToughCastWorkloads) {
  for (const CastCase &Case : toughCastCases())
    expectSolverMatchesReference(Case.Id, Case.Prog.Source);
}

TEST(PointsToDifferential, GeneratedPrograms) {
  for (uint64_t Seed = 1; Seed <= 50; ++Seed)
    expectSolverMatchesReference("seed " + std::to_string(Seed),
                                 generateRandomProgram(Seed));
}

TEST(PointsToDifferential, StatsAreCoherent) {
  Fixture F(TwoVectors);
  const SolverStats &S = F.PTA->stats();
  EXPECT_GT(S.NumNodes, 0u);
  EXPECT_LE(S.NumRepNodes, S.NumNodes);
  EXPECT_GT(S.NumObjects, 0u);
  EXPECT_GT(S.WorklistPops, 0u);
  EXPECT_EQ(S.NumNodes, F.PTA->numConstraintNodes());
  // Merging is what shrinks the representative count.
  EXPECT_EQ(S.NumNodes - S.NumRepNodes, S.NodesMerged);
  EXPECT_FALSE(S.str().empty());
}

TEST(PointsTo, CommonObjectsForAliasExplanation) {
  Fixture F(R"(
class A { }
def main() {
  var x = new A();
  var y = x;
  var z = new A();
  print(x == y);
  print(z == null);
}
)");
  const Local *X = F.local("main", "x");
  const Local *Y = F.local("main", "y");
  const Local *Z = F.local("main", "z");
  EXPECT_EQ(F.PTA->commonObjects(X, Y).count(), 1u);
  EXPECT_EQ(F.PTA->commonObjects(X, Z).count(), 0u);
}

// CallGraph::reachableFrom answers from backward searches that share
// the paths they find and give way to one forward traversal once they
// have visited as many nodes as the graph holds. Either way it must
// agree with a plain forward traversal, on graphs with unreachable
// nodes and cycles and for target sets of every size.
TEST(CallGraphReachability, BackwardSearchesAgreeWithForwardTraversal) {
  DiagnosticEngine Diag;
  std::unique_ptr<Program> P =
      compileThinJ("def f() {\n}\ndef main() {\n  f();\n}\n", Diag);
  ASSERT_NE(P, nullptr) << Diag.str();
  Method *M = nullptr;
  const CallInstr *Site = nullptr;
  for (const auto &Meth : P->methods())
    for (const auto &BB : Meth->blocks())
      for (const auto &I : BB->instrs())
        if (const auto *C = dyn_cast<CallInstr>(I.get())) {
          M = Meth.get();
          Site = C;
        }
  ASSERT_NE(Site, nullptr);

  std::mt19937 R(3);
  unsigned Reachable = 0, Unreachable = 0;
  for (unsigned Round = 0; Round != 300; ++Round) {
    const unsigned N = 2 + R() % 40;
    CallGraph CG;
    for (unsigned I = 0; I != N; ++I)
      CG.getOrCreateNode(M, I);
    const unsigned NumEdges = R() % (3 * N);
    for (unsigned E = 0; E != NumEdges; ++E)
      CG.addEdge(R() % N, Site, R() % N);
    CG.indexInEdges();

    std::vector<bool> Seen(N, false);
    std::vector<unsigned> Stack = {0};
    Seen[0] = true;
    while (!Stack.empty()) {
      const unsigned X = Stack.back();
      Stack.pop_back();
      for (const CallEdge &E : CG.edges())
        if (E.CallerNode == X && !Seen[E.CalleeNode]) {
          Seen[E.CalleeNode] = true;
          Stack.push_back(E.CalleeNode);
        }
    }
    std::vector<unsigned> Targets;
    const unsigned Keep = 1 + R() % 3; // 1 in Keep nodes is a target.
    for (unsigned I = 0; I != N; ++I)
      if (R() % Keep == 0)
        Targets.push_back(I);
    const bool Want = std::all_of(Targets.begin(), Targets.end(),
                                  [&](unsigned T) { return Seen[T]; });
    (Want ? Reachable : Unreachable) += 1;
    EXPECT_EQ(CG.reachableFrom(0, Targets), Want)
        << "round " << Round << ", " << N << " nodes";
  }
  EXPECT_GT(Reachable, 10u);
  EXPECT_GT(Unreachable, 10u);
}
