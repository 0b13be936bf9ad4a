//===-- sdg_test.cpp - SDG construction unit tests ------------------------------==//

#include "eval/Experiments.h"
#include "eval/Workload.h"
#include "lang/Lower.h"
#include "pipeline/Session.h"
#include "modref/ModRef.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"

#include "GenProgram.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

using namespace tsl;

namespace {

struct Fixture {
  std::unique_ptr<AnalysisSession> S;
  Program *P = nullptr;
  PointsToResult *PTA = nullptr;
  ModRefResult *MR = nullptr;
  SDG *G = nullptr;

  explicit Fixture(const std::string &Source, bool CS = false,
                   PTAOptions PtaOpts = {}) {
    S = std::make_unique<AnalysisSession>(Source);
    S->setPTAOptions(PtaOpts);
    P = S->program();
    EXPECT_NE(P, nullptr) << S->diagnostics().str();
    if (!P)
      return;
    PTA = S->pointsTo();
    MR = S->modRef();
    SDGOptions Opts;
    Opts.ContextSensitive = CS;
    S->setSDGOptions(Opts);
    G = S->sdg();
  }

  const Instr *find(InstrKind K, unsigned Skip = 0) {
    for (const auto &M : P->methods())
      for (const auto &BB : M->blocks())
        for (const auto &I : BB->instrs())
          if (I->kind() == K) {
            if (Skip == 0)
              return I.get();
            --Skip;
          }
    return nullptr;
  }

  /// True when a heap parameter node of kind K for method M and
  /// partition Part exists.
  bool hasHeapNode(SDGNodeKind K, const Method *M, unsigned Part) {
    for (const SDGNode &N : G->nodes())
      if (N.K == K && N.M == M && N.Part == Part)
        return true;
    return false;
  }

  /// True when an edge From -> To with kind K exists (any clones).
  bool hasEdge(const Instr *From, const Instr *To, SDGEdgeKind K) {
    for (unsigned FromNode : G->nodesFor(From))
      for (unsigned EdgeId : G->outEdges(FromNode)) {
        const SDGEdge &E = G->edge(EdgeId);
        if (E.K == K && G->node(E.To).I == To)
          return true;
      }
    return false;
  }
};

} // namespace

TEST(SDG, FlowVsBaseFlowClassification) {
  Fixture F(R"(
class C { var f: Object; }
def main() {
  var c = new C();
  var v = new Object();
  c.f = v;
  var r = c.f;
  print(r == null);
}
)");
  const Instr *NewC = F.find(InstrKind::New, 0);
  const Instr *NewV = F.find(InstrKind::New, 1);
  const Instr *Store = F.find(InstrKind::Store);
  const Instr *Load = F.find(InstrKind::Load);
  ASSERT_TRUE(NewC && NewV && Store && Load);

  // The stored value reaches the store as Flow; the base as BaseFlow.
  // (Through the Move of the var decls.)
  bool FoundValueFlow = false, FoundBaseFlow = false;
  for (unsigned Node : F.G->nodesFor(Store))
    for (unsigned EdgeId : F.G->inEdges(Node)) {
      const SDGEdge &E = F.G->edge(EdgeId);
      if (E.K == SDGEdgeKind::Flow)
        FoundValueFlow = true;
      if (E.K == SDGEdgeKind::BaseFlow)
        FoundBaseFlow = true;
    }
  EXPECT_TRUE(FoundValueFlow);
  EXPECT_TRUE(FoundBaseFlow);

  // Heap flow: store -> load is a Flow (producer) edge.
  EXPECT_TRUE(F.hasEdge(Store, Load, SDGEdgeKind::Flow));
}

TEST(SDG, NoHeapEdgeWithoutAliasing) {
  Fixture F(R"(
class C { var f: Object; }
def main() {
  var c1 = new C();
  var c2 = new C();
  c1.f = new Object();
  var r = c2.f;
  print(r == null);
}
)");
  const Instr *Store = F.find(InstrKind::Store);
  const Instr *Load = F.find(InstrKind::Load);
  ASSERT_TRUE(Store && Load);
  EXPECT_FALSE(F.hasEdge(Store, Load, SDGEdgeKind::Flow));
}

TEST(SDG, StaticFieldEdges) {
  Fixture F(R"(
class G { static var x: Object; }
def main() {
  G.x = new Object();
  var r = G.x;
  print(r == null);
}
)");
  // $clinit default-store and main's store both flow to the load.
  const Instr *Load = nullptr;
  for (const auto &M : F.P->methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs())
        if (isa<LoadInstr>(I.get()))
          Load = I.get();
  ASSERT_NE(Load, nullptr);
  unsigned HeapIn = 0;
  for (unsigned Node : F.G->nodesFor(Load))
    for (unsigned EdgeId : F.G->inEdges(Node)) {
      const SDGEdge &E = F.G->edge(EdgeId);
      if (E.K == SDGEdgeKind::Flow &&
          F.G->node(E.From).I->kind() == InstrKind::Store)
        ++HeapIn;
    }
  EXPECT_EQ(HeapIn, 2u);
}

TEST(SDG, ControlEdgesFromBranches) {
  Fixture F(R"(
def main() {
  if (readInt() > 0) {
    print("yes");
  }
}
)");
  const Instr *Print = F.find(InstrKind::Print);
  const Instr *Branch = F.find(InstrKind::Branch);
  ASSERT_TRUE(Print && Branch);
  EXPECT_TRUE(F.hasEdge(Branch, Print, SDGEdgeKind::Control));
}

TEST(SDG, VirtualDispatchIsControl) {
  Fixture F(R"(
class A { def m(): int { return 1; } }
def main() {
  var a = new A();
  print(a.m());
}
)");
  const Instr *Call = F.find(InstrKind::Call);
  ASSERT_NE(Call, nullptr);
  bool RecvControl = false;
  for (unsigned Node : F.G->nodesFor(Call))
    for (unsigned EdgeId : F.G->inEdges(Node)) {
      const SDGEdge &E = F.G->edge(EdgeId);
      if (E.K == SDGEdgeKind::Control)
        RecvControl = true;
    }
  EXPECT_TRUE(RecvControl);
}

TEST(SDG, ParamAndReturnLinkage) {
  Fixture F(R"(
def id(x: int): int { return x; }
def main() { print(id(5)); }
)");
  const Instr *Call = F.find(InstrKind::Call);
  ASSERT_NE(Call, nullptr);
  // The call node receives a ParamOut edge from id's return.
  bool GotParamOut = false, GotParamIn = false, GotActualIn = false;
  for (unsigned Node : F.G->nodesFor(Call))
    for (unsigned EdgeId : F.G->inEdges(Node))
      GotParamOut |= F.G->edge(EdgeId).K == SDGEdgeKind::ParamOut;
  for (unsigned EdgeId = 0; EdgeId != F.G->numEdges(); ++EdgeId) {
    const SDGEdge &E = F.G->edge(EdgeId);
    GotParamIn |= E.K == SDGEdgeKind::ParamIn;
    GotActualIn |=
        F.G->node(E.To).K == SDGNodeKind::ScalarActualIn;
  }
  EXPECT_TRUE(GotParamOut);
  EXPECT_TRUE(GotParamIn);
  EXPECT_TRUE(GotActualIn);
}

TEST(SDG, CloneLevelNodesForContainerMethods) {
  Fixture F(R"(
class Vector {
  var elems: Object[];
  var count: int;
  def init() { elems = new Object[4]; count = 0; }
  def add(p: Object) { elems[count] = p; count = count + 1; }
}
def main() {
  var v1 = new Vector();
  var v2 = new Vector();
  v1.add(new Object());
  v2.add(new Object());
}
)");
  // Vector.add statements are cloned per receiver context.
  const Instr *ArrStore = F.find(InstrKind::ArrayStore);
  ASSERT_NE(ArrStore, nullptr);
  EXPECT_EQ(F.G->nodesFor(ArrStore).size(), 2u);
}

TEST(SDG, NoObjSensCollapsesClones) {
  PTAOptions NoObj;
  NoObj.ObjSensContainers = false;
  Fixture F(R"(
class Vector {
  var elems: Object[];
  var count: int;
  def init() { elems = new Object[4]; count = 0; }
  def add(p: Object) { elems[count] = p; count = count + 1; }
}
def main() {
  var v1 = new Vector();
  var v2 = new Vector();
  v1.add(new Object());
  v2.add(new Object());
}
)",
            /*CS=*/false, NoObj);
  const Instr *ArrStore = F.find(InstrKind::ArrayStore);
  ASSERT_NE(ArrStore, nullptr);
  EXPECT_EQ(F.G->nodesFor(ArrStore).size(), 1u);
}

TEST(SDG, ContextSensitiveVariantHasHeapParams) {
  Fixture F(R"(
class Cell { var v: Object; }
def write(c: Cell) { c.v = new Object(); }
def read(c: Cell): Object { return c.v; }
def main() {
  var c = new Cell();
  write(c);
  print(read(c) == null);
}
)",
            /*CS=*/true);
  EXPECT_GT(F.G->numHeapParamNodes(), 0u);
  // Heap formal-in exists for read, formal-out for write.
  const Method *Write = nullptr, *Read = nullptr;
  for (const auto &M : F.P->methods()) {
    std::string Name = M->qualifiedName(F.P->strings());
    if (Name == "write")
      Write = M.get();
    if (Name == "read")
      Read = M.get();
  }
  SparseBitSet WriteMod = F.MR->modOf(Write);
  ASSERT_EQ(WriteMod.count(), 1u);
  unsigned Part = WriteMod.toVector().front();
  EXPECT_TRUE(F.hasHeapNode(SDGNodeKind::HeapFormalOut, Write, Part));
  EXPECT_TRUE(F.hasHeapNode(SDGNodeKind::HeapFormalIn, Read, Part));
  // No direct interprocedural heap edge store -> load in CS mode.
  const Instr *Store = F.find(InstrKind::Store);
  const Instr *Load = F.find(InstrKind::Load);
  EXPECT_FALSE(F.hasEdge(Store, Load, SDGEdgeKind::Flow));
}

TEST(SDG, StatementCountsExcludeHeapParams) {
  Fixture CI("def main() { print(1); }");
  EXPECT_EQ(CI.G->numHeapParamNodes(), 0u);
  EXPECT_GT(CI.G->numStmtNodes(), 0u);
  EXPECT_EQ(CI.G->numNodes(), CI.G->numStmtNodes());
}

TEST(SDG, EdgeDeduplication) {
  Fixture F("def main() { var x = 1; print(x + x); }");
  // x used twice by the same BinOp: one Flow edge, not two.
  const Instr *BinOp = F.find(InstrKind::BinOp);
  ASSERT_NE(BinOp, nullptr);
  unsigned FlowIn = 0;
  for (unsigned Node : F.G->nodesFor(BinOp))
    for (unsigned EdgeId : F.G->inEdges(Node))
      FlowIn += F.G->edge(EdgeId).K == SDGEdgeKind::Flow;
  EXPECT_EQ(FlowIn, 1u);
}

//===----------------------------------------------------------------------===//
// CI heap wiring against the pairwise oracle
//===----------------------------------------------------------------------===//

namespace {

using EdgeList = std::vector<std::pair<unsigned, unsigned>>;

/// (class, id) bucket of a heap access, as the builder keys it
/// (0 instance field, 1 static field, 2 array elements), and its base
/// pointer (null for statics); {~0u, ~0u} for any other statement.
std::pair<std::pair<unsigned, unsigned>, const Local *>
heapKey(const Instr *I) {
  if (const auto *S = dyn_cast<StoreInstr>(I))
    return {{S->isStaticAccess(), S->field()->id()}, S->base()};
  if (const auto *L = dyn_cast<LoadInstr>(I))
    return {{L->isStaticAccess(), L->field()->id()}, L->base()};
  if (const auto *AS = dyn_cast<ArrayStoreInstr>(I))
    return {{2u, ~0u}, AS->array()};
  if (const auto *AL = dyn_cast<ArrayLoadInstr>(I))
    return {{2u, ~0u}, AL->array()};
  return {{~0u, ~0u}, nullptr};
}

bool isStore(const Instr *I) {
  return isa<StoreInstr>(I) || isa<ArrayStoreInstr>(I);
}
bool isLoad(const Instr *I) {
  return isa<LoadInstr>(I) || isa<ArrayLoadInstr>(I);
}

/// Test-only reference for the CI heap wiring: the pairwise loop the
/// builder ran before it indexed stores by abstract object. A store
/// reaches a load in its bucket when their base points-to sets,
/// looked up in the nodes' own contexts, intersect (always, for a
/// static field). Node-id order is the builder's collection order, so
/// loads-outer / stores-inner over buckets in key order is also the
/// builder's emission order.
EdgeList pairwiseHeapEdges(const SDG &G, const PointsToResult &PTA) {
  std::map<std::pair<unsigned, unsigned>,
           std::pair<std::vector<unsigned>, std::vector<unsigned>>>
      Buckets;
  for (const SDGNode &N : G.nodes())
    if (N.isStmt() && (isStore(N.I) || isLoad(N.I)))
      (isStore(N.I) ? Buckets[heapKey(N.I).first].first
                    : Buckets[heapKey(N.I).first].second)
          .push_back(N.Id);
  auto Pts = [&](unsigned Node) -> const SparseBitSet & {
    return PTA.pointsTo(heapKey(G.node(Node).I).second, G.node(Node).Ctx);
  };
  EdgeList Out;
  for (const auto &[Key, Accesses] : Buckets)
    for (unsigned L : Accesses.second)
      for (unsigned S : Accesses.first)
        if (Key.first == 1 || Pts(S).intersects(Pts(L)))
          Out.push_back({S, L});
  return Out;
}

/// The built graph's store -> load Flow edges, in edge-id order.
EdgeList builtHeapEdges(const SDG &G) {
  EdgeList Out;
  for (unsigned Id = 0; Id != G.numEdges(); ++Id) {
    const SDGEdge &E = G.edge(Id);
    const SDGNode &From = G.node(E.From), &To = G.node(E.To);
    if (E.K == SDGEdgeKind::Flow && From.isStmt() && To.isStmt() &&
        isStore(From.I) && isLoad(To.I))
      Out.push_back({E.From, E.To});
  }
  return Out;
}

/// Builds the CI SDG of \p Source and checks its heap edges against
/// the oracle, edge for edge and in order. Returns the edge count, or
/// nothing when \p Source does not compile.
std::optional<std::size_t> checkHeapWiring(const std::string &Source,
                                           const std::string &Label) {
  DiagnosticEngine Diag;
  std::unique_ptr<Program> P = compileThinJ(Source, Diag);
  if (!P)
    return std::nullopt;
  std::unique_ptr<PointsToResult> PTA = runPointsTo(*P);
  std::unique_ptr<SDG> G = buildSDG(*P, *PTA, nullptr);
  EXPECT_FALSE(G->report().degraded()) << Label;
  EdgeList Built = builtHeapEdges(*G);
  EXPECT_EQ(Built, pairwiseHeapEdges(*G, *PTA)) << Label;
  return Built.size();
}

} // namespace

TEST(SDGHeapWiring, MatchesPairwiseOracleOnEvalWorkloads) {
  std::size_t Edges = 0;
  for (const BugCase &C : debuggingCases())
    Edges += checkHeapWiring(C.Prog.Source, C.Id).value_or(0);
  for (const CastCase &C : toughCastCases())
    Edges += checkHeapWiring(C.Prog.Source, C.Id).value_or(0);
  EXPECT_GT(Edges, 0u);
}

TEST(SDGHeapWiring, MatchesPairwiseOracleAtPad100) {
  WorkloadProgram W =
      padWorkload(debuggingCases().front().Prog, "BS", 100, 6);
  EXPECT_GT(checkHeapWiring(W.Source, W.Name).value_or(0), 0u);
}

TEST(SDGHeapWiring, MatchesPairwiseOracleOnGeneratedPrograms) {
  std::size_t Compiled = 0, HeapEdges = 0;
  for (uint64_t Seed = 0; Seed != 200; ++Seed) {
    // fuzz_test's corpus: mostly one store and no load, plus
    // mutated sources that do not compile.
    testgen::Rng R{Seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull};
    Compiled += checkHeapWiring(testgen::genProgram(R),
                                "fuzz seed " + std::to_string(Seed))
                    .has_value();
    // Heap-dense programs over a random alias graph; all compile.
    testgen::Rng H{Seed + 1};
    std::optional<std::size_t> N = checkHeapWiring(
        testgen::genHeapProgram(H), "heap seed " + std::to_string(Seed));
    ASSERT_TRUE(N.has_value()) << "heap seed " << Seed;
    HeapEdges += *N;
  }
  EXPECT_GT(Compiled, 50u);
  EXPECT_GT(HeapEdges, 1000u);
}

//===----------------------------------------------------------------------===//
// Statement layout: one block per clone, node id = base + I->id()
//===----------------------------------------------------------------------===//

namespace {

/// Checks the layout statement nodes are addressed by: the statement
/// nodes come first, as one block per clone (method, context) holding
/// the method's instructions in renumbered order, so a statement's id
/// is its block's base plus I->id(); and nodesFor() lists every clone
/// of an instruction in ascending id order.
void checkCloneLayout(const Program &P, const SDG &G,
                      const std::string &Label) {
  std::set<std::pair<const Method *, unsigned>> Blocks;
  unsigned Id = 0;
  while (Id != G.numNodes() && G.node(Id).isStmt()) {
    const SDGNode &First = G.node(Id);
    const std::vector<Instr *> &Body = First.M->instrs();
    ASSERT_TRUE(Blocks.insert({First.M, First.Ctx}).second)
        << Label << ": second block of one clone at node " << Id;
    ASSERT_LE(Id + Body.size(), G.numNodes()) << Label;
    for (unsigned K = 0; K != Body.size(); ++K) {
      const SDGNode &N = G.node(Id + K);
      ASSERT_TRUE(N.isStmt() && N.I == Body[K] && N.M == First.M &&
                  N.Ctx == First.Ctx && N.I->id() == K)
          << Label << ": node " << Id + K << " breaks the block at " << Id;
    }
    Id += static_cast<unsigned>(Body.size());
  }
  const unsigned StmtNodes = Id;
  for (; Id != G.numNodes(); ++Id)
    ASSERT_FALSE(G.node(Id).isStmt()) << Label << ": stray statement " << Id;

  std::size_t Indexed = 0;
  for (const auto &M : P.methods())
    for (const Instr *I : M->instrs()) {
      IdRange R = G.nodesFor(I);
      Indexed += R.size();
      for (std::size_t K = 0; K != R.size(); ++K) {
        ASSERT_EQ(G.node(R[K]).I, I) << Label;
        if (K) {
          ASSERT_LT(R[K - 1], R[K]) << Label;
        }
      }
    }
  EXPECT_EQ(Indexed, StmtNodes) << Label;
}

/// Builds the CI, CS and merged-clone (node-capped) graphs of
/// \p Source and checks each one's layout.
void checkLayouts(const std::string &Source, const std::string &Label) {
  DiagnosticEngine Diag;
  std::unique_ptr<Program> P = compileThinJ(Source, Diag);
  ASSERT_TRUE(P) << Label << ": " << Diag.str();
  std::unique_ptr<PointsToResult> PTA = runPointsTo(*P);
  ModRefResult MR(*P, *PTA);

  std::unique_ptr<SDG> CI = buildSDG(*P, *PTA, nullptr);
  ASSERT_FALSE(CI->report().degraded()) << Label;
  checkCloneLayout(*P, *CI, Label + " CI");

  SDGOptions CSOpts;
  CSOpts.ContextSensitive = true;
  checkCloneLayout(*P, *buildSDG(*P, *PTA, &MR, CSOpts), Label + " CS");

  // One node of budget: the builder falls back to one context-0 clone
  // per method, found through the per-method clone table.
  AnalysisBudget Budget;
  Budget.MaxSdgNodes = 1;
  SDGOptions MergedOpts;
  MergedOpts.Budget = &Budget;
  std::unique_ptr<SDG> Merged = buildSDG(*P, *PTA, nullptr, MergedOpts);
  EXPECT_NE(Merged->report().Fallback.find("context-merged clones"),
            std::string::npos)
      << Label;
  checkCloneLayout(*P, *Merged, Label + " merged");
}

} // namespace

TEST(SDGLayout, CloneBlocksOnEvalWorkloads) {
  for (const BugCase &C : debuggingCases())
    checkLayouts(C.Prog.Source, C.Id);
  for (const CastCase &C : toughCastCases())
    checkLayouts(C.Prog.Source, C.Id);
}
