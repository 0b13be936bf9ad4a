//===-- SDGBuilder.cpp - Dependence graph construction -------------------------==//
//
// Builds the two SDG variants of paper Section 5. Shared parts:
// SSA-based local flow dependences labeled by operand role, control
// dependences, virtual-dispatch control edges, and scalar parameter /
// return linkage. The variants differ in heap value flow and cloning:
//
//  - context-insensitive (Sec. 5.2): statements are cloned per
//    call-graph context (as in WALA, so object-sensitive container
//    precision reaches the graph), heap value flow is one direct Flow
//    edge from each may-aliased write clone to each read clone, and
//    there are no heap parameters;
//  - context-sensitive (Sec. 5.3): one clone per method; heap
//    formal-in/out nodes per (method, partition) from mod-ref,
//    actual-in/out nodes per call site, with Flow kept intraprocedural
//    and ParamIn/ParamOut edges crossing procedure boundaries for the
//    tabulation slicer.
//
//===----------------------------------------------------------------------===//

#include "ir/ControlDep.h"
#include "modref/ModRef.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"

#include <cassert>
#include <chrono>
#include <map>
#include <memory>
#include <tuple>
#include <unordered_map>

using namespace tsl;

namespace {

/// One analyzed clone of a method.
struct Clone {
  const Method *M;
  unsigned Ctx;
};

/// One heap access of a clone (see buildHeapCI / buildHeapCoarse).
struct Access {
  const Instr *I;
  unsigned Ctx;
  const Local *Base; ///< Null for statics.
  const Local *Src;  ///< Stores only.
  /// Points-to set of Base under the clone's aliasing regime (merged
  /// sets when clones were context-merged), resolved once here so the
  /// pairwise wiring loops do no per-pair hash lookups. Null for
  /// statics.
  const BitSet *BasePts;
};

/// All heap accesses of the collected clones, bucketed the way the
/// heap-edge wiring consumes them. Keyed by dense Field::id() in an
/// ordered map: the wiring loops iterate these, and their iteration
/// order decides edge insertion order AND — under a budget gate that
/// can trip mid-loop — which pairs get precise edges before the
/// coarse fallback takes over. Pointer-keyed unordered iteration
/// would make both depend on allocator state, breaking the
/// byte-identical-artifacts guarantee.
struct HeapAccesses {
  std::map<unsigned, std::vector<Access>> FieldStores, FieldLoads,
      StaticStores, StaticLoads;
  std::vector<Access> ArrStores, ArrLoads;
};

} // namespace

/// One SDG construction. Owns the graph until run() seals it, plus the
/// construction-time indexes the wiring passes look nodes up by; none
/// of them outlives the build.
class tsl::SDGBuilder {
public:
  SDGBuilder(const Program &P, const PointsToResult &PTA,
             const ModRefResult *MR, const SDGOptions &Opts)
      : PTA(PTA), MR(MR), Opts(Opts), G(new SDG(P)) {}

  std::unique_ptr<SDG> run(const Program &P);

private:
  /// The statement node of \p I in context \p Ctx, added on first use.
  unsigned addStmtNode(const Instr *I, const Method *M, unsigned Ctx);
  /// The parameter/hub node of one identity, added on first use.
  unsigned addHeapNode(SDGNodeKind K, const Instr *CallOrNull,
                       const Method *M, unsigned Part, unsigned Ctx = 0);
  /// Appends an edge. Repeats are kept until seal() drops them.
  void addEdge(unsigned From, unsigned To, SDGEdgeKind K,
               const CallInstr *Site = nullptr) {
    G->Edges.push_back({From, To, K, Site});
  }

  /// The clone of \p I in context \p Ctx, or -1.
  int nodeFor(const Instr *I, unsigned Ctx) const;
  /// Context-0 heap parameter node lookup; returns -1 when absent.
  /// Formal nodes anchor at their method, actual nodes at their call
  /// site.
  int heapNodeFor(SDGNodeKind K, const Instr *Call, const Method *M,
                  unsigned Part) const;
  static const void *heapAnchor(const Instr *Call, const Method *M) {
    return Call ? static_cast<const void *>(Call) : M;
  }

  void collectClones(const Program &P, BudgetGate &Gate);
  void buildIntra(const Clone &C);
  void buildScalarCallsCI();
  void buildHeapCI(BudgetGate &Gate);
  void buildScalarCallsCS(const Clone &C);
  void buildHeapCS(const Clone &C, BudgetGate &Gate);
  HeapAccesses collectHeapAccesses() const;
  void buildHeapCoarse();

  void wireCallEdge(const CallInstr *Call, unsigned CallerCtx,
                    const Method *Target, unsigned CalleeCtx);

  const Instr *formalInstr(const Method *M, unsigned Idx) const;
  std::vector<const Instr *> returnInstrs(const Method *M) const;
  const ControlDeps &controlDeps(const Method *M);

  const PointsToResult &PTA;
  const ModRefResult *MR;
  SDGOptions Opts;
  std::unique_ptr<SDG> G;
  /// Statement clones per instruction, in context insertion order.
  std::unordered_map<const Instr *, std::vector<unsigned>> StmtIndex;
  /// Non-statement node identity: (kind, anchor, partition or operand
  /// index, ctx). The anchor is the call site when there is one, else
  /// the method, else null (the global hub). Lookup only, never
  /// iterated, so pointer keys cannot perturb any id.
  std::map<std::tuple<SDGNodeKind, const void *, unsigned, unsigned>,
           unsigned>
      HeapIndex;
  std::vector<Clone> Clones;
  std::unordered_map<const Method *, std::unique_ptr<ControlDeps>> CDCache;
  /// Node-cap degradation: one clone per method instead of one per
  /// call-graph context; aliasing then uses context-merged points-to
  /// sets (a superset of every per-context set, so still sound).
  bool MergedClones = false;
};

unsigned SDGBuilder::addStmtNode(const Instr *I, const Method *M,
                                 unsigned Ctx) {
  std::vector<unsigned> &Ids = StmtIndex[I];
  for (unsigned Id : Ids)
    if (G->Nodes[Id].Ctx == Ctx)
      return Id;
  unsigned Id = static_cast<unsigned>(G->Nodes.size());
  G->Nodes.push_back({SDGNodeKind::Stmt, I, M, 0, Ctx, Id});
  Ids.push_back(Id);
  return Id;
}

unsigned SDGBuilder::addHeapNode(SDGNodeKind K, const Instr *CallOrNull,
                                 const Method *M, unsigned Part,
                                 unsigned Ctx) {
  auto [It, New] = HeapIndex.emplace(
      std::make_tuple(K, heapAnchor(CallOrNull, M), Part, Ctx), 0);
  if (!New)
    return It->second;
  unsigned Id = static_cast<unsigned>(G->Nodes.size());
  G->Nodes.push_back({K, CallOrNull, M, Part, Ctx, Id});
  It->second = Id;
  return Id;
}

int SDGBuilder::nodeFor(const Instr *I, unsigned Ctx) const {
  auto It = StmtIndex.find(I);
  if (It != StmtIndex.end())
    for (unsigned Id : It->second)
      if (G->Nodes[Id].Ctx == Ctx)
        return static_cast<int>(Id);
  return -1;
}

int SDGBuilder::heapNodeFor(SDGNodeKind K, const Instr *Call,
                            const Method *M, unsigned Part) const {
  auto It = HeapIndex.find(std::make_tuple(K, heapAnchor(Call, M), Part, 0u));
  return It == HeapIndex.end() ? -1 : static_cast<int>(It->second);
}

const Instr *SDGBuilder::formalInstr(const Method *M, unsigned Idx) const {
  if (!M->entry())
    return nullptr;
  for (const auto &I : M->entry()->instrs())
    if (const auto *PI = dyn_cast<ParamInstr>(I.get()))
      if (PI->index() == Idx)
        return PI;
  return nullptr;
}

std::vector<const Instr *> SDGBuilder::returnInstrs(const Method *M) const {
  std::vector<const Instr *> Out;
  for (const auto &BB : M->blocks())
    if (Instr *Term = BB->terminator())
      if (isa<RetInstr>(Term) && Term->numOperands())
        Out.push_back(Term);
  return Out;
}

const ControlDeps &SDGBuilder::controlDeps(const Method *M) {
  auto It = CDCache.find(M);
  if (It == CDCache.end())
    It = CDCache.emplace(M, std::make_unique<ControlDeps>(*M)).first;
  return *It->second;
}

void SDGBuilder::collectClones(const Program &P, BudgetGate &Gate) {
  const CallGraph &CG = PTA.callGraph();
  if (Opts.ContextSensitive) {
    // One clone per reachable method; the tabulation models contexts.
    for (const auto &M : P.methods())
      if (M->entry() && CG.isReachable(M.get()))
        Clones.push_back({M.get(), 0});
    return;
  }
  // One clone per call-graph node, plus a context-0 clone for bodies
  // the analysis never reached (so any statement can seed a slice).
  for (const MethodCtx &MC : CG.nodes())
    if (MC.M->entry())
      Clones.push_back({MC.M, MC.Ctx});
  if (Opts.IncludeUnreachable)
    for (const auto &M : P.methods())
      if (M->entry() && !CG.isReachable(M.get()))
        Clones.push_back({M.get(), 0});

  // Node cap: when the per-context clones would exceed the budget,
  // fall back to one context-0 clone per method. Scalar calls are
  // then wired method-level and aliasing context-merged (both
  // over-approximate the per-context graph projected to statements).
  uint64_t EstimatedNodes = 0;
  for (const Clone &C : Clones)
    EstimatedNodes += C.M->instrs().size();
  if (Gate.poll(EstimatedNodes)) {
    MergedClones = true;
    Clones.clear();
    for (const auto &M : P.methods())
      if (M->entry() &&
          (Opts.IncludeUnreachable || CG.isReachable(M.get())))
        Clones.push_back({M.get(), 0});
  }
}

/// Statement nodes and intraprocedural edges of clone \p C. Node and
/// edge ids are independent id spaces and a clone's edges only name
/// its own nodes, so building clone by clone assigns the same ids as
/// inserting every clone's nodes before any edge.
void SDGBuilder::buildIntra(const Clone &C) {
  const Method *M = C.M;
  unsigned Ctx = C.Ctx;
  for (const auto &BB : M->blocks())
    for (const auto &I : BB->instrs())
      addStmtNode(I.get(), M, Ctx);
  auto Node = [&](const Instr *I) {
    return static_cast<unsigned>(nodeFor(I, Ctx));
  };

  // SSA flow dependences, classified by operand role. Call operands
  // are wired through parameter edges instead (paper Sec. 5.1), with
  // the receiver of a virtual call contributing a dispatch (control)
  // dependence.
  for (const auto &BB : M->blocks()) {
    for (const auto &I : BB->instrs()) {
      unsigned To = Node(I.get());
      if (const auto *Call = dyn_cast<CallInstr>(I.get())) {
        if (Call->isVirtual()) {
          const Instr *RecvDef = Call->receiver()->def();
          if (RecvDef) addEdge(Node(RecvDef), To, SDGEdgeKind::Control);
        }
        continue;
      }
      for (unsigned OpIdx = 0; OpIdx != I->numOperands(); ++OpIdx) {
        const Instr *Def = I->operand(OpIdx)->def();
        if (!Def)
          continue;
        SDGEdgeKind K = I->operandRole(OpIdx) == OperandRole::Value
                            ? SDGEdgeKind::Flow
                            : SDGEdgeKind::BaseFlow;
        addEdge(Node(Def), To, K);
      }
    }
  }

  // Control dependences: every statement depends on the terminators of
  // its controlling blocks.
  const ControlDeps &CD = controlDeps(M);
  for (const auto &BB : M->blocks()) {
    std::vector<const Instr *> Branches;
    for (unsigned Controller : CD.controllers(BB->id()))
      if (Instr *Term = M->blocks()[Controller]->terminator())
        Branches.push_back(Term);
    if (Branches.empty())
      continue;
    for (const auto &I : BB->instrs()) {
      unsigned To = Node(I.get());
      for (const Instr *Br : Branches)
        addEdge(Node(Br), To, SDGEdgeKind::Control);
    }
  }
}

void SDGBuilder::wireCallEdge(const CallInstr *Call, unsigned CallerCtx,
                           const Method *Target, unsigned CalleeCtx) {
  const Method *Caller = Call->parent()->parent();
  unsigned CallNode = static_cast<unsigned>(nodeFor(Call, CallerCtx));

  // Actual -> actual-in node (at the call's line) -> formal.
  for (unsigned OpIdx = 0; OpIdx != Call->numOperands(); ++OpIdx) {
    const Instr *Formal =
        formalInstr(Target, Call->formalIndexOfOperand(OpIdx));
    const Instr *ActualDef = Call->operand(OpIdx)->def();
    if (!Formal || !ActualDef)
      continue;
    int FormalNode = nodeFor(Formal, CalleeCtx);
    int ActualNode = nodeFor(ActualDef, CallerCtx);
    if (FormalNode < 0 || ActualNode < 0)
      continue;
    unsigned AI = addHeapNode(SDGNodeKind::ScalarActualIn, Call, Caller,
                              OpIdx, CallerCtx);
    addEdge(static_cast<unsigned>(ActualNode), AI, SDGEdgeKind::Flow);
    addEdge(AI, static_cast<unsigned>(FormalNode), SDGEdgeKind::ParamIn, Call);
  }
  // Return -> call result.
  if (Call->dest() && !Target->returnType()->isVoid()) {
    for (const Instr *Ret : returnInstrs(Target)) {
      int RetNode = nodeFor(Ret, CalleeCtx);
      if (RetNode >= 0)
        addEdge(static_cast<unsigned>(RetNode), CallNode,
                SDGEdgeKind::ParamOut, Call);
    }
  }
}

void SDGBuilder::buildScalarCallsCI() {
  // Context-level call edges from the on-the-fly call graph.
  const CallGraph &CG = PTA.callGraph();
  for (const CallEdge &E : CG.edges()) {
    const MethodCtx &Caller = CG.node(E.CallerNode);
    const MethodCtx &Callee = CG.node(E.CalleeNode);
    wireCallEdge(E.Site, Caller.Ctx, Callee.M, Callee.Ctx);
  }
}

void SDGBuilder::buildScalarCallsCS(const Clone &C) {
  const CallGraph &CG = PTA.callGraph();
  for (const auto &BB : C.M->blocks()) {
    for (const auto &I : BB->instrs()) {
      const auto *Call = dyn_cast<CallInstr>(I.get());
      if (!Call)
        continue;
      for (Method *Target : CG.calleesOf(Call))
        if (Target->entry())
          wireCallEdge(Call, 0, Target, 0);
    }
  }
}

HeapAccesses SDGBuilder::collectHeapAccesses() const {
  HeapAccesses A;
  // In merged-clone degradation mode the per-context sets of the
  // unanalyzed context-0 clones would be empty (unsound), so aliasing
  // uses the context-merged supersets instead.
  auto Pts = [&](const Local *Base, unsigned Ctx) -> const BitSet * {
    if (!Base)
      return nullptr;
    return MergedClones ? &PTA.pointsTo(Base) : &PTA.pointsTo(Base, Ctx);
  };
  for (const Clone &C : Clones) {
    for (const auto &BB : C.M->blocks()) {
      for (const auto &I : BB->instrs()) {
        if (const auto *S = dyn_cast<StoreInstr>(I.get())) {
          auto &Bucket = (S->isStaticAccess() ? A.StaticStores
                                              : A.FieldStores)[S->field()->id()];
          Bucket.push_back(
              {S, C.Ctx, S->base(), S->src(), Pts(S->base(), C.Ctx)});
        } else if (const auto *L = dyn_cast<LoadInstr>(I.get())) {
          auto &Bucket = (L->isStaticAccess() ? A.StaticLoads
                                              : A.FieldLoads)[L->field()->id()];
          Bucket.push_back(
              {L, C.Ctx, L->base(), nullptr, Pts(L->base(), C.Ctx)});
        } else if (const auto *AS = dyn_cast<ArrayStoreInstr>(I.get())) {
          A.ArrStores.push_back(
              {AS, C.Ctx, AS->array(), AS->src(), Pts(AS->array(), C.Ctx)});
        } else if (const auto *AL = dyn_cast<ArrayLoadInstr>(I.get())) {
          A.ArrLoads.push_back(
              {AL, C.Ctx, AL->array(), nullptr, Pts(AL->array(), C.Ctx)});
        }
      }
    }
  }
  return A;
}

void SDGBuilder::buildHeapCI(BudgetGate &Gate) {
  // Direct write -> read edges keyed by field / array / static field,
  // guarded by may-alias of the base pointers *in the respective
  // contexts* (paper Sec. 5.2 with the object-sensitive points-to of
  // Sec. 6.1). In merged-clone degradation mode the per-context sets
  // of the unanalyzed context-0 clones would be empty (unsound), so
  // aliasing uses the context-merged supersets instead.
  HeapAccesses A = collectHeapAccesses();

  // Base points-to sets were resolved once per access at collection
  // time; the quadratic pairwise loops below are pure BitSet
  // intersections with no hash lookups.
  auto MayAlias = [&](const Access &S, const Access &L) {
    return S.BasePts->intersects(*L.BasePts);
  };
  auto Connect = [&](const Access &S, const Access &L) {
    addEdge(static_cast<unsigned>(nodeFor(S.I, S.Ctx)),
            static_cast<unsigned>(nodeFor(L.I, L.Ctx)),
            SDGEdgeKind::Flow);
  };

  // Each pairwise check spends one budget step; on exhaustion run()
  // falls back to coarse hub wiring, which subsumes any pair not yet
  // connected.
  for (const auto &[F, Loads] : A.FieldLoads) {
    auto It = A.FieldStores.find(F);
    if (It == A.FieldStores.end())
      continue;
    for (const Access &L : Loads)
      for (const Access &S : It->second) {
        if (Gate.spend())
          return;
        if (MayAlias(S, L))
          Connect(S, L);
      }
  }
  for (const auto &[F, Loads] : A.StaticLoads) {
    auto It = A.StaticStores.find(F);
    if (It == A.StaticStores.end())
      continue;
    for (const Access &L : Loads)
      for (const Access &S : It->second) {
        if (Gate.spend())
          return;
        Connect(S, L);
      }
  }
  for (const Access &L : A.ArrLoads)
    for (const Access &S : A.ArrStores) {
      if (Gate.spend())
        return;
      if (MayAlias(S, L))
        Connect(S, L);
    }
}

/// Coarse heap fallback for both variants: one HeapHub node per field
/// / static field / array-element class, Flow-wired store -> hub ->
/// load. Any precise write-read edge (same bucket) is subsumed by the
/// two-hop hub path, so slices over the hub graph over-approximate
/// slices over the precise graph. O(stores + loads) edges total.
void SDGBuilder::buildHeapCoarse() {
  HeapAccesses A = collectHeapAccesses();

  auto Wire = [&](unsigned Part, const std::vector<Access> &Stores,
                  const std::vector<Access> &Loads) {
    if (Stores.empty() || Loads.empty())
      return;
    unsigned Hub = addHeapNode(SDGNodeKind::HeapHub, nullptr, nullptr, Part);
    for (const Access &S : Stores)
      addEdge(static_cast<unsigned>(nodeFor(S.I, S.Ctx)), Hub,
              SDGEdgeKind::Flow);
    for (const Access &L : Loads)
      addEdge(Hub, static_cast<unsigned>(nodeFor(L.I, L.Ctx)),
              SDGEdgeKind::Flow);
  };

  for (const auto &[F, Loads] : A.FieldLoads) {
    auto It = A.FieldStores.find(F);
    if (It != A.FieldStores.end())
      Wire(F, It->second, Loads);
  }
  for (const auto &[F, Loads] : A.StaticLoads) {
    auto It = A.StaticStores.find(F);
    if (It != A.StaticStores.end())
      Wire(F, It->second, Loads);
  }
  Wire(~0u, A.ArrStores, A.ArrLoads);
}

void SDGBuilder::buildHeapCS(const Clone &C, BudgetGate &Gate) {
  assert(MR && "context-sensitive SDG requires mod-ref");
  if (Gate.exhausted())
    return;
  const Method *M = C.M;
  const CallGraph &CG = PTA.callGraph();

  // Formal heap parameters for this method.
  const BitSet &Ref = MR->refOf(M);
  const BitSet &Mod = MR->modOf(M);
  Ref.forEach([&](unsigned Part) {
    addHeapNode(SDGNodeKind::HeapFormalIn, nullptr, M, Part);
  });
  Mod.forEach([&](unsigned Part) {
    addHeapNode(SDGNodeKind::HeapFormalOut, nullptr, M, Part);
  });

  // Group this method's heap accesses and calls by partition.
  // Ordered by partition id: iteration below inserts edges and can
  // trip the gate mid-loop, so its order must be deterministic.
  std::map<unsigned, std::vector<const Instr *>> LoadsByPart, StoresByPart;
  std::vector<const CallInstr *> Calls;
  for (const auto &BB : M->blocks()) {
    for (const auto &I : BB->instrs()) {
      switch (I->kind()) {
      case InstrKind::Load:
      case InstrKind::ArrayLoad:
        MR->partitionsOf(I.get()).forEach(
            [&](unsigned Part) { LoadsByPart[Part].push_back(I.get()); });
        break;
      case InstrKind::Store:
      case InstrKind::ArrayStore:
        MR->partitionsOf(I.get()).forEach(
            [&](unsigned Part) { StoresByPart[Part].push_back(I.get()); });
        break;
      case InstrKind::Call:
        Calls.push_back(cast<CallInstr>(I.get()));
        break;
      default:
        break;
      }
    }
  }

  auto FormalIn = [&](unsigned Part) {
    return heapNodeFor(SDGNodeKind::HeapFormalIn, nullptr, M, Part);
  };
  auto FormalOut = [&](unsigned Part) {
    return heapNodeFor(SDGNodeKind::HeapFormalOut, nullptr, M, Part);
  };

  // Loads draw from the incoming heap state and intraprocedural
  // stores; stores feed the outgoing heap state. Flow-insensitive, as
  // in the paper's representation.
  for (const auto &[Part, Loads] : LoadsByPart) {
    int FI = FormalIn(Part);
    for (const Instr *L : Loads) {
      if (Gate.spend())
        return;
      unsigned LN = static_cast<unsigned>(nodeFor(L, 0));
      if (FI >= 0)
        addEdge(static_cast<unsigned>(FI), LN, SDGEdgeKind::Flow);
      auto It = StoresByPart.find(Part);
      if (It != StoresByPart.end())
        for (const Instr *S : It->second)
          addEdge(static_cast<unsigned>(nodeFor(S, 0)), LN, SDGEdgeKind::Flow);
    }
  }
  for (const auto &[Part, Stores] : StoresByPart) {
    int FO = FormalOut(Part);
    if (FO < 0)
      continue;
    for (const Instr *S : Stores) {
      if (Gate.spend())
        return;
      addEdge(static_cast<unsigned>(nodeFor(S, 0)),
              static_cast<unsigned>(FO), SDGEdgeKind::Flow);
    }
  }

  // Call sites: heap actual-in/out nodes and their linkage.
  for (const CallInstr *Call : Calls) {
    if (Gate.spend())
      return;
    std::vector<Method *> Targets = CG.calleesOf(Call);
    BitSet RefUnion, ModUnion;
    for (const Method *T : Targets) {
      RefUnion.unionWith(MR->refOf(T));
      ModUnion.unionWith(MR->modOf(T));
    }

    RefUnion.forEach([&](unsigned Part) {
      unsigned AI = addHeapNode(SDGNodeKind::HeapActualIn, Call, M, Part);
      int FI = FormalIn(Part);
      if (FI >= 0)
        addEdge(static_cast<unsigned>(FI), AI, SDGEdgeKind::Flow);
      auto It = StoresByPart.find(Part);
      if (It != StoresByPart.end())
        for (const Instr *S : It->second)
          addEdge(static_cast<unsigned>(nodeFor(S, 0)), AI, SDGEdgeKind::Flow);
      for (const Method *T : Targets) {
        if (!MR->refOf(T).test(Part))
          continue;
        int TFI = heapNodeFor(SDGNodeKind::HeapFormalIn, nullptr, T, Part);
        if (TFI >= 0)
          addEdge(AI, static_cast<unsigned>(TFI), SDGEdgeKind::ParamIn, Call);
      }
    });

    ModUnion.forEach([&](unsigned Part) {
      unsigned AO = addHeapNode(SDGNodeKind::HeapActualOut, Call, M, Part);
      for (const Method *T : Targets) {
        if (!MR->modOf(T).test(Part))
          continue;
        int TFO = heapNodeFor(SDGNodeKind::HeapFormalOut, nullptr, T, Part);
        if (TFO >= 0)
          addEdge(static_cast<unsigned>(TFO), AO, SDGEdgeKind::ParamOut, Call);
      }
      // The modified state reaches this method's loads and outgoing
      // heap state.
      auto It = LoadsByPart.find(Part);
      if (It != LoadsByPart.end())
        for (const Instr *L : It->second)
          addEdge(AO, static_cast<unsigned>(nodeFor(L, 0)), SDGEdgeKind::Flow);
      int FO = FormalOut(Part);
      if (FO >= 0)
        addEdge(AO, static_cast<unsigned>(FO), SDGEdgeKind::Flow);
    });
  }

  // Actual-out -> actual-in edges between calls in this method (the
  // heap state written by one call may be read by another, including
  // the same call in a loop).
  for (const CallInstr *C1 : Calls) {
    for (const CallInstr *C2 : Calls) {
      if (Gate.spend())
        return;
      for (Method *T1 : CG.calleesOf(C1)) {
        MR->modOf(T1).forEach([&](unsigned Part) {
          int AO = heapNodeFor(SDGNodeKind::HeapActualOut, C1, nullptr, Part);
          int AI = heapNodeFor(SDGNodeKind::HeapActualIn, C2, nullptr, Part);
          if (AO >= 0 && AI >= 0)
            addEdge(static_cast<unsigned>(AO), static_cast<unsigned>(AI),
                    SDGEdgeKind::Flow);
        });
      }
    }
  }
}

std::unique_ptr<SDG> SDGBuilder::run(const Program &P) {
  auto T0 = std::chrono::steady_clock::now();
  const AnalysisBudget *B = Opts.Budget;
  BudgetGate CloneGate(B, "sdg.clones", B ? B->MaxSdgNodes : 0);
  BudgetGate HeapGate(B, "sdg.heap", B ? B->MaxSdgEdges : 0);

  collectClones(P, CloneGate);
  for (const Clone &C : Clones)
    buildIntra(C);
  if (Opts.ContextSensitive) {
    for (const Clone &C : Clones)
      buildScalarCallsCS(C);
    for (const Clone &C : Clones) {
      buildHeapCS(C, HeapGate);
      if (HeapGate.exhausted())
        break;
    }
    if (HeapGate.exhausted())
      buildHeapCoarse();
  } else {
    if (MergedClones)
      // Context-level call-graph edges name contexts the merged graph
      // has no clones for; wire calls method-level instead (the CS
      // wiring works on any clone set and over-approximates the
      // context-level edges projected to statements).
      for (const Clone &C : Clones)
        buildScalarCallsCS(C);
    else
      buildScalarCallsCI();
    buildHeapCI(HeapGate);
    if (HeapGate.exhausted())
      buildHeapCoarse();
  }
  G->seal();

  StageReport R{"sdg", StageStatus::Complete, "", "", HeapGate.used(),
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - T0)
                    .count()};
  if (MergedClones || HeapGate.exhausted()) {
    R.Status = StageStatus::Degraded;
    std::string Reason, Fallback;
    if (MergedClones) {
      Reason = CloneGate.reason();
      Fallback = "context-merged clones";
    }
    if (HeapGate.exhausted()) {
      if (!Reason.empty())
        Reason += "; ";
      Reason += HeapGate.reason();
      if (!Fallback.empty())
        Fallback += " + ";
      Fallback += "coarse heap hubs";
    }
    R.Reason = std::move(Reason);
    R.Fallback = std::move(Fallback);
  }
  G->Report = std::move(R);
  return std::move(G);
}

std::unique_ptr<SDG> tsl::buildSDG(const Program &P,
                                   const PointsToResult &PTA,
                                   const ModRefResult *ModRef,
                                   const SDGOptions &Options) {
  assert((!Options.ContextSensitive || ModRef) &&
         "context-sensitive SDG requires mod-ref results");
  return SDGBuilder(P, PTA, ModRef, Options).run(P);
}
