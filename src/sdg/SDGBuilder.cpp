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
//    tabulation slicer. Within a method, one hub node per partition
//    joins the writers (stores, actual-outs) to the readers (loads,
//    actual-ins, the formal-out), so the heap wiring is linear in the
//    endpoints rather than their product.
//
//===----------------------------------------------------------------------===//

#include "ir/ControlDep.h"
#include "modref/ModRef.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <map>
#include <memory>
#include <tuple>

using namespace tsl;

namespace {

/// One analyzed clone of a method. Its statement nodes are one block
/// in renumbered instruction order, so a statement's node is found by
/// arithmetic rather than a lookup.
struct Clone {
  const Method *M;
  unsigned Ctx;
  /// Node id of the clone's first statement (set by buildIntra).
  unsigned Base = 0;

  unsigned node(const Instr *I) const {
    assert(I->parent()->parent() == M && "instruction of another method");
    return Base + I->id();
  }
};

/// One heap access of a clone, resolved once at collection time so
/// the wiring does no per-edge hash lookups.
struct Access {
  unsigned Node; ///< The access's statement node.
  /// Points-to set of the base pointer under the clone's aliasing
  /// regime (merged sets when clones were context-merged). Static
  /// accesses share a one-object pseudo set, so a static bucket wires
  /// every store to every load.
  const SparseBitSet *BasePts;
};

/// The stores and loads of one heap bucket: one instance field, one
/// static field, or the array-element class. Accesses keep collection
/// order (clone, block, instruction).
struct HeapBucket {
  std::span<const Access> Stores, Loads;
};

/// Every bucket's accesses, flat: bucket K's stores are
/// Stores[StoreOff[K] .. StoreOff[K + 1]), and likewise its loads. K is
/// the dense key index: instance field id, then NumFields + static
/// field id, then 2 * NumFields for the array-element class, which is
/// (class, id) key order (MethodShape::HeapAccess). The wiring iterates
/// the buckets in this order, and the order decides edge insertion
/// order AND — under a budget gate that can trip mid-loop — which
/// accesses get precise edges before the coarse fallback takes over.
/// Pointer-keyed unordered iteration would make both depend on
/// allocator state, breaking the byte-identical-artifacts guarantee.
struct HeapBuckets {
  std::vector<unsigned> StoreOff, LoadOff;
  std::vector<Access> Stores, Loads;
};

/// No statement: a formal index without a Param, an absent actual-in.
constexpr unsigned None = ~0u;

/// One heap endpoint of a context-sensitive method: a formal heap
/// parameter, a writer (store, heap actual-out) or a reader (load,
/// heap actual-in) of mod-ref partition Part.
struct HeapEnd {
  enum Role : uint8_t { FormalIn, FormalOut, Writer, Reader };
  unsigned Part;
  unsigned Node;
  Role R;
};

} // namespace

/// One SDG construction. Owns the graph until run() seals it, plus the
/// construction-time indexes the wiring passes look nodes up by; none
/// of them outlives the build. The method shapes live in an
/// SDGShapeCache, the caller's or the builder's own.
class tsl::SDGBuilder {
public:
  SDGBuilder(const Program &P, const PointsToResult &PTA,
             const ModRefResult *MR, const SDGOptions &Opts,
             SDGShapeCache *Shapes)
      : P(P), PTA(PTA), MR(MR), Opts(Opts),
        Cache(Shapes ? *Shapes : OwnShapes), G(new SDG(P)) {
    StaticPseudoObject.insert(0);
  }

  std::unique_ptr<SDG> run();

private:
  unsigned addNode(SDGNodeKind K, const Instr *I, const Method *M,
                   unsigned Part, unsigned Ctx) {
    const auto Id = static_cast<unsigned>(G->Nodes.size());
    G->Nodes.push_back({K, I, M, Part, Ctx, Id});
    return Id;
  }
  /// The parameter/hub node of one identity, added on first use.
  unsigned addHeapNode(SDGNodeKind K, const Instr *CallOrNull,
                       const Method *M, unsigned Part, unsigned Ctx = 0);
  /// Appends an edge. Every wiring pass emits each edge once; run()
  /// asserts there are no repeats in builds without NDEBUG.
  void addEdge(unsigned From, unsigned To, SDGEdgeKind K,
               const CallInstr *Site = nullptr) {
    G->addEdge(From, To, K, Site);
  }

  /// Context-0 heap parameter node lookup; returns -1 when absent.
  /// Formal nodes anchor at their method, actual nodes at their call
  /// site.
  int heapNodeFor(SDGNodeKind K, const Instr *Call, const Method *M,
                  unsigned Part) const;
  static const void *heapAnchor(const Instr *Call, const Method *M) {
    return Call ? static_cast<const void *>(Call) : M;
  }

  void collectClones(BudgetGate &Gate);
  /// Takes the shape of every cloned method from the cache, deriving
  /// (and caching) the missing ones.
  void prepareShapes();
  void buildIntra(Clone &C);
  void buildScalarCallsCI();
  void buildHeapCI(BudgetGate &Gate);
  void buildScalarCallsCS(const Clone &C);
  void buildHeapCS(const Clone &C, BudgetGate &Gate);
  void collectHeapAccesses();
  /// The one heap-bucket enumeration: calls \p Wire(Part, Bucket) on
  /// every bucket with both stores and loads, in key order, until it
  /// returns false. Part is the field id, or ~0u for array elements.
  template <typename WireFn> void forEachHeapBucket(WireFn Wire);
  /// Precise write -> read edges of one bucket; false once \p Gate
  /// trips.
  bool wireBucket(const HeapBucket &B, BudgetGate &Gate);
  /// The one heap-hub wiring: \p From -> hub -> \p To through the
  /// HeapHub of (\p M, \p Part), so each writer reaches each reader in
  /// O(writers + readers) edges; nothing when either side is empty.
  /// \p M is null for the coarse fallback's global per-field hubs.
  void wireHub(const Method *M, unsigned Part,
               const std::vector<unsigned> &From,
               const std::vector<unsigned> &To);
  void buildHeapCoarse();

  /// Scalar parameter and return linkage of \p Call from clone
  /// \p Caller into clone \p Callee; nothing when Callee is -1 (no
  /// clone: the target has no body).
  void wireCallEdge(const CallInstr *Call, const Clone &Caller, int Callee);

  /// The shape of a cloned method (prepareShapes() made it).
  MethodShape shape(const Method *M) const {
    assert(Cache.has(M->id()) && "shape of a method without a clone");
    return Cache.view(M->id());
  }

  const Program &P;
  const PointsToResult &PTA;
  const ModRefResult *MR;
  SDGOptions Opts;
  SDGShapeCache OwnShapes;
  SDGShapeCache &Cache;
  std::unique_ptr<SDG> G;
  /// Heap parameter and hub node identity: (kind, anchor, partition,
  /// ctx). The anchor is the call site when there is one, else the
  /// method, else null (the global hub). Lookup only, never iterated,
  /// so pointer keys cannot perturb any id.
  std::map<std::tuple<SDGNodeKind, const void *, unsigned, unsigned>,
           unsigned>
      HeapIndex;
  /// Scalar actual-in nodes by call statement node: the call's
  /// actual-ins start at ActualIns[FirstActualIn[CallNode]], one slot
  /// per operand, None until added. A call statement node names the
  /// call and its clone's context, the actual-in's identity.
  std::vector<unsigned> FirstActualIn, ActualIns;
  std::vector<Clone> Clones;
  /// Clone index of each call-graph node (per-context clones), and of
  /// each method's context-0 clone (CS, merged-clone and unreachable
  /// clones); -1 where there is none.
  std::vector<int> CloneOfCGNode, CloneOfMethod;
  /// Node-cap degradation: one clone per method instead of one per
  /// call-graph context; aliasing then uses context-merged points-to
  /// sets (a superset of every per-context set, so still sound).
  bool MergedClones = false;
  /// The base "points-to set" of every static access: object 0.
  SparseBitSet StaticPseudoObject;
  /// Every clone's heap accesses by bucket, collected on first use.
  HeapBuckets Buckets;
  bool BucketsCollected = false;
  /// Heap-wiring scratch, reused across buckets. StoresByObj maps an
  /// abstract object to the bucket's stores (by index) whose base may
  /// point to it; Touched lists the objects with a non-empty entry, so
  /// the next bucket clears only those. Stamp[S] is the last load that
  /// collected store S, and Candidates the current load's stores.
  std::vector<std::vector<unsigned>> StoresByObj;
  std::vector<unsigned> Touched, Stamp, Candidates;
  /// Hub-wiring scratch: one CS method's heap endpoints, and the
  /// writer and reader nodes of the hub being wired.
  std::vector<HeapEnd> Ends;
  std::vector<unsigned> Writers, Readers;
};

bool MethodShape::sameAs(const MethodShape &O) const {
  return std::ranges::equal(Intra, O.Intra) &&
         std::ranges::equal(Calls, O.Calls) &&
         std::ranges::equal(Args, O.Args) &&
         std::ranges::equal(Formals, O.Formals) &&
         std::ranges::equal(Returns, O.Returns) &&
         std::ranges::equal(Accesses, O.Accesses);
}

void SDGShapeCache::clear() {
  const uint64_t KeepDerived = Derived, KeepReused = Reused;
  *this = SDGShapeCache();
  Derived = KeepDerived;
  Reused = KeepReused;
}

void SDGShapeCache::invalidate(const std::vector<Method *> &Relowered) {
  for (const Method *M : Relowered)
    if (has(M->id())) {
      Entries[M->id()].Valid = false;
      LiveIntra -= Entries[M->id()].Intra.Count;
    }
}

MethodShape SDGShapeCache::view(unsigned MethodId) const {
  const Entry &E = Entries[MethodId];
  auto Part = [](const auto &Pool, Run R) {
    return std::span(Pool.data() + R.Begin, R.Count);
  };
  return {Part(IntraPool, E.Intra),     Part(CallPool, E.Calls),
          Part(ArgPool, E.Args),        Part(FormalPool, E.Formals),
          Part(ReturnPool, E.Returns),  Part(AccessPool, E.Accesses)};
}

void SDGShapeCache::compactIfSparse() {
  if (IntraPool.capacity() <= LiveIntra + LiveIntra / 8 + 1024)
    return;
  // Each pool is rewritten with the valid runs in method order, leaving
  // a sixteenth of slack for the shapes later edits re-derive.
  auto Rewrite = [&](auto &Pool, Run Entry::*Part) {
    std::size_t Live = 0;
    for (const Entry &E : Entries)
      if (E.Valid)
        Live += (E.*Part).Count;
    std::remove_reference_t<decltype(Pool)> Fresh;
    Fresh.reserve(Live + Live / 16);
    for (Entry &E : Entries) {
      if (!E.Valid)
        continue;
      Run &R = E.*Part;
      const auto First = Pool.begin() + R.Begin;
      R.Begin = static_cast<uint32_t>(Fresh.size());
      Fresh.insert(Fresh.end(), First, First + R.Count);
    }
    Pool = std::move(Fresh);
  };
  Rewrite(IntraPool, &Entry::Intra);
  Rewrite(CallPool, &Entry::Calls);
  Rewrite(ArgPool, &Entry::Args);
  Rewrite(FormalPool, &Entry::Formals);
  Rewrite(ReturnPool, &Entry::Returns);
  Rewrite(AccessPool, &Entry::Accesses);
}

unsigned SDGBuilder::addHeapNode(SDGNodeKind K, const Instr *CallOrNull,
                                 const Method *M, unsigned Part,
                                 unsigned Ctx) {
  auto [It, New] = HeapIndex.emplace(
      std::make_tuple(K, heapAnchor(CallOrNull, M), Part, Ctx), 0);
  if (New)
    It->second = addNode(K, CallOrNull, M, Part, Ctx);
  return It->second;
}

int SDGBuilder::heapNodeFor(SDGNodeKind K, const Instr *Call,
                            const Method *M, unsigned Part) const {
  auto It = HeapIndex.find(std::make_tuple(K, heapAnchor(Call, M), Part, 0u));
  return It == HeapIndex.end() ? -1 : static_cast<int>(It->second);
}

void SDGShapeCache::derive(const Method &M) {
  if (M.id() >= Entries.size())
    Entries.resize(M.id() + 1);
  Entry &E = Entries[M.id()];
  assert(!E.Valid && "shape derived twice");
  // Each part is appended as one run: its pool's size before and after.
  auto Open = [](Run &R, const auto &Pool) {
    R.Begin = static_cast<uint32_t>(Pool.size());
  };
  auto Close = [](Run &R, const auto &Pool) {
    R.Count = static_cast<uint32_t>(Pool.size() - R.Begin);
  };
  auto Add = [&](const Instr *From, const Instr *To, SDGEdgeKind K) {
    IntraPool.push_back({From->id(), To->id(), K});
  };
  Open(E.Intra, IntraPool);
  Open(E.Calls, CallPool);
  Open(E.Args, ArgPool);

  // SSA flow dependences, classified by operand role. Call operands
  // are wired through parameter edges instead (paper Sec. 5.1), with
  // the receiver of a virtual call contributing a dispatch (control)
  // dependence.
  for (const Instr *I : M.instrs()) {
    if (const auto *Call = dyn_cast<CallInstr>(I)) {
      if (Call->isVirtual())
        if (const Instr *RecvDef = Call->receiver()->def())
          Add(RecvDef, I, SDGEdgeKind::Control);
      CallPool.push_back(
          {I->id(), static_cast<unsigned>(ArgPool.size() - E.Args.Begin),
           Call->numOperands(), Call->dest() != nullptr});
      for (unsigned OpIdx = 0; OpIdx != Call->numOperands(); ++OpIdx) {
        const Instr *Def = Call->operand(OpIdx)->def();
        ArgPool.push_back(
            {Call->formalIndexOfOperand(OpIdx), Def ? Def->id() : None});
      }
      continue;
    }
    auto KindOf = [&](unsigned OpIdx) {
      return I->operandRole(OpIdx) == OperandRole::Value
                 ? SDGEdgeKind::Flow
                 : SDGEdgeKind::BaseFlow;
    };
    for (unsigned OpIdx = 0; OpIdx != I->numOperands(); ++OpIdx) {
      const Instr *Def = I->operand(OpIdx)->def();
      if (!Def)
        continue;
      // An operand repeating an earlier one's def and role (x + x, a
      // phi merging one value twice) adds no second edge.
      bool Repeat = false;
      for (unsigned Prev = 0; Prev != OpIdx && !Repeat; ++Prev)
        Repeat = I->operand(Prev)->def() == Def &&
                 KindOf(Prev) == KindOf(OpIdx);
      if (!Repeat)
        Add(Def, I, KindOf(OpIdx));
    }
  }

  // Control dependences: every statement depends on the terminators of
  // its controlling blocks.
  const ControlDeps CD(M);
  std::vector<const Instr *> Branches;
  for (const auto &BB : M.blocks()) {
    Branches.clear();
    for (unsigned Controller : CD.controllers(BB->id()))
      if (Instr *Term = M.blocks()[Controller]->terminator())
        Branches.push_back(Term);
    for (const auto &I : BB->instrs())
      for (const Instr *Br : Branches)
        Add(Br, I.get(), SDGEdgeKind::Control);
  }
  Close(E.Intra, IntraPool);
  Close(E.Calls, CallPool);
  Close(E.Args, ArgPool);

  Open(E.Formals, FormalPool);
  if (M.entry())
    for (const auto &I : M.entry()->instrs())
      if (const auto *PI = dyn_cast<ParamInstr>(I.get())) {
        const std::size_t At = E.Formals.Begin + PI->index();
        if (At >= FormalPool.size())
          FormalPool.resize(At + 1, None);
        if (FormalPool[At] == None)
          FormalPool[At] = PI->id();
      }
  Close(E.Formals, FormalPool);
  Open(E.Returns, ReturnPool);
  Open(E.Accesses, AccessPool);
  for (const auto &BB : M.blocks()) {
    if (Instr *Term = BB->terminator())
      if (isa<RetInstr>(Term) && Term->numOperands())
        ReturnPool.push_back(Term->id());
    for (const auto &I : BB->instrs()) {
      auto Access = [&](uint8_t Class, unsigned FieldId, bool Store,
                        const Local *Base) {
        AccessPool.push_back({I->id(), FieldId, Class, Store, Base});
      };
      if (const auto *St = dyn_cast<StoreInstr>(I.get()))
        Access(St->isStaticAccess() ? 1 : 0, St->field()->id(), true,
               St->base());
      else if (const auto *L = dyn_cast<LoadInstr>(I.get()))
        Access(L->isStaticAccess() ? 1 : 0, L->field()->id(), false,
               L->base());
      else if (const auto *AS = dyn_cast<ArrayStoreInstr>(I.get()))
        Access(2, None, true, AS->array());
      else if (const auto *AL = dyn_cast<ArrayLoadInstr>(I.get()))
        Access(2, None, false, AL->array());
    }
  }
  Close(E.Returns, ReturnPool);
  Close(E.Accesses, AccessPool);
  E.Valid = true;
  LiveIntra += E.Intra.Count;
}

void SDGBuilder::prepareShapes() {
  std::vector<bool> Seen(P.methods().size());
#ifndef NDEBUG
  SDGShapeCache Fresh;
#endif
  for (const Clone &C : Clones) {
    if (Seen[C.M->id()])
      continue;
    Seen[C.M->id()] = true;
    if (Cache.has(C.M->id())) {
      ++Cache.Reused;
#ifndef NDEBUG
      Fresh.derive(*C.M);
      assert(Cache.view(C.M->id()).sameAs(Fresh.view(C.M->id())) &&
             "cached method shape is stale");
#endif
      continue;
    }
    Cache.derive(*C.M);
    ++Cache.Derived;
  }
  // A builder-local cache dies with the build: nothing to compact.
  if (&Cache != &OwnShapes)
    Cache.compactIfSparse();
}

void SDGBuilder::collectClones(BudgetGate &Gate) {
  const CallGraph &CG = PTA.callGraph();
  CloneOfMethod.assign(P.methods().size(), -1);
  auto AddMethodClone = [&](const Method *M) {
    CloneOfMethod[M->id()] = static_cast<int>(Clones.size());
    Clones.push_back({M, 0});
  };
  if (Opts.ContextSensitive) {
    // One clone per reachable method; the tabulation models contexts.
    for (const auto &M : P.methods())
      if (M->entry() && CG.isReachable(M.get()))
        AddMethodClone(M.get());
    return;
  }
  // One clone per call-graph node, plus a context-0 clone for bodies
  // the analysis never reached (so any statement can seed a slice).
  CloneOfCGNode.assign(CG.nodes().size(), -1);
  for (std::size_t N = 0; N != CG.nodes().size(); ++N)
    if (CG.node(N).M->entry()) {
      CloneOfCGNode[N] = static_cast<int>(Clones.size());
      Clones.push_back({CG.node(N).M, CG.node(N).Ctx});
    }
  for (const auto &M : P.methods())
    if (M->entry() && !CG.isReachable(M.get()))
      AddMethodClone(M.get());

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
    CloneOfCGNode.clear();
    CloneOfMethod.assign(P.methods().size(), -1);
    for (const auto &M : P.methods())
      if (M->entry())
        AddMethodClone(M.get());
  }
}

/// Statement nodes and intraprocedural edges of clone \p C. Node and
/// edge ids are independent id spaces and a clone's edges only name
/// its own nodes, so building clone by clone assigns the same ids as
/// inserting every clone's nodes before any edge. Every clone's block
/// is appended before any heap or parameter node exists.
void SDGBuilder::buildIntra(Clone &C) {
  C.Base = static_cast<unsigned>(G->Nodes.size());
  for (const Instr *I : C.M->instrs()) {
    [[maybe_unused]] const unsigned Id =
        addNode(SDGNodeKind::Stmt, I, C.M, 0, C.Ctx);
    assert(Id == C.Base + I->id() && "method not renumbered");
  }
  G->addStmtRun(C.Base, C.M->id(), 0,
                static_cast<unsigned>(C.M->instrs().size()));
  const MethodShape S = shape(C.M);
  for (const MethodShape::LocalEdge &E : S.Intra)
    addEdge(C.Base + E.From, C.Base + E.To, E.K);
}

void SDGBuilder::wireCallEdge(const CallInstr *Call, const Clone &Caller,
                              int Callee) {
  if (Callee < 0)
    return;
  const Clone &Target = Clones[Callee];
  const MethodShape Shape = shape(Target.M);
  const MethodShape CallerShape = shape(Caller.M);
  const auto Site = std::lower_bound(
      CallerShape.Calls.begin(), CallerShape.Calls.end(), Call->id(),
      [](const MethodShape::CallSite &S, unsigned Id) { return S.Stmt < Id; });
  assert(Site != CallerShape.Calls.end() && Site->Stmt == Call->id() &&
         "call site missing from its method's shape");
  const unsigned CallNode = Caller.Base + Site->Stmt;

  // Actual -> actual-in node (at the call's line) -> formal. The
  // actual-in node is shared by every target of the call, so its one
  // incoming Flow edge is added when the node is created.
  for (unsigned OpIdx = 0; OpIdx != Site->NumArgs; ++OpIdx) {
    const MethodShape::CallArg &Arg = CallerShape.Args[Site->FirstArg + OpIdx];
    const unsigned Formal = Arg.FormalIdx < Shape.Formals.size()
                                ? Shape.Formals[Arg.FormalIdx]
                                : None;
    if (Formal == None || Arg.ActualDef == None)
      continue;
    if (FirstActualIn[CallNode] == None) {
      FirstActualIn[CallNode] = static_cast<unsigned>(ActualIns.size());
      ActualIns.resize(ActualIns.size() + Site->NumArgs, None);
    }
    unsigned &AI = ActualIns[FirstActualIn[CallNode] + OpIdx];
    if (AI == None) {
      AI = addNode(SDGNodeKind::ScalarActualIn, Call, Caller.M, OpIdx,
                   Caller.Ctx);
      addEdge(Caller.Base + Arg.ActualDef, AI, SDGEdgeKind::Flow);
    }
    addEdge(AI, Target.Base + Formal, SDGEdgeKind::ParamIn, Call);
  }
  // Return -> call result.
  if (Site->HasDest && !Target.M->returnType()->isVoid())
    for (unsigned Ret : Shape.Returns)
      addEdge(Target.Base + Ret, CallNode, SDGEdgeKind::ParamOut, Call);
}

void SDGBuilder::buildScalarCallsCI() {
  // Context-level call edges from the on-the-fly call graph. A call
  // edge's caller node has a body (it holds the call), so a clone.
  const CallGraph &CG = PTA.callGraph();
  for (const CallEdge &E : CG.edges()) {
    assert(CloneOfCGNode[E.CallerNode] >= 0 && "caller without a body");
    wireCallEdge(E.Site, Clones[CloneOfCGNode[E.CallerNode]],
                 CloneOfCGNode[E.CalleeNode]);
  }
}

void SDGBuilder::buildScalarCallsCS(const Clone &C) {
  const CallGraph &CG = PTA.callGraph();
  const MethodShape S = shape(C.M);
  for (const MethodShape::CallSite &Site : S.Calls) {
    const auto *Call = cast<CallInstr>(C.M->instrs()[Site.Stmt]);
    for (Method *Target : CG.calleesOf(Call))
      wireCallEdge(Call, C, CloneOfMethod[Target->id()]);
  }
}

void SDGBuilder::collectHeapAccesses() {
  const auto NumFields = static_cast<unsigned>(P.fields().size());
  const std::size_t NumKeys = 2 * std::size_t(NumFields) + 1;
  auto KeyOf = [&](const MethodShape::HeapAccess &A) {
    assert((A.Class == 2 || A.FieldId < NumFields) && "field id not dense");
    return A.Class == 2 ? 2 * NumFields : A.Class * NumFields + A.FieldId;
  };
  // A counting sort by key: count each bucket's stores and loads, turn
  // the counts into offsets, then place the accesses in collection
  // order (clone, block, instruction).
  std::vector<unsigned> &StoreOff = Buckets.StoreOff, &LoadOff = Buckets.LoadOff;
  StoreOff.assign(NumKeys + 1, 0);
  LoadOff.assign(NumKeys + 1, 0);
  for (const Clone &C : Clones)
    for (const MethodShape::HeapAccess &A : shape(C.M).Accesses)
      ++(A.Store ? StoreOff : LoadOff)[KeyOf(A) + 1];
  for (std::size_t K = 1; K <= NumKeys; ++K) {
    StoreOff[K] += StoreOff[K - 1];
    LoadOff[K] += LoadOff[K - 1];
  }
  Buckets.Stores.resize(StoreOff.back());
  Buckets.Loads.resize(LoadOff.back());
  std::vector<unsigned> StoreAt(StoreOff.begin(), StoreOff.end() - 1);
  std::vector<unsigned> LoadAt(LoadOff.begin(), LoadOff.end() - 1);
  // In merged-clone degradation mode the per-context sets of the
  // unanalyzed context-0 clones would be empty (unsound), so aliasing
  // uses the context-merged supersets instead.
  auto Pts = [&](const Local *Base, unsigned Ctx) -> const SparseBitSet * {
    if (!Base)
      return &StaticPseudoObject;
    return MergedClones ? &PTA.pointsTo(Base) : &PTA.pointsTo(Base, Ctx);
  };
  for (const Clone &C : Clones) {
    const MethodShape S = shape(C.M);
    for (const MethodShape::HeapAccess &A : S.Accesses) {
      const Access Acc{C.Base + A.Stmt, Pts(A.Base, C.Ctx)};
      if (A.Store)
        Buckets.Stores[StoreAt[KeyOf(A)]++] = Acc;
      else
        Buckets.Loads[LoadAt[KeyOf(A)]++] = Acc;
    }
  }
  BucketsCollected = true;
}

template <typename WireFn> void SDGBuilder::forEachHeapBucket(WireFn Wire) {
  if (!BucketsCollected)
    collectHeapAccesses();
  const auto NumFields = static_cast<unsigned>(P.fields().size());
  const std::vector<unsigned> &SO = Buckets.StoreOff, &LO = Buckets.LoadOff;
  for (unsigned Key = 0; Key + 1 != SO.size(); ++Key) {
    if (SO[Key] == SO[Key + 1] || LO[Key] == LO[Key + 1])
      continue;
    const HeapBucket B{
        std::span(Buckets.Stores).subspan(SO[Key], SO[Key + 1] - SO[Key]),
        std::span(Buckets.Loads).subspan(LO[Key], LO[Key + 1] - LO[Key])};
    const unsigned Part = Key == 2 * NumFields ? ~0u : Key % NumFields;
    if (!Wire(Part, B))
      return;
  }
}

/// Direct write -> read edges of one bucket, guarded by may-alias of
/// the base pointers *in the respective contexts* (paper Sec. 5.2 with
/// the object-sensitive points-to of Sec. 6.1). Output-linear: the
/// stores' base sets are inverted into an object -> stores index, and
/// each load collects the stores indexed under its own objects, so no
/// non-aliasing pair is ever examined. Sorting each load's candidates
/// by store index emits the edges in the order of a loads-outer,
/// stores-inner pairwise loop, which keeps edge ids (and so snapshots
/// and slices) independent of the index. One budget step per index
/// entry and per emitted edge; on exhaustion run() falls back to
/// coarse hub wiring, which subsumes any pair not yet connected.
bool SDGBuilder::wireBucket(const HeapBucket &B, BudgetGate &Gate) {
  for (unsigned Obj : Touched)
    StoresByObj[Obj].clear();
  Touched.clear();
  for (unsigned S = 0; S != B.Stores.size(); ++S) {
    uint64_t Entries = 0;
    B.Stores[S].BasePts->forEach([&](unsigned Obj) {
      if (Obj >= StoresByObj.size())
        StoresByObj.resize(Obj + 1);
      if (StoresByObj[Obj].empty())
        Touched.push_back(Obj);
      StoresByObj[Obj].push_back(S);
      ++Entries;
    });
    if (Gate.spend(Entries))
      return false;
  }

  Stamp.assign(B.Stores.size(), ~0u);
  for (unsigned L = 0; L != B.Loads.size(); ++L) {
    Candidates.clear();
    B.Loads[L].BasePts->forEach([&](unsigned Obj) {
      if (Obj < StoresByObj.size())
        for (unsigned S : StoresByObj[Obj])
          if (Stamp[S] != L) {
            Stamp[S] = L;
            Candidates.push_back(S);
          }
    });
    std::sort(Candidates.begin(), Candidates.end());
    for (unsigned S : Candidates) {
      if (Gate.spend())
        return false;
      addEdge(B.Stores[S].Node, B.Loads[L].Node, SDGEdgeKind::Flow);
    }
  }
  return true;
}

void SDGBuilder::buildHeapCI(BudgetGate &Gate) {
  forEachHeapBucket([&](unsigned, const HeapBucket &B) {
    return wireBucket(B, Gate);
  });
}

void SDGBuilder::wireHub(const Method *M, unsigned Part,
                         const std::vector<unsigned> &From,
                         const std::vector<unsigned> &To) {
  if (From.empty() || To.empty())
    return;
  const unsigned Hub = addHeapNode(SDGNodeKind::HeapHub, nullptr, M, Part);
  for (unsigned W : From)
    addEdge(W, Hub, SDGEdgeKind::Flow);
  for (unsigned R : To)
    addEdge(Hub, R, SDGEdgeKind::Flow);
}

/// Coarse heap fallback for both variants: one global hub per field /
/// static field / array-element class, wired store -> hub -> load.
/// Any precise write-read edge (same bucket) is subsumed by the
/// two-hop hub path, so slices over the hub graph over-approximate
/// slices over the precise graph. O(stores + loads) edges total.
void SDGBuilder::buildHeapCoarse() {
  forEachHeapBucket([&](unsigned Part, const HeapBucket &B) {
    Writers.clear();
    Readers.clear();
    for (const Access &S : B.Stores)
      Writers.push_back(S.Node);
    for (const Access &L : B.Loads)
      Readers.push_back(L.Node);
    wireHub(nullptr, Part, Writers, Readers);
    return true;
  });
}

void SDGBuilder::buildHeapCS(const Clone &C, BudgetGate &Gate) {
  assert(MR && "context-sensitive SDG requires mod-ref");
  if (Gate.exhausted())
    return;
  const Method *M = C.M;
  const CallGraph &CG = PTA.callGraph();

  // Every heap endpoint of this method, tagged with its partition:
  // the formal heap parameters (added by run()) first, then the
  // accesses and each call's actual heap parameters in block order.
  Ends.clear();
  auto AddFormals = [&](const SparseBitSet &Parts, SDGNodeKind K,
                        HeapEnd::Role R) {
    Parts.forEach([&](unsigned Part) {
      Ends.push_back({Part, addHeapNode(K, nullptr, M, Part), R});
    });
  };
  AddFormals(MR->refOf(M), SDGNodeKind::HeapFormalIn, HeapEnd::FormalIn);
  AddFormals(MR->modOf(M), SDGNodeKind::HeapFormalOut, HeapEnd::FormalOut);
  // A call's actual-in (a reader) or actual-out (a writer) of one
  // partition is shared by its targets: added, and listed, on first use.
  auto Actual = [&](SDGNodeKind K, const CallInstr *Call, unsigned Part) {
    const auto NewId = static_cast<unsigned>(G->Nodes.size());
    const unsigned N = addHeapNode(K, Call, M, Part);
    if (N == NewId)
      Ends.push_back({Part, N,
                      K == SDGNodeKind::HeapActualIn ? HeapEnd::Reader
                                                     : HeapEnd::Writer});
    return N;
  };
  for (const auto &BB : M->blocks()) {
    for (const auto &I : BB->instrs()) {
      auto AddAccess = [&](HeapEnd::Role R) {
        MR->partitionsOf(I.get()).forEach(
            [&](unsigned Part) { Ends.push_back({Part, C.node(I.get()), R}); });
      };
      switch (I->kind()) {
      case InstrKind::Load:
      case InstrKind::ArrayLoad:
        AddAccess(HeapEnd::Reader);
        break;
      case InstrKind::Store:
      case InstrKind::ArrayStore:
        AddAccess(HeapEnd::Writer);
        break;
      case InstrKind::Call: {
        if (Gate.spend())
          return;
        const auto *Call = cast<CallInstr>(I.get());
        for (const Method *T : CG.calleesOf(Call)) {
          MR->refOf(T).forEach([&](unsigned Part) {
            unsigned AI = Actual(SDGNodeKind::HeapActualIn, Call, Part);
            int FI = heapNodeFor(SDGNodeKind::HeapFormalIn, nullptr, T, Part);
            if (FI >= 0)
              addEdge(AI, static_cast<unsigned>(FI), SDGEdgeKind::ParamIn,
                      Call);
          });
          MR->modOf(T).forEach([&](unsigned Part) {
            unsigned AO = Actual(SDGNodeKind::HeapActualOut, Call, Part);
            int FO = heapNodeFor(SDGNodeKind::HeapFormalOut, nullptr, T, Part);
            if (FO >= 0)
              addEdge(static_cast<unsigned>(FO), AO, SDGEdgeKind::ParamOut,
                      Call);
          });
        }
        break;
      }
      default:
        break;
      }
    }
  }

  // Per partition, in ascending order (the gate can trip mid-loop, so
  // the order must be deterministic), one hub joins every writer to
  // every reader. Flow-insensitive, as in the paper's representation.
  // The formal-in, first in its partition, feeds each load and
  // actual-in directly: through the hub it would reach the formal-out,
  // a same-level path the method's heap accesses do not make.
  std::stable_sort(Ends.begin(), Ends.end(),
                   [](const HeapEnd &A, const HeapEnd &B) {
                     return A.Part < B.Part;
                   });
  for (std::size_t Begin = 0, End; Begin != Ends.size(); Begin = End) {
    const unsigned Part = Ends[Begin].Part;
    int FormalIn = -1;
    Writers.clear();
    Readers.clear();
    for (End = Begin; End != Ends.size() && Ends[End].Part == Part; ++End) {
      const HeapEnd &E = Ends[End];
      switch (E.R) {
      case HeapEnd::FormalIn:
        FormalIn = static_cast<int>(E.Node);
        break;
      case HeapEnd::Writer:
        Writers.push_back(E.Node);
        break;
      case HeapEnd::Reader:
        if (FormalIn >= 0)
          addEdge(static_cast<unsigned>(FormalIn), E.Node, SDGEdgeKind::Flow);
        [[fallthrough]];
      case HeapEnd::FormalOut:
        Readers.push_back(E.Node);
        break;
      }
    }
    if (Gate.spend(Writers.size() + Readers.size()))
      return;
    wireHub(M, Part, Writers, Readers);
  }
}

std::unique_ptr<SDG> SDGBuilder::run() {
  auto T0 = std::chrono::steady_clock::now();
  const AnalysisBudget *B = Opts.Budget;
  BudgetGate CloneGate(B, "sdg.clones", B ? B->MaxSdgNodes : 0);
  BudgetGate HeapGate(B, "sdg.heap", B ? B->MaxSdgEdges : 0);

  collectClones(CloneGate);
  prepareShapes();
  // Every clone instruction gets one statement node, every clone
  // stamps its method's intraprocedural edges, and a call operand has
  // at most one scalar actual-in node per clone: size the lists for
  // that once rather than growing them.
  std::size_t NumStmts = 0, NumIntra = 0, NumArgs = 0;
  for (const Clone &C : Clones) {
    const MethodShape S = shape(C.M);
    NumStmts += C.M->instrs().size();
    NumIntra += S.Intra.size();
    NumArgs += S.Args.size();
  }
  G->reserve(NumStmts + NumArgs, NumIntra);
  for (Clone &C : Clones)
    buildIntra(C);
  FirstActualIn.assign(NumStmts, None);
  if (Opts.ContextSensitive) {
    for (const Clone &C : Clones) {
      buildScalarCallsCS(C);
      // Every method's heap formals exist before any heap wiring: a
      // call site links to its targets' formals, and a target's clone
      // may come later.
      MR->refOf(C.M).forEach([&](unsigned Part) {
        addHeapNode(SDGNodeKind::HeapFormalIn, nullptr, C.M, Part);
      });
      MR->modOf(C.M).forEach([&](unsigned Part) {
        addHeapNode(SDGNodeKind::HeapFormalOut, nullptr, C.M, Part);
      });
    }
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
  assert(G->countRepeatedEdges() == 0 && "SDG build emitted a repeated edge");

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
                                   const SDGOptions &Options,
                                   SDGShapeCache *Shapes) {
  assert((!Options.ContextSensitive || ModRef) &&
         "context-sensitive SDG requires mod-ref results");
  return SDGBuilder(P, PTA, ModRef, Options, Shapes).run();
}
