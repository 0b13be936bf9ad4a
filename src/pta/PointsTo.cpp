//===-- PointsTo.cpp - Andersen points-to analysis ----------------------------==//
//
// Solver core. One configuration runs in production:
//
//  - difference propagation: every node keeps a Delta of objects that
//    arrived since its last visit; only the delta flows along copy
//    edges and into deferred constraints. New edges and constraints
//    are seeded with the full current set when created, so each
//    object reaches each edge/constraint at least once and the
//    deferred-constraint handlers stay idempotent.
//
//  - lazy cycle detection (Hardekopf–Lin): when a propagation along
//    an unfiltered copy edge changes nothing, the edge is checked
//    once for participation in a copy-edge cycle; detected SCCs are
//    collapsed onto a representative through a union-find. Filtered
//    (cast) edges never collapse: they are not identity flow.
//
//  - a topological worklist: priorities come from a periodically
//    recomputed reverse postorder of the copy-edge graph, so each
//    delta moves down a long copy chain in one sweep.
//
// runPointsToReference() runs the same constraint generation through
// the naive solver instead: a FIFO worklist that pushes each node's
// full set and never collapses cycles. It is the differential
// reference for the solver tests and bench_pta_solver.
//
// Every set of abstract objects here (points-to sets, deltas, the
// merged per-local sets) is a SparseBitSet: it stores only non-zero
// words, so set operations cost what the set holds, not the width of
// the object table. Iteration is ascending, as with a dense BitSet, so
// the representation fixes no visit order.
//
// Merging nodes conservatively re-delivers the merged points-to set
// (Delta := Pts): deferred constraints are idempotent (copy edges,
// call graph edges and object insertion all dedup), so re-delivery
// trades a little work for not tracking per-constraint Done sets.
//
//===----------------------------------------------------------------------===//

#include "pta/PointsTo.h"

#include "cg/CHA.h"
#include "support/Worklist.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <set>
#include <tuple>
#include <unordered_set>

using namespace tsl;

std::string SolverStats::str() const {
  char Buf[512];
  snprintf(Buf, sizeof(Buf),
           "pta: %u nodes (%u reps), %u copy edges, %u constraints, "
           "%u objects\n"
           "pta: %llu pops, %llu propagations (%llu no-change), "
           "%llu delta bits moved, %llu constraint evals\n"
           "pta: %u cycles collapsed, %u nodes merged\n"
           "pta: solve %.6fs, finalize %.6fs\n"
           "pta: %llu set words touched\n",
           NumNodes, NumRepNodes, NumCopyEdges, NumConstraints, NumObjects,
           static_cast<unsigned long long>(WorklistPops),
           static_cast<unsigned long long>(Propagations),
           static_cast<unsigned long long>(NoChangePropagations),
           static_cast<unsigned long long>(DeltaBitsMoved),
           static_cast<unsigned long long>(ConstraintEvals), CyclesCollapsed,
           NodesMerged, SolveSeconds, FinalizeSeconds,
           static_cast<unsigned long long>(SetWordsTouched));
  return Buf;
}

namespace {

/// Worklist-based subset solver with on-the-fly call graph.
class Solver final : public PointsToResult {
public:
  /// \p Reference selects the naive full-set FIFO solver.
  Solver(Program &P, const PTAOptions &Opts, bool Reference)
      : P(P), Opts(Opts), Reference(Reference), CH(P) {}

  void run();

  //===------------------------------------------------------------------===//
  // PointsToResult
  //===------------------------------------------------------------------===//

  const std::vector<AbstractObject> &objects() const override {
    return Objects;
  }

  unsigned contextObject(unsigned Ctx) const override {
    return Ctx < CtxObject.size() ? CtxObject[Ctx] : ~0u;
  }

  const SparseBitSet &pointsTo(const Local *L) const override {
    if (Coarse)
      return isPointer(L) ? AllObjects : EmptySet;
    auto It = Merged.find(L);
    return It == Merged.end() ? EmptySet : *It->second;
  }

  const SparseBitSet &pointsTo(const Local *L, unsigned Ctx) const override {
    if (Coarse)
      return isPointer(L) ? AllObjects : EmptySet;
    auto ByCtx = LocalNodes.find(L);
    if (ByCtx == LocalNodes.end())
      return EmptySet;
    auto It = ByCtx->second.find(Ctx);
    return It == ByCtx->second.end() ? EmptySet
                                     : Nodes[findConst(It->second)].Pts;
  }

  const CallGraph &callGraph() const override {
    return Coarse ? *CoarseCG : CG;
  }
  const ClassHierarchy &hierarchy() const override { return CH; }

  bool castCannotFail(const CastInstr *Cast) const override {
    const SparseBitSet &Pts = pointsTo(Cast->src());
    bool Safe = true;
    Pts.forEach([&](unsigned ObjId) {
      if (!CH.isSubtype(Objects[ObjId].Ty, Cast->targetType()))
        Safe = false;
    });
    return Safe;
  }

  unsigned numConstraintNodes() const override {
    return static_cast<unsigned>(Nodes.size());
  }

  const SolverStats &stats() const override { return Stats; }

  const StageReport &report() const override { return Report; }

  PTAUpdateResult applyIncrementalUpdate(const PTAUpdateRequest &Req) override;

private:
  struct NodeData {
    SparseBitSet Pts;
    /// Objects added since this node last propagated (difference
    /// propagation only).
    SparseBitSet Delta;
    /// Copy edges: (target node, optional type filter for casts).
    /// Targets may be stale after cycle collapsing; resolve through
    /// find() before use.
    std::vector<std::pair<unsigned, const Type *>> Succs;
    /// Indices of constraints triggered by this node's points-to set.
    std::vector<unsigned> Cons;
  };

  struct Constraint {
    enum class Kind { Load, Store, ArrLoad, ArrStore, Call } K;
    const Instr *I;
    unsigned Ctx; ///< Context of the method containing I.
  };

  //===------------------------------------------------------------------===//
  // Union-find over constraint-graph nodes (cycle collapsing)
  //===------------------------------------------------------------------===//

  unsigned find(unsigned N) {
    while (Rep[N] != N) {
      Rep[N] = Rep[Rep[N]]; // Path halving.
      N = Rep[N];
    }
    return N;
  }

  unsigned findConst(unsigned N) const {
    while (Rep[N] != N)
      N = Rep[N];
    return N;
  }

  /// Merges \p B into \p A (both resolved to representatives) and
  /// schedules a conservative re-delivery of the merged set.
  unsigned unify(unsigned A, unsigned B) {
    A = find(A);
    B = find(B);
    if (A == B)
      return A;
    Rep[B] = A;
    NodeData &NA = Nodes[A];
    NodeData &NB = Nodes[B];
    NA.Pts.unionWith(NB.Pts);
    NA.Succs.insert(NA.Succs.end(), NB.Succs.begin(), NB.Succs.end());
    NA.Cons.insert(NA.Cons.end(), NB.Cons.begin(), NB.Cons.end());
    NB = NodeData(); // Release the merged node's storage.
    NA.Delta = NA.Pts;
    ++Stats.NodesMerged;
    pushNode(A);
    return A;
  }

  //===------------------------------------------------------------------===//
  // Worklist: topological priorities, or FIFO for the reference solver
  //===------------------------------------------------------------------===//

  void pushNode(unsigned N) {
    N = find(N);
    if (Reference)
      FifoWL.push(N);
    else
      PrioWL.push(N);
  }

  unsigned popNode() { return Reference ? FifoWL.pop() : PrioWL.pop(); }

  bool worklistEmpty() const {
    return Reference ? FifoWL.empty() : PrioWL.empty();
  }

  /// Recomputes topological priorities (reverse postorder over the
  /// rep-resolved copy edge graph). Called when enough edges were
  /// added since the last sort that the old order is stale.
  void recomputeTopoPriorities();

  //===------------------------------------------------------------------===//
  // Node management
  //===------------------------------------------------------------------===//

  unsigned newNode() {
    unsigned Id = static_cast<unsigned>(Nodes.size());
    Nodes.emplace_back();
    Rep.push_back(Id);
    if (!Reference)
      PrioWL.setPriority(Id, TopoPrioBase + Id);
    return Id;
  }

  unsigned localNode(const Local *L, unsigned Ctx) {
    auto [It, New] = LocalNodes[L].emplace(Ctx, 0);
    if (New)
      It->second = newNode();
    return It->second;
  }

  unsigned fieldNode(unsigned Obj, const Field *F) {
    // Exact: both components get 32 disjoint bits.
    uint64_t Key = (static_cast<uint64_t>(Obj) << 32) | F->id();
    auto [It, New] = FieldNodes.emplace(Key, 0);
    if (New)
      It->second = newNode();
    return It->second;
  }

  unsigned elemNode(unsigned Obj) {
    auto [It, New] = ElemNodes.emplace(Obj, 0);
    if (New)
      It->second = newNode();
    return It->second;
  }

  unsigned staticNode(const Field *F) {
    auto [It, New] = StaticNodes.emplace(F, 0);
    if (New)
      It->second = newNode();
    return It->second;
  }

  unsigned retNode(const Method *M, unsigned Ctx) {
    // Exact: both components get 32 disjoint bits.
    uint64_t Key = (static_cast<uint64_t>(M->id()) << 32) | Ctx;
    auto [It, New] = RetNodes.emplace(Key, 0);
    if (New)
      It->second = newNode();
    return It->second;
  }

  //===------------------------------------------------------------------===//
  // Objects and contexts
  //===------------------------------------------------------------------===//

  unsigned getObject(const Instr *Site, unsigned AllocCtx, const Type *Ty) {
    auto [It, New] = ObjIndex[Site].emplace(AllocCtx, 0);
    if (!New)
      return It->second;
    unsigned Depth = 0;
    if (AllocCtx != 0)
      Depth = Objects[CtxObject[AllocCtx]].CtxDepth + 1;
    unsigned Id = static_cast<unsigned>(Objects.size());
    Objects.push_back({Site, AllocCtx, Ty, Depth, Id});
    It->second = Id;
    return Id;
  }

  unsigned ctxForObject(unsigned Obj) {
    auto [It, New] = ObjCtx.emplace(Obj, 0);
    if (New) {
      It->second = static_cast<unsigned>(CtxObject.size());
      CtxObject.push_back(Obj);
    }
    return It->second;
  }

  bool isContainerClass(const ClassDef *C) const {
    return C && C->id() < IsContainer.size() && IsContainer[C->id()];
  }

  //===------------------------------------------------------------------===//
  // Propagation primitives
  //===------------------------------------------------------------------===//

  void addObject(unsigned Node, unsigned Obj) {
    unsigned N = find(Node);
    if (Nodes[N].Pts.insert(Obj)) {
      Nodes[N].Delta.insert(Obj);
      pushNode(N);
    }
  }

  /// Unions \p From (filtered by \p Filter) into \p Dst's set;
  /// returns true when \p Dst changed. \p Dst must be a
  /// representative.
  bool flowInto(unsigned Dst, const SparseBitSet &From, const Type *Filter) {
    NodeData &D = Nodes[Dst];
    if (&From == &D.Pts)
      return false; // Self-union is a no-op (and would mutate during forEach).
    bool Changed = false;
    if (!Filter) {
      Changed = D.Pts.unionWithReturningChanged(From, D.Delta);
    } else {
      From.forEach([&](unsigned Obj) {
        if (CH.isSubtype(Objects[Obj].Ty, Filter) && D.Pts.insert(Obj)) {
          D.Delta.insert(Obj);
          Changed = true;
        }
      });
    }
    if (Changed) {
      ++Stats.Propagations;
      pushNode(Dst);
    } else {
      ++Stats.NoChangePropagations;
    }
    return Changed;
  }

  void addCopyEdge(unsigned Src, unsigned Dst, const Type *Filter = nullptr) {
    Src = find(Src);
    Dst = find(Dst);
    if (Src == Dst && !Filter)
      return;
    for (const auto &[Existing, F] : Nodes[Src].Succs)
      if (find(Existing) == Dst && F == Filter)
        return;
    Nodes[Src].Succs.emplace_back(Dst, Filter);
    ++NumCopyEdges;
    // Seed the new edge with the full current set so delta
    // propagation never misses objects that arrived before the edge.
    flowInto(Dst, Nodes[Src].Pts, Filter);
  }

  void attachConstraint(unsigned Node, Constraint::Kind K, const Instr *I,
                        unsigned Ctx) {
    Node = find(Node);
    Constraints.push_back({K, I, Ctx});
    unsigned Idx = static_cast<unsigned>(Constraints.size() - 1);
    Nodes[Node].Cons.push_back(Idx);
    // Seed with the full current set (same reasoning as addCopyEdge).
    applyConstraint(Idx, Nodes[Node].Pts);
  }

  void applyConstraint(unsigned ConsIdx, const SparseBitSet &Pts);
  void applyCall(const CallInstr *Call, unsigned CallerCtx, unsigned Obj);

  //===------------------------------------------------------------------===//
  // Lazy cycle detection
  //===------------------------------------------------------------------===//

  void maybeDetectCycle(unsigned Src, unsigned Dst);
  void collapseCyclesFrom(unsigned Start);

  //===------------------------------------------------------------------===//
  // Method processing
  //===------------------------------------------------------------------===//

  void solveLoop(BudgetGate &Gate);
  void finalizeMerged();
  void degradeToCoarse(const BudgetGate &Gate);
  void processMethodCtx(unsigned MCId);
  void processInstr(const Instr *I, Method *M, unsigned Ctx, unsigned MCId);
  void wireCall(unsigned CallerMC, const CallInstr *Call, unsigned CallerCtx,
                Method *Target, unsigned CalleeCtx, unsigned BindObj,
                bool BindReceiverObject);

  const std::vector<Local *> &paramLocals(const Method *M);

  static bool isPointer(const Local *L) { return L->type()->isReference(); }

  //===------------------------------------------------------------------===//
  // State
  //===------------------------------------------------------------------===//

  Program &P;
  PTAOptions Opts;
  const bool Reference;
  ClassHierarchy CH;
  CallGraph CG;

  std::vector<AbstractObject> Objects;
  std::unordered_map<const Instr *, std::unordered_map<unsigned, unsigned>>
      ObjIndex;

  std::vector<NodeData> Nodes;
  std::vector<unsigned> Rep; ///< Union-find parents; Rep[n]==n for reps.
  std::unordered_map<const Local *, std::unordered_map<unsigned, unsigned>>
      LocalNodes;
  std::unordered_map<uint64_t, unsigned> FieldNodes;
  std::unordered_map<unsigned, unsigned> ElemNodes;
  std::unordered_map<const Field *, unsigned> StaticNodes;
  std::unordered_map<uint64_t, unsigned> RetNodes;

  std::vector<Constraint> Constraints;
  Worklist FifoWL;
  PriorityWorklist PrioWL;
  uint64_t TopoPrioBase = 0; ///< Offset for nodes born after a sort.
  unsigned NumCopyEdges = 0;
  unsigned TopoResortAt = 32; ///< Edge count that triggers a re-sort.
  std::unordered_set<uint64_t> LCDTried; ///< (src,dst) rep pairs checked.
  std::vector<bool> ProcessedMC;

  std::vector<unsigned> CtxObject = {~0u}; ///< Ctx id -> defining object.
  std::unordered_map<unsigned, unsigned> ObjCtx;
  std::vector<bool> IsContainer;

  std::unordered_map<const Method *, std::vector<Local *>> ParamCache;
  /// Context-merged per-local sets for pointsTo(L). A local with one
  /// context points at its node's set; only a local with several
  /// contexts points into MergedOwned, which holds the union.
  std::unordered_map<const Local *, const SparseBitSet *> Merged;
  std::unordered_map<const Local *, SparseBitSet> MergedOwned;
  SolverStats Stats;
  StageReport Report{"pta", StageStatus::Complete, "", "", 0, 0};
  SparseBitSet EmptySet;

  /// Coarse-fallback state (budget exhaustion): every reference local
  /// points to every allocation site, and dispatch comes from the
  /// budget-independent CHA call graph.
  bool Coarse = false;
  std::unique_ptr<CallGraph> CoarseCG;
  SparseBitSet AllObjects;
};

} // namespace

const std::vector<Local *> &Solver::paramLocals(const Method *M) {
  auto It = ParamCache.find(M);
  if (It != ParamCache.end())
    return It->second;
  std::vector<Local *> Params(M->numFormals(), nullptr);
  if (M->entry())
    for (const auto &I : M->entry()->instrs())
      if (const auto *PI = dyn_cast<ParamInstr>(I.get()))
        Params[PI->index()] = PI->dest();
  return ParamCache.emplace(M, std::move(Params)).first->second;
}

void Solver::run() {
  auto SolveStart = std::chrono::steady_clock::now();
  const uint64_t WordsAtStart = SparseBitSet::wordsTouched();

  // Mark container classes by name.
  IsContainer.assign(P.classes().size(), false);
  if (Opts.ObjSensContainers) {
    for (const std::string &Name : Opts.ContainerClasses) {
      Symbol Sym = P.strings().lookup(Name);
      if (!Sym)
        continue;
      if (ClassDef *C = P.findClass(Sym))
        IsContainer[C->id()] = true;
    }
  }

  Method *Main = P.mainMethod();
  assert(Main && "points-to analysis needs an entry point");
  unsigned Entry = CG.getOrCreateNode(Main, 0);
  ProcessedMC.resize(1, false);
  processMethodCtx(Entry);

  BudgetGate Gate(Opts.Budget, "pta.solve",
                  Opts.Budget ? Opts.Budget->MaxPtaPropagations : 0);
  solveLoop(Gate);

  auto SolveEnd = std::chrono::steady_clock::now();

  if (Gate.exhausted()) {
    degradeToCoarse(Gate);
  } else {
    finalizeMerged();
  }

  auto FinalizeEnd = std::chrono::steady_clock::now();
  Stats.SetWordsTouched = SparseBitSet::wordsTouched() - WordsAtStart;

  Stats.NumNodes = static_cast<unsigned>(Nodes.size());
  Stats.NumRepNodes = 0;
  for (unsigned I = 0, E = static_cast<unsigned>(Rep.size()); I != E; ++I)
    Stats.NumRepNodes += Rep[I] == I;
  Stats.NumCopyEdges = NumCopyEdges;
  Stats.NumConstraints = static_cast<unsigned>(Constraints.size());
  Stats.NumObjects = static_cast<unsigned>(Objects.size());
  Stats.SolveSeconds =
      std::chrono::duration<double>(SolveEnd - SolveStart).count();
  Stats.FinalizeSeconds =
      std::chrono::duration<double>(FinalizeEnd - SolveEnd).count();
  Report.StepsUsed = Stats.Propagations;
  Report.Seconds = Stats.SolveSeconds + Stats.FinalizeSeconds;
}

/// Budget fallback: discard the partial subset solution and switch to
/// the coarsest sound answer — a CHA call graph (independent of
/// points-to facts) and an all-heap points-to relation where every
/// reference local may point to every allocation site in the program.
/// Both over-approximate any subset-based fixed point, so clients
/// (ModRef, SDG aliasing, dispatch) stay sound, just imprecise.
void Solver::degradeToCoarse(const BudgetGate &Gate) {
  Coarse = true;
  CoarseCG = buildCHACallGraph(P, CH);

  // Rebuild the object table from scratch: one context-insensitive
  // abstract object per allocation site, covering every method (a
  // superset of any reachable-code scan).
  Objects.clear();
  ObjIndex.clear();
  ObjCtx.clear();
  CtxObject.assign(1, ~0u);
  TypeTable &TT = P.types();
  for (const auto &M : P.methods())
    for (const Instr *I : M->instrs())
      switch (I->kind()) {
      case InstrKind::New:
        getObject(I, 0, TT.classType(cast<NewInstr>(I)->allocatedClass()));
        break;
      case InstrKind::NewArray:
        getObject(I, 0, TT.arrayType(cast<NewArrayInstr>(I)->elementType()));
        break;
      case InstrKind::ConstString:
        getObject(I, 0, TT.stringType());
        break;
      case InstrKind::Read:
        if (cast<ReadInstr>(I)->readKind() == ReadKind::Line)
          getObject(I, 0, TT.stringType());
        break;
      case InstrKind::StrOp:
        if (cast<StrOpInstr>(I)->allocatesString())
          getObject(I, 0, TT.stringType());
        break;
      default:
        break;
      }

  AllObjects.clear();
  for (unsigned Id = 0, E = static_cast<unsigned>(Objects.size()); Id != E;
       ++Id)
    AllObjects.insert(Id);

  Report.Status = StageStatus::Degraded;
  Report.Reason = Gate.reason();
  Report.Fallback = "CHA call graph + all-heap points-to";
}

/// Publishes the context-merged per-local sets that pointsTo(L)
/// answers, after fully compressing the union-find so post-solve
/// queries are O(depth 1). A local seen in one context shares its
/// node's set; only a local with several contexts gets a merged copy,
/// whose storage recycles across incremental updates. The copy is
/// built from the sorted ids of all its contexts' sets: a container
/// method's `this` has one context per receiver, each holding one
/// object, and unioning those one at a time in context order would
/// insert words mid-set, quadratic in the number of receivers.
void Solver::finalizeMerged() {
  for (unsigned I = 0, E = static_cast<unsigned>(Rep.size()); I != E; ++I)
    Rep[I] = find(I);
  Merged.clear();
  Merged.reserve(LocalNodes.size());
  for (auto &KV : MergedOwned)
    KV.second.clear();
  std::vector<unsigned> Ids;
  for (const auto &[L, ByCtx] : LocalNodes) {
    if (ByCtx.size() == 1) {
      Merged.emplace(L, &Nodes[Rep[ByCtx.begin()->second]].Pts);
      continue;
    }
    Ids.clear();
    for (const auto &KV : ByCtx)
      Nodes[Rep[KV.second]].Pts.forEach(
          [&](unsigned Obj) { Ids.push_back(Obj); });
    std::sort(Ids.begin(), Ids.end());
    SparseBitSet &Union = MergedOwned[L];
    for (unsigned Obj : Ids)
      Union.insert(Obj);
    Merged.emplace(L, &Union);
  }
}

void Solver::solveLoop(BudgetGate &Gate) {
  // Hoisted scratch buffers: the loop body runs once per worklist pop
  // and must not allocate on the happy path.
  SparseBitSet Moved;
  std::vector<std::pair<unsigned, const Type *>> Succs;
  std::vector<unsigned> Cons;

  while (!worklistEmpty()) {
    if (Gate.poll(Stats.Propagations))
      return; // Budget exhausted; run() degrades to the coarse result.
    if (!Reference && NumCopyEdges >= TopoResortAt)
      recomputeTopoPriorities();

    unsigned N = find(popNode());
    ++Stats.WorklistPops;

    // What this visit pushes downstream: the delta accumulated since
    // the node's last visit, or (reference solver) the full set. The
    // swap recycles the drained delta's storage into the node.
    Moved.clear();
    std::swap(Moved, Nodes[N].Delta);
    if (Moved.empty())
      continue; // Stale entry (merged away or already drained).
    unsigned MovedCount = Reference ? Nodes[N].Pts.count() : Moved.count();

    // Copy-edge propagation. Copy the edge list: constraint application
    // and cycle collapsing below can mutate node storage.
    Succs = Nodes[N].Succs;
    for (const auto &[DstRaw, Filter] : Succs) {
      unsigned Self = find(N);
      unsigned Dst = find(DstRaw);
      if (Dst == Self && !Filter)
        continue;
      // Re-fetch the source set each iteration: a cycle collapse can
      // move N's data to another representative mid-loop.
      const SparseBitSet &Src = Reference ? Nodes[Self].Pts : Moved;
      bool Changed = flowInto(Dst, Src, Filter);
      Stats.DeltaBitsMoved += MovedCount;
      if (!Changed && !Reference && !Filter)
        maybeDetectCycle(Self, Dst);
    }

    // Complex constraints; same copy discipline. If N was merged away
    // during the edge loop, the representative was pushed with a full
    // re-delivery, which covers these constraints too.
    Cons = Nodes[find(N)].Cons;
    for (unsigned ConsIdx : Cons)
      applyConstraint(ConsIdx, Reference ? Nodes[find(N)].Pts : Moved);
  }
}

//===----------------------------------------------------------------------===//
// Lazy cycle detection
//===----------------------------------------------------------------------===//

void Solver::maybeDetectCycle(unsigned Src, unsigned Dst) {
  if (Src == Dst)
    return;
  // Hardekopf-Lin heuristic: a no-change propagation where source and
  // destination hold *equal* points-to sets is strong cycle evidence
  // (the closing propagation of a converged cycle always looks like
  // this). Unequal sets -- the common acyclic case -- are dismissed
  // with a word-level compare and may legitimately re-trigger later
  // once the sets have equalized.
  if (Nodes[Src].Pts.empty() || !(Nodes[Src].Pts == Nodes[Dst].Pts))
    return;
  // One SCC traversal per (src,dst) representative pair.
  uint64_t Key = (static_cast<uint64_t>(Src) << 32) | Dst;
  if (!LCDTried.insert(Key).second)
    return;
  collapseCyclesFrom(Dst);
}

void Solver::collapseCyclesFrom(unsigned Start) {
  // Iterative Tarjan SCC over the rep-resolved unfiltered copy-edge
  // subgraph reachable from Start. Collapses every nontrivial SCC
  // found (not only the one the triggering edge closes).
  struct Frame {
    unsigned Node;
    size_t SuccIdx;
  };
  std::unordered_map<unsigned, unsigned> Index, Low;
  std::vector<unsigned> TarjanStack;
  std::unordered_set<unsigned> OnStack;
  std::vector<Frame> DFS;
  std::vector<std::vector<unsigned>> SCCs;
  unsigned NextIndex = 0;

  Start = find(Start);
  DFS.push_back({Start, 0});
  Index[Start] = Low[Start] = NextIndex++;
  TarjanStack.push_back(Start);
  OnStack.insert(Start);

  while (!DFS.empty()) {
    Frame &F = DFS.back();
    unsigned V = F.Node;
    if (F.SuccIdx < Nodes[V].Succs.size()) {
      const auto &[WRaw, Filter] = Nodes[V].Succs[F.SuccIdx++];
      if (Filter)
        continue; // Cast edges are not identity flow; never collapse.
      unsigned W = find(WRaw);
      if (W == V)
        continue;
      auto It = Index.find(W);
      if (It == Index.end()) {
        Index[W] = Low[W] = NextIndex++;
        TarjanStack.push_back(W);
        OnStack.insert(W);
        DFS.push_back({W, 0});
      } else if (OnStack.count(W)) {
        Low[V] = std::min(Low[V], It->second);
      }
      continue;
    }
    // V is finished.
    if (Low[V] == Index[V]) {
      std::vector<unsigned> SCC;
      while (true) {
        unsigned W = TarjanStack.back();
        TarjanStack.pop_back();
        OnStack.erase(W);
        SCC.push_back(W);
        if (W == V)
          break;
      }
      if (SCC.size() > 1)
        SCCs.push_back(std::move(SCC));
    }
    DFS.pop_back();
    if (!DFS.empty()) {
      Frame &Parent = DFS.back();
      Low[Parent.Node] = std::min(Low[Parent.Node], Low[V]);
    }
  }

  // Collapse after the traversal: unify mutates the edge lists the
  // DFS iterates.
  for (const std::vector<unsigned> &SCC : SCCs) {
    ++Stats.CyclesCollapsed;
    unsigned A = SCC.front();
    for (size_t I = 1; I != SCC.size(); ++I)
      A = unify(A, SCC[I]);
  }
}

void Solver::recomputeTopoPriorities() {
  // Reverse postorder of the rep-resolved copy edge graph
  // approximates a topological order (cycles get arbitrary but stable
  // relative positions). Nodes created after this sort queue behind
  // everything sorted here.
  unsigned NN = static_cast<unsigned>(Nodes.size());
  std::vector<uint8_t> State(NN, 0); // 0 = unseen, 1 = open, 2 = done.
  std::vector<unsigned> Postorder;
  Postorder.reserve(NN);
  std::vector<std::pair<unsigned, size_t>> Stack;

  for (unsigned Root = 0; Root != NN; ++Root) {
    if (find(Root) != Root || State[Root])
      continue;
    Stack.push_back({Root, 0});
    State[Root] = 1;
    while (!Stack.empty()) {
      auto &[V, SuccIdx] = Stack.back();
      if (SuccIdx < Nodes[V].Succs.size()) {
        unsigned W = find(Nodes[V].Succs[SuccIdx++].first);
        if (!State[W]) {
          State[W] = 1;
          Stack.push_back({W, 0});
        }
      } else {
        State[V] = 2;
        Postorder.push_back(V);
        Stack.pop_back();
      }
    }
  }

  uint64_t Prio = 0;
  for (auto It = Postorder.rbegin(), E = Postorder.rend(); It != E; ++It)
    PrioWL.setPriority(*It, Prio++);
  TopoPrioBase = Prio;
  TopoResortAt = NumCopyEdges + NumCopyEdges / 4 + 16;
}

//===----------------------------------------------------------------------===//
// Constraint-graph construction
//===----------------------------------------------------------------------===//

void Solver::processMethodCtx(unsigned MCId) {
  if (MCId >= ProcessedMC.size())
    ProcessedMC.resize(MCId + 1, false);
  if (ProcessedMC[MCId])
    return;
  ProcessedMC[MCId] = true;

  // Copy: node storage reallocates as nested processing adds nodes.
  const MethodCtx MC = CG.node(MCId);
  Method *M = MC.M;
  if (!M->entry())
    return;
  for (const auto &BB : M->blocks())
    for (const auto &I : BB->instrs())
      processInstr(I.get(), M, MC.Ctx, MCId);
}

void Solver::processInstr(const Instr *I, Method *M, unsigned Ctx,
                          unsigned MCId) {
  TypeTable &TT = P.types();
  switch (I->kind()) {
  case InstrKind::New: {
    const auto *NI = cast<NewInstr>(I);
    unsigned Obj =
        getObject(I, Ctx, TT.classType(NI->allocatedClass()));
    addObject(localNode(I->dest(), Ctx), Obj);
    return;
  }
  case InstrKind::NewArray: {
    const auto *NA = cast<NewArrayInstr>(I);
    unsigned Obj = getObject(I, Ctx, TT.arrayType(NA->elementType()));
    addObject(localNode(I->dest(), Ctx), Obj);
    return;
  }
  case InstrKind::ConstString: {
    unsigned Obj = getObject(I, Ctx, TT.stringType());
    addObject(localNode(I->dest(), Ctx), Obj);
    return;
  }
  case InstrKind::Read:
    if (cast<ReadInstr>(I)->readKind() == ReadKind::Line) {
      unsigned Obj = getObject(I, Ctx, TT.stringType());
      addObject(localNode(I->dest(), Ctx), Obj);
    }
    return;
  case InstrKind::StrOp: {
    const auto *SO = cast<StrOpInstr>(I);
    if (SO->allocatesString()) {
      unsigned Obj = getObject(I, Ctx, TT.stringType());
      addObject(localNode(I->dest(), Ctx), Obj);
    }
    return;
  }
  case InstrKind::Move: {
    const auto *MV = cast<MoveInstr>(I);
    if (isPointer(MV->dest()))
      addCopyEdge(localNode(MV->src(), Ctx), localNode(MV->dest(), Ctx));
    return;
  }
  case InstrKind::Cast: {
    const auto *C = cast<CastInstr>(I);
    if (isPointer(C->dest()))
      addCopyEdge(localNode(C->src(), Ctx), localNode(C->dest(), Ctx),
                  C->targetType());
    return;
  }
  case InstrKind::Phi: {
    const auto *Phi = cast<PhiInstr>(I);
    if (!isPointer(Phi->dest()))
      return;
    for (const Local *Op : Phi->operands())
      addCopyEdge(localNode(Op, Ctx), localNode(Phi->dest(), Ctx));
    return;
  }
  case InstrKind::Load: {
    const auto *L = cast<LoadInstr>(I);
    if (!isPointer(L->dest()))
      return;
    if (L->isStaticAccess())
      addCopyEdge(staticNode(L->field()), localNode(L->dest(), Ctx));
    else
      attachConstraint(localNode(L->base(), Ctx), Constraint::Kind::Load, I,
                       Ctx);
    return;
  }
  case InstrKind::Store: {
    const auto *S = cast<StoreInstr>(I);
    if (!isPointer(S->src()))
      return;
    if (S->isStaticAccess())
      addCopyEdge(localNode(S->src(), Ctx), staticNode(S->field()));
    else
      attachConstraint(localNode(S->base(), Ctx), Constraint::Kind::Store, I,
                       Ctx);
    return;
  }
  case InstrKind::ArrayLoad: {
    const auto *AL = cast<ArrayLoadInstr>(I);
    if (isPointer(AL->dest()))
      attachConstraint(localNode(AL->array(), Ctx),
                       Constraint::Kind::ArrLoad, I, Ctx);
    return;
  }
  case InstrKind::ArrayStore: {
    const auto *AS = cast<ArrayStoreInstr>(I);
    if (isPointer(AS->src()))
      attachConstraint(localNode(AS->array(), Ctx),
                       Constraint::Kind::ArrStore, I, Ctx);
    return;
  }
  case InstrKind::Call: {
    const auto *C = cast<CallInstr>(I);
    if (C->target()->isStatic()) {
      unsigned CalleeNode = CG.getOrCreateNode(C->target(), 0);
      CG.addEdge(MCId, C, CalleeNode);
      processMethodCtx(CalleeNode);
      wireCall(MCId, C, Ctx, C->target(), 0, /*BindObj=*/~0u,
               /*BindReceiverObject=*/false);
    } else {
      attachConstraint(localNode(C->receiver(), Ctx), Constraint::Kind::Call,
                       I, Ctx);
    }
    return;
  }
  case InstrKind::Ret: {
    const auto *R = cast<RetInstr>(I);
    if (R->src() && isPointer(R->src()))
      addCopyEdge(localNode(R->src(), Ctx), retNode(M, Ctx));
    return;
  }
  default:
    return; // Scalar computation, terminators, effects: no pointers.
  }
}

/// Wires argument/return copy edges for one resolved call edge. When
/// \p BindReceiverObject is set, only \p BindObj flows into the callee
/// `this` (the object-sensitive receiver filter); argument and return
/// edges are ordinary subset edges.
void Solver::wireCall(unsigned CallerMC, const CallInstr *Call,
                      unsigned CallerCtx, Method *Target, unsigned CalleeCtx,
                      unsigned BindObj, bool BindReceiverObject) {
  (void)CallerMC;
  const std::vector<Local *> &Formals = paramLocals(Target);
  unsigned FormalBase = 0;
  if (!Target->isStatic()) {
    FormalBase = 1;
    if (BindReceiverObject && Formals[0] && isPointer(Formals[0]))
      addObject(localNode(Formals[0], CalleeCtx), BindObj);
  }
  for (unsigned ArgIdx = 0; ArgIdx != Call->numArgs(); ++ArgIdx) {
    Local *Formal = FormalBase + ArgIdx < Formals.size()
                        ? Formals[FormalBase + ArgIdx]
                        : nullptr;
    if (!Formal || !isPointer(Formal))
      continue;
    addCopyEdge(localNode(Call->arg(ArgIdx), CallerCtx),
                localNode(Formal, CalleeCtx));
  }
  if (Call->dest() && isPointer(Call->dest()) &&
      !Target->returnType()->isVoid())
    addCopyEdge(retNode(Target, CalleeCtx),
                localNode(Call->dest(), CallerCtx));
}

void Solver::applyCall(const CallInstr *Call, unsigned CallerCtx,
                       unsigned Obj) {
  const AbstractObject &O = Objects[Obj];

  Method *Target = nullptr;
  if (Call->isVirtual()) {
    if (!O.Ty->isClass())
      return; // Strings/arrays have no user methods.
    Target = CH.resolveVirtual(O.Ty->classDef(), Call->target());
  } else {
    // Statically dispatched instance call (constructor / super): the
    // receiver object must still be type-compatible.
    if (!O.Ty->isClass() ||
        !O.Ty->classDef()->isSubclassOf(Call->target()->owner()))
      return;
    Target = Call->target();
  }
  if (!Target || !Target->entry())
    return;

  unsigned CalleeCtx = 0;
  if (Opts.ObjSensContainers && isContainerClass(Target->owner()) &&
      O.CtxDepth < Opts.MaxObjSensDepth)
    CalleeCtx = ctxForObject(Obj);

  // The caller method context node must exist because the constraint
  // was attached while processing it.
  Method *Caller = Call->parent()->parent();
  int CallerMC = CG.findNode(Caller, CallerCtx);
  assert(CallerMC >= 0 && "call constraint from unprocessed method");

  unsigned CalleeNode = CG.getOrCreateNode(Target, CalleeCtx);
  CG.addEdge(static_cast<unsigned>(CallerMC), Call, CalleeNode);
  processMethodCtx(CalleeNode);
  wireCall(static_cast<unsigned>(CallerMC), Call, CallerCtx, Target,
           CalleeCtx, Obj, /*BindReceiverObject=*/true);
}

void Solver::applyConstraint(unsigned ConsIdx, const SparseBitSet &Pts) {
  // Pts is the delta since the node's last visit, or the node's full
  // set in the reference solver. Either way the
  // handlers below are idempotent (edge/object insertion all dedups),
  // so over-delivery — e.g. the full re-delivery after a cycle
  // collapse — is safe, and no per-constraint Done set is needed.
  //
  // Collect the objects first: applying a constraint can attach new
  // constraints/nodes and must not iterate a set that is being
  // mutated elsewhere.
  ++Stats.ConstraintEvals;
  std::vector<unsigned> Objs;
  Pts.forEach([&](unsigned Obj) { Objs.push_back(Obj); });

  for (unsigned Obj : Objs) {
    // Re-fetch: recursion through applyCall may grow the vector.
    Constraint &C = Constraints[ConsIdx];
    const AbstractObject &O = Objects[Obj];
    switch (C.K) {
    case Constraint::Kind::Load: {
      const auto *L = cast<LoadInstr>(C.I);
      if (!O.Ty->isClass() ||
          !O.Ty->classDef()->isSubclassOf(L->field()->owner()))
        break;
      addCopyEdge(fieldNode(Obj, L->field()), localNode(L->dest(), C.Ctx));
      break;
    }
    case Constraint::Kind::Store: {
      const auto *S = cast<StoreInstr>(C.I);
      if (!O.Ty->isClass() ||
          !O.Ty->classDef()->isSubclassOf(S->field()->owner()))
        break;
      addCopyEdge(localNode(S->src(), C.Ctx), fieldNode(Obj, S->field()));
      break;
    }
    case Constraint::Kind::ArrLoad: {
      const auto *AL = cast<ArrayLoadInstr>(C.I);
      if (!O.Ty->isArray())
        break;
      addCopyEdge(elemNode(Obj), localNode(AL->dest(), C.Ctx));
      break;
    }
    case Constraint::Kind::ArrStore: {
      const auto *AS = cast<ArrayStoreInstr>(C.I);
      if (!O.Ty->isArray())
        break;
      addCopyEdge(localNode(AS->src(), C.Ctx), elemNode(Obj));
      break;
    }
    case Constraint::Kind::Call: {
      // Copy out of C: applyCall can grow Constraints (reallocation).
      const auto *Call = cast<CallInstr>(C.I);
      unsigned CallerCtx = C.Ctx;
      applyCall(Call, CallerCtx, Obj);
      break;
    }
    }
  }
}

//===----------------------------------------------------------------------===//
// Incremental update (retract and replay)
//===----------------------------------------------------------------------===//
//
// The update removes every fact whose derivation passes through a
// retired body and replays the new bodies, then re-solves. Soundness
// of the retraction rests on the reset region R being forward-closed
// over copy edges: every node downstream of a cleared fact is itself
// cleared and re-derived, so no node can keep a contribution whose
// premise was retracted. The two derivations that bypass copy edges —
// receiver-object injection at virtual calls and constraint-created
// edges — are covered by, respectively, an explicit re-dispatch
// replay and a post-solve premise-shrink check that falls back to a
// cold solve when a constraint's trigger set lost an object (its
// derived edges could then be stale in a way edge-closure cannot see).

PTAUpdateResult Solver::applyIncrementalUpdate(const PTAUpdateRequest &Req) {
  auto UpdateStart = std::chrono::steady_clock::now();
  const uint64_t WordsAtStart = SparseBitSet::wordsTouched();
  PTAUpdateResult Out;
  auto Fallback = [&](const char *Why) {
    Out.Applied = false;
    Out.Reason = Why;
    return Out;
  };
  if (Coarse || Report.Status != StageStatus::Complete)
    return Fallback("previous solve was degraded");
  if (Opts.Budget)
    return Fallback("budgeted session");
  if (Req.DirtyMethods.empty())
    return Fallback("no dirty methods");

  // Dirty objects: allocation sites inside retired bodies. A dirty
  // object that defines a cloning context would invalidate every
  // context derived through it; decline rather than chase the chain.
  std::unordered_set<unsigned> DirtyObjs;
  for (const AbstractObject &O : Objects)
    if (Req.DeadInstrs.count(O.Site))
      DirtyObjs.insert(O.Id);
  for (unsigned Obj : DirtyObjs)
    if (ObjCtx.count(Obj))
      return Fallback("edit retracts a context-defining object");

  // Zombies: the per-context nodes of retired locals plus the field
  // and element partitions of dirty objects. These are deleted
  // outright; everything they fed is reset and re-derived.
  std::unordered_set<unsigned> Z;
  for (const Local *L : Req.DeadLocals) {
    auto It = LocalNodes.find(L);
    if (It == LocalNodes.end())
      continue;
    for (const auto &[Ctx, N] : It->second) {
      (void)Ctx;
      Z.insert(N);
    }
  }
  for (const auto &[Key, N] : FieldNodes)
    if (DirtyObjs.count(static_cast<unsigned>(Key >> 32)))
      Z.insert(N);
  for (const auto &[Obj, N] : ElemNodes)
    if (DirtyObjs.count(Obj))
      Z.insert(N);

  // A zombie inside a collapsed cycle cannot be carved back out of
  // its representative's merged set; decline. After this check every
  // zombie is a singleton representative.
  if (!Z.empty())
    for (unsigned N = 0, E = static_cast<unsigned>(Nodes.size()); N != E;
         ++N) {
      unsigned R = findConst(N);
      if (R != N && (Z.count(N) || Z.count(R)))
        return Fallback("edit touches a collapsed cycle");
    }

  // Reset region R: forward closure (over rep-resolved copy edges) of
  // the zombies, every current holder of a dirty object (receiver
  // binding injects objects without an edge, so holders are seeds in
  // their own right), and the return nodes of dirty methods (their
  // inflow came from retired locals).
  std::unordered_set<unsigned> RSet;
  std::vector<unsigned> Stack;
  auto Seed = [&](unsigned N) {
    N = find(N);
    if (RSet.insert(N).second)
      Stack.push_back(N);
  };
  for (unsigned ZN : Z)
    Seed(ZN);
  if (!DirtyObjs.empty())
    for (unsigned N = 0, E = static_cast<unsigned>(Nodes.size()); N != E; ++N) {
      if (findConst(N) != N)
        continue;
      bool Holds = false;
      Nodes[N].Pts.forEach([&](unsigned Obj) {
        if (DirtyObjs.count(Obj))
          Holds = true;
      });
      if (Holds)
        Seed(N);
    }
  for (const Method *M : Req.DirtyMethods)
    for (const auto &[Key, N] : RetNodes)
      if (static_cast<unsigned>(Key >> 32) == M->id())
        Seed(N);
  while (!Stack.empty()) {
    unsigned N = Stack.back();
    Stack.pop_back();
    for (const auto &[Dst, F] : Nodes[N].Succs) {
      (void)F;
      Seed(Dst);
    }
  }
  for (unsigned ZN : Z)
    RSet.erase(ZN); // Zombies are cleared, not reset.

  // Snapshots for the post-solve checks and the affected-method set.
  // R-members keep their full old set (they are cleared and must be
  // compared exactly); everything else is monotone under replay, so a
  // cardinality snapshot detects growth. Downstream consumers read
  // per-context sets (the context-insensitive SDG aliases clones with
  // pointsTo(L, Ctx)), so change detection must be per-context, not
  // merged.
  std::unordered_map<unsigned, SparseBitSet> OldRPts;
  std::unordered_set<unsigned> RHadCons;
  for (unsigned N : RSet) {
    OldRPts.emplace(N, Nodes[N].Pts);
    if (!Nodes[N].Cons.empty())
      RHadCons.insert(N);
  }
  // Flat (local, ctx)-keyed snapshot, sorted for binary search in the
  // affected-method pass. A vector beats the obvious nested map here:
  // snapshotting every per-context local is the hot part of the
  // update, and one reserve replaces ~two allocations per entry.
  struct LocalSnap {
    const Local *L;
    unsigned Ctx;
    unsigned OldRep;
    unsigned Count;
    bool WasReset;
  };
  std::vector<LocalSnap> OldLocal;
  {
    size_t Pairs = 0;
    for (const auto &KV : LocalNodes)
      Pairs += KV.second.size();
    OldLocal.reserve(Pairs);
  }
  for (const auto &[L, ByCtx] : LocalNodes)
    for (const auto &[Ctx, Node] : ByCtx) {
      unsigned R = find(Node);
      OldLocal.push_back(
          {L, Ctx, R, Nodes[R].Pts.count(), RSet.count(R) != 0});
    }
  auto SnapLess = [](const LocalSnap &A, const LocalSnap &B) {
    return A.L != B.L ? A.L < B.L : A.Ctx < B.Ctx;
  };
  std::sort(OldLocal.begin(), OldLocal.end(), SnapLess);
  using CGEdgeKey = std::tuple<unsigned, const CallInstr *, unsigned>;
  std::vector<CGEdgeKey> OldCGEdges;
  OldCGEdges.reserve(CG.edges().size());
  for (const CallEdge &E : CG.edges())
    OldCGEdges.emplace_back(E.CallerNode, E.Site, E.CalleeNode);
  std::sort(OldCGEdges.begin(), OldCGEdges.end());

  // Retraction. The published merged sets point into node storage
  // that retraction and replay rewrite, so unpublish them until the
  // finalize below. Edges into zombies are owned by live sources and
  // must be removed edge-wise; edges out of zombies die with their
  // node.
  Merged.clear();
  unsigned EdgesRemoved = 0;
  if (!Z.empty())
    for (unsigned N = 0, E = static_cast<unsigned>(Nodes.size()); N != E;
         ++N) {
      if (find(N) != N || Z.count(N))
        continue;
      auto &Succs = Nodes[N].Succs;
      auto NewEnd = std::remove_if(
          Succs.begin(), Succs.end(),
          [&](const std::pair<unsigned, const Type *> &Edge) {
            return Z.count(find(Edge.first)) != 0;
          });
      EdgesRemoved += static_cast<unsigned>(Succs.end() - NewEnd);
      Succs.erase(NewEnd, Succs.end());
    }
  for (unsigned ZN : Z) {
    EdgesRemoved += static_cast<unsigned>(Nodes[ZN].Succs.size());
    Nodes[ZN] = NodeData();
  }
  NumCopyEdges -= std::min(NumCopyEdges, EdgesRemoved);
  for (const Local *L : Req.DeadLocals) {
    LocalNodes.erase(L);
    Merged.erase(L);
    MergedOwned.erase(L);
  }
  for (auto It = FieldNodes.begin(); It != FieldNodes.end();)
    It = DirtyObjs.count(static_cast<unsigned>(It->first >> 32))
             ? FieldNodes.erase(It)
             : std::next(It);
  for (auto It = ElemNodes.begin(); It != ElemNodes.end();)
    It = DirtyObjs.count(It->first) ? ElemNodes.erase(It) : std::next(It);
  for (const Instr *I : Req.DeadInstrs)
    ObjIndex.erase(I);
  for (const Method *M : Req.DirtyMethods)
    ParamCache.erase(M);
  CG.removeEdgesAtSites(Req.DeadInstrs);

  // Reset survivors of R: facts cleared, structure (edges and
  // constraint attachments, all anchored at live instructions) kept.
  for (unsigned N : RSet) {
    Nodes[N].Pts.clear();
    Nodes[N].Delta.clear();
  }

  // Replay 1: the dirty bodies' constraints, under every context the
  // method already has a call-graph node for. Copy the node list —
  // processing can create nodes and invalidate the reference.
  for (Method *M : Req.DirtyMethods) {
    const std::vector<unsigned> MCs = CG.nodesOf(M);
    for (unsigned MC : MCs)
      if (MC < ProcessedMC.size())
        ProcessedMC[MC] = false;
    for (unsigned MC : MCs)
      processMethodCtx(MC);
  }

  // Replay 1b: argument re-binding for static calls from clean
  // callers into dirty methods. The caller is not reprocessed, and
  // its argument edges targeted the retired formals (zombies), so
  // the relowered formals would otherwise start — and stay — empty.
  // wireCall is idempotent; re-wiring every retained static edge
  // into a dirty method is safe. (Instance calls are re-dispatched
  // by replay 4; dirty callers re-wire their own call sites in
  // replay 1.)
  const std::unordered_set<const Method *> DirtySet(Req.DirtyMethods.begin(),
                                                    Req.DirtyMethods.end());
  {
    const std::vector<CallEdge> EdgeSnapshot = CG.edges();
    for (const CallEdge &E : EdgeSnapshot) {
      if (!E.Site->target()->isStatic())
        continue;
      const MethodCtx Callee = CG.node(E.CalleeNode);
      if (!DirtySet.count(Callee.M))
        continue;
      wireCall(E.CallerNode, E.Site, CG.node(E.CallerNode).Ctx, Callee.M,
               Callee.Ctx, /*BindObj=*/~0u, /*BindReceiverObject=*/false);
    }
  }

  // Replay 2: allocation seeding for unchanged sites whose
  // destination node landed in R (its seeded objects were cleared and
  // nothing else re-creates them). Sorted for deterministic worklist
  // seeding.
  if (!RSet.empty()) {
    std::vector<std::pair<unsigned, unsigned>> Reseeds; // (obj, node)
    for (const auto &[Site, ByCtx] : ObjIndex) {
      const Local *Dest = Site->dest();
      if (!Dest)
        continue;
      auto LIt = LocalNodes.find(Dest);
      if (LIt == LocalNodes.end())
        continue;
      for (const auto &[Ctx, Obj] : ByCtx) {
        auto NIt = LIt->second.find(Ctx);
        if (NIt == LIt->second.end())
          continue;
        if (RSet.count(find(NIt->second)))
          Reseeds.emplace_back(Obj, NIt->second);
      }
    }
    std::sort(Reseeds.begin(), Reseeds.end());
    for (const auto &[Obj, Node] : Reseeds)
      addObject(Node, Obj);
  }

  // Replay 3: re-deliver the facts flowing from untouched nodes into
  // the reset region across existing edges.
  if (!RSet.empty())
    for (unsigned N = 0, E = static_cast<unsigned>(Nodes.size()); N != E;
         ++N) {
      if (find(N) != N || RSet.count(N))
        continue;
      for (const auto &[DstRaw, Filter] : Nodes[N].Succs) {
        unsigned Dst = find(DstRaw);
        if (RSet.count(Dst))
          flowInto(Dst, Nodes[N].Pts, Filter);
      }
    }

  // Replay 4: receiver re-dispatch for retained instance-call edges.
  // Receiver-object injection has no copy edge, so formals that
  // landed in R would otherwise never get their objects back (the
  // caller-side Call constraint only re-fires on a receiver delta).
  // applyCall is idempotent, so replaying every retained edge is
  // safe. When nothing was reset, only edges into dirty methods can
  // have empty formals (fresh nodes from the relower); every other
  // callee's bindings are monotone facts that were never cleared.
  {
    std::set<std::pair<const CallInstr *, unsigned>> Done;
    const std::vector<CallEdge> EdgeSnapshot = CG.edges();
    for (const CallEdge &E : EdgeSnapshot) {
      if (E.Site->target()->isStatic())
        continue;
      if (RSet.empty() && !DirtySet.count(CG.node(E.CalleeNode).M))
        continue;
      if (!Done.insert({E.Site, E.CallerNode}).second)
        continue;
      unsigned CallerCtx = CG.node(E.CallerNode).Ctx;
      const Local *Recv = E.Site->receiver();
      auto LIt = LocalNodes.find(Recv);
      if (LIt == LocalNodes.end())
        continue;
      auto NIt = LIt->second.find(CallerCtx);
      if (NIt == LIt->second.end())
        continue;
      std::vector<unsigned> Objs;
      Nodes[find(NIt->second)].Pts.forEach(
          [&](unsigned O) { Objs.push_back(O); });
      for (unsigned O : Objs)
        applyCall(E.Site, CallerCtx, O);
    }
  }

  // Re-solve to the fixed point. The gate carries no budget — the
  // incremental path is only taken for unbudgeted sessions — but
  // still surfaces injected faults ("pta.update") for the chaos
  // harness: a degrade fault lands in exhausted(), a throw propagates.
  auto SolveStart = std::chrono::steady_clock::now();
  BudgetGate Gate(nullptr, "pta.update", 0);
  solveLoop(Gate);
  auto SolveEnd = std::chrono::steady_clock::now();
  if (Gate.exhausted())
    return Fallback("fault injected during incremental solve");

  // Post-solve check 1: a constraint whose trigger set shrank may
  // have derived edges that no longer have a premise; edge closure
  // cannot retract those, so decline.
  for (const auto &[N, Old] : OldRPts) {
    if (!RHadCons.count(N))
      continue;
    const SparseBitSet &New = Nodes[find(N)].Pts;
    bool Lost = false;
    Old.forEach([&](unsigned Obj) {
      if (!New.test(Obj))
        Lost = true;
    });
    if (Lost)
      return Fallback("constraint premise shrank under retraction");
  }

  // Post-solve check 2: a method whose last call edge was retracted
  // keeps its node and its constraints; a cold solve would never have
  // analyzed it. Identity requires every node stay reachable.
  int Entry = CG.findNode(P.mainMethod(), 0);
  if (Entry < 0 ||
      !CG.allReachableFrom(static_cast<unsigned>(Entry)))
    return Fallback("edit left stale unreachable call-graph nodes");

  // Finalize exactly as run() does.
  auto FinalizeStart = std::chrono::steady_clock::now();
  finalizeMerged();
  auto FinalizeEnd = std::chrono::steady_clock::now();

  // Affected methods: the dirty ones, the owner of every local whose
  // points-to set changed in ANY context, and both endpoints of every
  // added or removed call edge. Downstream stages (mod-ref, SDG)
  // consume per-context local sets and call-graph structure, so this
  // set bounds what they must recompute. Reset nodes compare against
  // their snapshot; everything else is monotone, so cardinality
  // detects growth exactly (the final set is a superset of the old).
  std::set<Method *, bool (*)(Method *, Method *)> Affected(
      +[](Method *A, Method *B) { return A->id() < B->id(); });
  for (Method *M : Req.DirtyMethods)
    Affected.insert(M);
  std::unordered_set<const Local *> ChangedLocals;
  for (const auto &[L, ByCtx] : LocalNodes) {
    for (const auto &[Ctx, Node] : ByCtx) {
      const SparseBitSet &Final = Nodes[find(Node)].Pts;
      LocalSnap Probe{L, Ctx, 0, 0, false};
      auto SIt =
          std::lower_bound(OldLocal.begin(), OldLocal.end(), Probe, SnapLess);
      const LocalSnap *Snap =
          SIt != OldLocal.end() && SIt->L == L && SIt->Ctx == Ctx ? &*SIt
                                                                  : nullptr;
      bool Changed;
      if (!Snap)
        Changed = !Final.empty(); // New local or new context.
      else if (Snap->WasReset)
        Changed = Final != OldRPts.at(Snap->OldRep);
      else
        Changed = Final.count() != Snap->Count;
      if (Changed) {
        ChangedLocals.insert(L);
        break;
      }
    }
  }
  // One sweep resolves changed locals to their owning methods; the
  // per-update Local→Method map this replaces cost more to build than
  // everything else in this pass combined.
  if (!ChangedLocals.empty())
    for (const auto &MP : P.methods()) {
      if (Affected.count(MP.get()))
        continue;
      for (const auto &L : MP->locals())
        if (ChangedLocals.count(L.get())) {
          Affected.insert(MP.get());
          break;
        }
    }
  std::vector<CGEdgeKey> NewCGEdges;
  NewCGEdges.reserve(CG.edges().size());
  for (const CallEdge &E : CG.edges())
    NewCGEdges.emplace_back(E.CallerNode, E.Site, E.CalleeNode);
  std::sort(NewCGEdges.begin(), NewCGEdges.end());
  auto MarkEdge = [&](const CGEdgeKey &Key) {
    Affected.insert(CG.node(std::get<0>(Key)).M);
    Affected.insert(CG.node(std::get<2>(Key)).M);
  };
  // Symmetric difference of the two sorted edge lists.
  {
    auto OI = OldCGEdges.begin(), NI = NewCGEdges.begin();
    while (OI != OldCGEdges.end() || NI != NewCGEdges.end()) {
      if (OI == OldCGEdges.end())
        MarkEdge(*NI++);
      else if (NI == NewCGEdges.end())
        MarkEdge(*OI++);
      else if (*OI < *NI)
        MarkEdge(*OI++);
      else if (*NI < *OI)
        MarkEdge(*NI++);
      else {
        ++OI;
        ++NI;
      }
    }
  }
  Out.AffectedMethods.assign(Affected.begin(), Affected.end());

  // Refresh the public counters; time and work totals accumulate.
  // Report.Seconds covers the whole update, retraction and replays
  // included, not only the fixed-point loop and finalize.
  Stats.NumNodes = static_cast<unsigned>(Nodes.size());
  Stats.NumRepNodes = 0;
  for (unsigned I = 0, E = static_cast<unsigned>(Rep.size()); I != E; ++I)
    Stats.NumRepNodes += Rep[I] == I;
  Stats.NumCopyEdges = NumCopyEdges;
  Stats.NumConstraints = static_cast<unsigned>(Constraints.size());
  Stats.NumObjects = static_cast<unsigned>(Objects.size());
  Stats.SolveSeconds +=
      std::chrono::duration<double>(SolveEnd - SolveStart).count();
  Stats.FinalizeSeconds +=
      std::chrono::duration<double>(FinalizeEnd - FinalizeStart).count();
  Stats.SetWordsTouched += SparseBitSet::wordsTouched() - WordsAtStart;
  Report.StepsUsed = Stats.Propagations;
  Report.Seconds += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - UpdateStart)
                        .count();

  Out.Applied = true;
  return Out;
}

std::unique_ptr<PointsToResult> tsl::runPointsTo(Program &P,
                                                 const PTAOptions &Options) {
  auto S = std::make_unique<Solver>(P, Options, /*Reference=*/false);
  S->run();
  return S;
}

std::unique_ptr<PointsToResult> tsl::runPointsToReference(Program &P) {
  auto S = std::make_unique<Solver>(P, PTAOptions(), /*Reference=*/true);
  S->run();
  return S;
}
