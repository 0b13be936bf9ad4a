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
#include <iterator>
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

/// Class names treated as containers for cloning purposes. The
/// collections' internal node/entry classes are listed too: without
/// them, entry constructors run context-insensitively and merge the
/// stored values across all containers.
constexpr const char *ContainerClasses[] = {
    "Vector",   "ArrayList", "LinkedList", "Stack",
    "HashMap",  "Hashtable", "HashSet",    "Queue",
    "MapEntry", "ListNode",
};

/// Maximum depth of nested allocation contexts (bounds recursion
/// through containers-of-containers).
constexpr unsigned MaxObjSensDepth = 3;

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
    if (It == Merged.end())
      return EmptySet;
    return It->second != ~0u ? Nodes[It->second].Pts : MergedOwned.at(L);
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
    if (Logging) {
      // B's class moves to A; either class grew unless the sets held
      // each other (the usual case: cycles collapse once converged).
      const unsigned CountA = NA.Pts.count(), CountB = NB.Pts.count();
      NA.Pts.unionWith(NB.Pts);
      const unsigned Merged = NA.Pts.count();
      if (Merged != CountA)
        logClass(A, true);
      logClass(B, Merged != CountB);
    } else {
      NA.Pts.unionWith(NB.Pts);
    }
    if (Indexed) {
      std::vector<unsigned> &MA = Members[A];
      MA.push_back(B);
      if (auto It = Members.find(B); It != Members.end()) {
        MA.insert(MA.end(), It->second.begin(), It->second.end());
        Members.erase(It);
      }
      Preds[A].insert(Preds[A].end(), Preds[B].begin(), Preds[B].end());
      Preds[B] = {};
    }
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
    if (Indexed) {
      Preds.emplace_back();
      Origin.emplace_back();
      LogFlags.push_back(0);
    }
    if (!Reference)
      PrioWL.setPriority(Id, TopoPrioBase + Id);
    return Id;
  }

  unsigned localNode(const Local *L, unsigned Ctx) {
    auto [It, New] = LocalNodes[L].emplace(Ctx, 0);
    if (New) {
      It->second = newNode();
      if (Indexed) {
        Origin[It->second] = {L, Ctx};
        if (Logging)
          logRaw(It->second, false); // L's merged entry gains a context.
      }
    }
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
      if (Logging)
        logClass(N, true);
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
      if (Logging)
        logClass(Dst, true);
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
    if (Indexed)
      Preds[Dst].push_back(Src);
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
  /// The method \p Call dispatches to on receiver \p O, or null when
  /// the object cannot receive it.
  Method *dispatchTarget(const CallInstr *Call, const AbstractObject &O) const;
  bool calleeIsCloned(const Method *Target, const AbstractObject &O) const {
    return Opts.ObjSensContainers && isContainerClass(Target->owner()) &&
           O.CtxDepth < MaxObjSensDepth;
  }
  void addCallEdge(unsigned CallerMC, const CallInstr *Call,
                   unsigned CalleeMC) {
    if (CG.addEdge(CallerMC, Call, CalleeMC) && Logging)
      AddedEdges.push_back({CallerMC, Call, CalleeMC});
  }

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
  void publishMerged(const Local *L,
                     const std::unordered_map<unsigned, unsigned> &ByCtx,
                     std::vector<unsigned> &Ids);
  void buildUpdateIndex();
  void logRaw(unsigned N, bool Grew) {
    uint8_t &F = LogFlags[N];
    if (!F)
      Log.push_back(N);
    F |= Grew ? 3 : 1;
  }
  /// Logs representative \p R and every node merged into it.
  void logClass(unsigned R, bool Grew) {
    logRaw(R, Grew);
    if (auto It = Members.find(R); It != Members.end())
      for (unsigned N : It->second)
        logRaw(N, Grew);
  }
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
  /// context names its node (a representative when published); a
  /// local with several contexts maps to ~0u, and MergedOwned holds
  /// its union. Node ids, unlike pointers into Nodes, survive the node
  /// table growing during an update.
  std::unordered_map<const Local *, unsigned> Merged;
  std::unordered_map<const Local *, SparseBitSet> MergedOwned;

  /// Update index: built by the first incremental update, then kept
  /// current by every constraint-graph change, so the cold solve never
  /// pays for it. Preds lists the sources of copy edges into each
  /// representative (raw ids, resolve through find()); Origin names
  /// the (local, context) a node stands for (null for heap and return
  /// nodes); Members lists the nodes merged into each representative
  /// that absorbed others.
  struct NodeOrigin {
    const Local *L = nullptr;
    unsigned Ctx = 0;
  };
  bool Indexed = false;
  std::vector<std::vector<unsigned>> Preds;
  std::vector<NodeOrigin> Origin;
  std::unordered_map<unsigned, std::vector<unsigned>> Members;

  /// Growth log of one update: every node whose class gained objects
  /// (LogFlags bit 2), moved to another representative or was created
  /// (bit 1 only), plus the call edges the update added.
  bool Logging = false;
  std::vector<unsigned> Log;
  std::vector<uint8_t> LogFlags;
  std::vector<CallEdge> AddedEdges;
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
    for (const char *Name : ContainerClasses) {
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
  std::vector<unsigned> Ids;
  for (const auto &[L, ByCtx] : LocalNodes)
    publishMerged(L, ByCtx, Ids);
}

/// Publishes one local's merged entry (see finalizeMerged); \p Ids is
/// scratch. Every context's node must be fully compressed.
void Solver::publishMerged(const Local *L,
                           const std::unordered_map<unsigned, unsigned> &ByCtx,
                           std::vector<unsigned> &Ids) {
  if (ByCtx.size() == 1) {
    Merged[L] = Rep[ByCtx.begin()->second];
    return;
  }
  Ids.clear();
  for (const auto &KV : ByCtx)
    Nodes[Rep[KV.second]].Pts.forEach(
        [&](unsigned Obj) { Ids.push_back(Obj); });
  std::sort(Ids.begin(), Ids.end());
  SparseBitSet &Union = MergedOwned[L];
  Union.clear();
  for (unsigned Obj : Ids)
    Union.insert(Obj);
  Merged[L] = ~0u;
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
      addCallEdge(MCId, C, CalleeNode);
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

Method *Solver::dispatchTarget(const CallInstr *Call,
                               const AbstractObject &O) const {
  Method *Target = nullptr;
  if (Call->isVirtual()) {
    if (!O.Ty->isClass())
      return nullptr; // Strings/arrays have no user methods.
    Target = CH.resolveVirtual(O.Ty->classDef(), Call->target());
  } else {
    // Statically dispatched instance call (constructor / super): the
    // receiver object must still be type-compatible.
    if (!O.Ty->isClass() ||
        !O.Ty->classDef()->isSubclassOf(Call->target()->owner()))
      return nullptr;
    Target = Call->target();
  }
  return Target && Target->entry() ? Target : nullptr;
}

void Solver::applyCall(const CallInstr *Call, unsigned CallerCtx,
                       unsigned Obj) {
  const AbstractObject &O = Objects[Obj];
  Method *Target = dispatchTarget(Call, O);
  if (!Target)
    return;

  unsigned CalleeCtx = 0;
  if (calleeIsCloned(Target, O))
    CalleeCtx = ctxForObject(Obj);

  // The caller method context node must exist because the constraint
  // was attached while processing it.
  Method *Caller = Call->parent()->parent();
  int CallerMC = CG.findNode(Caller, CallerCtx);
  assert(CallerMC >= 0 && "call constraint from unprocessed method");

  unsigned CalleeNode = CG.getOrCreateNode(Target, CalleeCtx);
  addCallEdge(static_cast<unsigned>(CallerMC), Call, CalleeNode);
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

/// Builds the update index (see Solver::Indexed) in one pass over the
/// constraint graph. Runs once, at the first incremental update.
void Solver::buildUpdateIndex() {
  const unsigned NN = static_cast<unsigned>(Nodes.size());
  Preds.assign(NN, {});
  Origin.assign(NN, {});
  LogFlags.assign(NN, 0);
  for (unsigned N = 0; N != NN; ++N) {
    if (find(N) != N)
      Members[find(N)].push_back(N);
    for (const auto &[Dst, F] : Nodes[N].Succs) {
      (void)F;
      Preds[find(Dst)].push_back(N);
    }
  }
  for (const auto &[L, ByCtx] : LocalNodes)
    for (const auto &[Ctx, N] : ByCtx)
      Origin[N] = {L, Ctx};
  Indexed = true;
}

PTAUpdateResult Solver::applyIncrementalUpdate(const PTAUpdateRequest &Req) {
  auto UpdateStart = std::chrono::steady_clock::now();
  const uint64_t WordsAtStart = SparseBitSet::wordsTouched();
  PTAUpdateResult Out;
  auto Fallback = [&](const char *Why) {
    Logging = false;
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
  if (!Indexed) {
    buildUpdateIndex();
    CG.indexInEdges();
  }
  // Work of the passes below, outside the fixed-point loop: nodes,
  // edges, locals and call edges visited (see SolverStats::UpdateWork).
  uint64_t Work = 0;
  const uint64_t PopsAtStart = Stats.WorklistPops;

  // Dirty objects: allocation sites inside retired bodies. A dirty
  // object that defines a cloning context would invalidate every
  // context derived through it; decline rather than chase the chain.
  std::unordered_set<unsigned> DirtyObjs;
  std::vector<const CallInstr *> DeadCalls;
  for (const Instr *I : Req.DeadInstrs) {
    ++Work;
    if (const auto *Call = dyn_cast<CallInstr>(I))
      DeadCalls.push_back(Call);
    auto It = ObjIndex.find(I);
    if (It != ObjIndex.end())
      for (const auto &[Ctx, Obj] : It->second) {
        (void)Ctx;
        DirtyObjs.insert(Obj);
      }
  }
  for (unsigned Obj : DirtyObjs)
    if (ObjCtx.count(Obj))
      return Fallback("edit retracts a context-defining object");

  // Zombies: the per-context nodes of retired locals plus the field
  // and element partitions of dirty objects. These are deleted
  // outright; everything they fed is reset and re-derived.
  std::unordered_set<unsigned> Z;
  for (const Local *L : Req.DeadLocals) {
    ++Work;
    auto It = LocalNodes.find(L);
    if (It == LocalNodes.end())
      continue;
    for (const auto &[Ctx, N] : It->second) {
      (void)Ctx;
      Z.insert(N);
    }
  }
  std::vector<uint64_t> DeadFieldKeys;
  std::vector<unsigned> DeadElemKeys;
  for (unsigned Obj : DirtyObjs) {
    const Type *Ty = Objects[Obj].Ty;
    if (Ty->isArray()) {
      if (auto It = ElemNodes.find(Obj); It != ElemNodes.end()) {
        Z.insert(It->second);
        DeadElemKeys.push_back(Obj);
      }
      continue;
    }
    if (!Ty->isClass())
      continue;
    for (const ClassDef *C = Ty->classDef(); C; C = C->superclass())
      for (const Field *F : C->fields()) {
        ++Work;
        const uint64_t Key = (static_cast<uint64_t>(Obj) << 32) | F->id();
        if (auto It = FieldNodes.find(Key); It != FieldNodes.end()) {
          Z.insert(It->second);
          DeadFieldKeys.push_back(Key);
        }
      }
  }

  // A zombie inside a collapsed cycle cannot be carved back out of
  // its representative's merged set; decline. After this check every
  // zombie is a singleton representative.
  for (unsigned ZN : Z)
    if (find(ZN) != ZN || Members.count(ZN))
      return Fallback("edit touches a collapsed cycle");

  // Reset region R: forward closure (over rep-resolved copy edges) of
  // the zombies, every current holder of a dirty object, and the
  // return nodes of dirty methods (their inflow came from retired
  // locals). Holders need no search of their own: a dirty object
  // spreads from its allocating local (a zombie) along copy edges and
  // by receiver binding, which injects it into a callee's `this`
  // without an edge, so the closure also follows each call constraint
  // on a closure node to the receiver formal a dirty object in its set
  // was bound to.
  std::unordered_set<unsigned> RSet;
  std::vector<unsigned> Stack;
  auto Seed = [&](unsigned N) {
    N = find(N);
    if (RSet.insert(N).second)
      Stack.push_back(N);
  };
  for (unsigned ZN : Z)
    Seed(ZN);
  for (const Method *M : Req.DirtyMethods)
    for (unsigned MC : CG.nodesOf(M)) {
      ++Work;
      const uint64_t Key =
          (static_cast<uint64_t>(M->id()) << 32) | CG.node(MC).Ctx;
      if (auto It = RetNodes.find(Key); It != RetNodes.end())
        Seed(It->second);
    }
  while (!Stack.empty()) {
    unsigned N = Stack.back();
    Stack.pop_back();
    ++Work;
    for (const auto &[Dst, F] : Nodes[N].Succs) {
      (void)F;
      ++Work;
      Seed(Dst);
    }
    if (DirtyObjs.empty())
      continue;
    for (unsigned ConsIdx : Nodes[N].Cons) {
      const Constraint &C = Constraints[ConsIdx];
      if (C.K != Constraint::Kind::Call)
        continue;
      const auto *Call = cast<CallInstr>(C.I);
      for (unsigned Obj : DirtyObjs) {
        ++Work;
        if (!Nodes[N].Pts.test(Obj))
          continue;
        const AbstractObject &O = Objects[Obj];
        Method *Target = dispatchTarget(Call, O);
        if (!Target || Target->isStatic())
          continue;
        // A cloned callee would run in the object's own context, which
        // the check above already declined.
        const unsigned CalleeCtx = calleeIsCloned(Target, O) ? ~0u : 0;
        const Local *This = paramLocals(Target)[0];
        auto LIt = This ? LocalNodes.find(This) : LocalNodes.end();
        if (LIt == LocalNodes.end())
          continue;
        if (auto NIt = LIt->second.find(CalleeCtx); NIt != LIt->second.end())
          Seed(NIt->second);
      }
    }
  }
  for (unsigned ZN : Z)
    RSet.erase(ZN); // Zombies are cleared, not reset.

  // Snapshots for the post-solve checks and the affected-method set:
  // the old set of every reset class, and for every node of one
  // (ROrigin) the representative it had. Everything outside R is
  // monotone under replay, so the growth log alone tells which of
  // those sets changed.
  std::unordered_map<unsigned, SparseBitSet> OldRPts;
  std::unordered_set<unsigned> RHadCons;
  std::unordered_map<unsigned, unsigned> ROrigin;
  for (unsigned N : RSet) {
    ++Work;
    OldRPts.emplace(N, Nodes[N].Pts);
    if (!Nodes[N].Cons.empty())
      RHadCons.insert(N);
    ROrigin.emplace(N, N);
    if (auto It = Members.find(N); It != Members.end())
      for (unsigned M : It->second)
        ROrigin.emplace(M, N);
  }

#ifndef NDEBUG
  // Reference inputs for the whole-program checks at the end.
  struct LocalSnap {
    const Local *L;
    unsigned Ctx;
    unsigned OldRep;
    unsigned Count;
    bool WasReset;
  };
  std::vector<LocalSnap> RefOldLocal;
  for (const auto &[L, ByCtx] : LocalNodes)
    for (const auto &[Ctx, Node] : ByCtx) {
      unsigned R = find(Node);
      RefOldLocal.push_back(
          {L, Ctx, R, Nodes[R].Pts.count(), RSet.count(R) != 0});
    }
  auto SnapLess = [](const LocalSnap &A, const LocalSnap &B) {
    return A.L != B.L ? A.L < B.L : A.Ctx < B.Ctx;
  };
  std::sort(RefOldLocal.begin(), RefOldLocal.end(), SnapLess);
  using CGEdgeKey = std::tuple<unsigned, const CallInstr *, unsigned>;
  std::vector<CGEdgeKey> RefOldCGEdges;
  for (const CallEdge &E : CG.edges())
    RefOldCGEdges.emplace_back(E.CallerNode, E.Site, E.CalleeNode);
  std::sort(RefOldCGEdges.begin(), RefOldCGEdges.end());
  {
    // The reset region equals the closure of every holder of a dirty
    // object that a scan of all nodes finds.
    std::unordered_set<unsigned> RefR;
    std::vector<unsigned> RefStack;
    auto RefSeed = [&](unsigned N) {
      N = find(N);
      if (RefR.insert(N).second)
        RefStack.push_back(N);
    };
    for (unsigned ZN : Z)
      RefSeed(ZN);
    for (unsigned N = 0, E = static_cast<unsigned>(Nodes.size()); N != E;
         ++N) {
      if (find(N) != N)
        continue;
      bool Holds = false;
      Nodes[N].Pts.forEach([&](unsigned Obj) {
        if (DirtyObjs.count(Obj))
          Holds = true;
      });
      if (Holds)
        RefSeed(N);
    }
    for (const Method *M : Req.DirtyMethods)
      for (const auto &[Key, N] : RetNodes)
        if (static_cast<unsigned>(Key >> 32) == M->id())
          RefSeed(N);
    while (!RefStack.empty()) {
      unsigned N = RefStack.back();
      RefStack.pop_back();
      for (const auto &[Dst, F] : Nodes[N].Succs) {
        (void)F;
        RefSeed(Dst);
      }
    }
    for (unsigned ZN : Z)
      RefR.erase(ZN);
    assert(RefR == RSet && "reset region differs from the holder scan");
    // Every field and element partition of a dirty object is a zombie.
    for (const auto &[Key, N] : FieldNodes)
      assert((!DirtyObjs.count(static_cast<unsigned>(Key >> 32)) ||
              Z.count(N)) &&
             "dirty object's field partition missed");
    for (const auto &[Obj, N] : ElemNodes)
      assert((!DirtyObjs.count(Obj) || Z.count(N)) &&
             "dirty object's element partition missed");
  }
#endif

  // Retraction. Edges into zombies are owned by live sources, which
  // the zombies' Preds name, and are removed edge-wise; edges out of
  // zombies die with their node (and leave their targets' Preds).
  unsigned EdgesRemoved = 0;
  {
    std::vector<unsigned> Sources;
    for (unsigned ZN : Z)
      for (unsigned S : Preds[ZN]) {
        ++Work;
        if (!Z.count(find(S)))
          Sources.push_back(find(S));
      }
    std::sort(Sources.begin(), Sources.end());
    Sources.erase(std::unique(Sources.begin(), Sources.end()), Sources.end());
    for (unsigned N : Sources) {
      auto &Succs = Nodes[N].Succs;
      Work += Succs.size();
      auto NewEnd = std::remove_if(
          Succs.begin(), Succs.end(),
          [&](const std::pair<unsigned, const Type *> &Edge) {
            return Z.count(find(Edge.first)) != 0;
          });
      EdgesRemoved += static_cast<unsigned>(Succs.end() - NewEnd);
      Succs.erase(NewEnd, Succs.end());
    }
  }
  for (unsigned ZN : Z) {
    for (const auto &[Dst, F] : Nodes[ZN].Succs) {
      (void)F;
      ++Work;
      unsigned D = find(Dst);
      if (Z.count(D))
        continue;
      std::vector<unsigned> &P = Preds[D];
      Work += P.size();
      P.erase(std::remove(P.begin(), P.end(), ZN), P.end());
    }
    EdgesRemoved += static_cast<unsigned>(Nodes[ZN].Succs.size());
    Nodes[ZN] = NodeData();
    Preds[ZN] = {};
  }
  NumCopyEdges -= std::min(NumCopyEdges, EdgesRemoved);
#ifndef NDEBUG
  for (unsigned N = 0, E = static_cast<unsigned>(Nodes.size()); N != E; ++N)
    for (const auto &[Dst, F] : Nodes[N].Succs)
      assert(!Z.count(find(Dst)) && "copy edge into a zombie survived");
#endif
  for (const Local *L : Req.DeadLocals) {
    LocalNodes.erase(L);
    Merged.erase(L);
    MergedOwned.erase(L);
  }
  for (uint64_t Key : DeadFieldKeys)
    FieldNodes.erase(Key);
  for (unsigned Obj : DeadElemKeys)
    ElemNodes.erase(Obj);
  for (const Instr *I : Req.DeadInstrs)
    ObjIndex.erase(I);
  for (const Method *M : Req.DirtyMethods)
    ParamCache.erase(M);
  const std::vector<CallEdge> RemovedEdges = CG.removeEdgesAtSites(DeadCalls);
  Work += RemovedEdges.size();

  // Reset survivors of R: facts cleared, structure (edges and
  // constraint attachments, all anchored at live instructions) kept.
  for (unsigned N : RSet) {
    Nodes[N].Pts.clear();
    Nodes[N].Delta.clear();
  }

  // From here every set that grows, every node created and every call
  // edge added is logged; the affected methods and the republished
  // merged sets come from that log.
  Logging = true;

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

  // The call edges into dirty methods, in edge order: replays 1b and 4
  // start from them.
  struct SelEdge {
    uint32_t Rank;
    unsigned CallerNode;
    const CallInstr *Site;
    unsigned CalleeNode;
  };
  auto ByRank = [](const SelEdge &A, const SelEdge &B) {
    return A.Rank < B.Rank;
  };
  std::vector<SelEdge> IntoDirty;
  for (Method *M : Req.DirtyMethods)
    for (unsigned MC : CG.nodesOf(M))
      for (const CallGraph::InEdge &E : CG.inEdgesOf(MC)) {
        ++Work;
        IntoDirty.push_back({E.Rank, E.CallerNode, E.Site, MC});
      }
  std::sort(IntoDirty.begin(), IntoDirty.end(), ByRank);

  // Replay 1b: argument re-binding for static calls from clean
  // callers into dirty methods. The caller is not reprocessed, and
  // its argument edges targeted the retired formals (zombies), so
  // the relowered formals would otherwise start — and stay — empty.
  // wireCall is idempotent; re-wiring every retained static edge
  // into a dirty method is safe. (Instance calls are re-dispatched
  // by replay 4; dirty callers re-wire their own call sites in
  // replay 1.)
  for (const SelEdge &E : IntoDirty) {
    if (!E.Site->target()->isStatic())
      continue;
    const MethodCtx Callee = CG.node(E.CalleeNode);
    wireCall(E.CallerNode, E.Site, CG.node(E.CallerNode).Ctx, Callee.M,
             Callee.Ctx, /*BindObj=*/~0u, /*BindReceiverObject=*/false);
  }

  // Replay 2: allocation seeding for unchanged sites whose
  // destination node landed in R (its seeded objects were cleared and
  // nothing else re-creates them). A local's only definition is its
  // allocation site, so the candidates are R's own nodes. Sorted for
  // deterministic worklist seeding.
  if (!RSet.empty()) {
    std::vector<std::pair<unsigned, unsigned>> Reseeds; // (obj, node)
    for (const auto &[N, R0] : ROrigin) {
      (void)R0;
      ++Work;
      const NodeOrigin &O = Origin[N];
      if (!O.L || !O.L->def())
        continue;
      auto SIt = ObjIndex.find(O.L->def());
      if (SIt == ObjIndex.end())
        continue;
      if (auto OIt = SIt->second.find(O.Ctx); OIt != SIt->second.end())
        Reseeds.emplace_back(OIt->second, N);
    }
    std::sort(Reseeds.begin(), Reseeds.end());
#ifndef NDEBUG
    std::vector<std::pair<unsigned, unsigned>> RefReseeds;
    for (const auto &[Site, ByCtx] : ObjIndex) {
      const Local *Dest = Site->dest();
      auto LIt = Dest ? LocalNodes.find(Dest) : LocalNodes.end();
      if (LIt == LocalNodes.end())
        continue;
      for (const auto &[Ctx, Obj] : ByCtx)
        if (auto NIt = LIt->second.find(Ctx);
            NIt != LIt->second.end() && RSet.count(find(NIt->second)))
          RefReseeds.emplace_back(Obj, NIt->second);
    }
    std::sort(RefReseeds.begin(), RefReseeds.end());
    assert(RefReseeds == Reseeds && "allocation reseeds differ from a scan");
#endif
    for (const auto &[Obj, Node] : Reseeds)
      addObject(Node, Obj);
  }

  // Replay 3: re-deliver the facts flowing from untouched nodes into
  // the reset region across existing edges. The sources are R's
  // predecessors outside R, visited in node order.
  if (!RSet.empty()) {
    std::vector<unsigned> Sources;
    for (unsigned N : RSet)
      for (unsigned S : Preds[N]) {
        ++Work;
        const unsigned SR = find(S);
        if (!RSet.count(SR) && !Z.count(SR))
          Sources.push_back(SR);
      }
    std::sort(Sources.begin(), Sources.end());
    Sources.erase(std::unique(Sources.begin(), Sources.end()), Sources.end());
    for (unsigned N : Sources)
      for (const auto &[DstRaw, Filter] : Nodes[N].Succs) {
        ++Work;
        unsigned Dst = find(DstRaw);
        if (RSet.count(Dst))
          flowInto(Dst, Nodes[N].Pts, Filter);
      }
  }

  // Replay 4: receiver re-dispatch. Receiver-object injection has no
  // copy edge, so a receiver formal that was reset — a relowered
  // dirty callee's, or one in R — would otherwise never get its
  // objects back (the caller-side Call constraint only re-fires on a
  // receiver delta). Every other callee's bindings are monotone facts
  // that were never cleared, and applyCall is idempotent, so the call
  // sites of edges into those two kinds of callee are all that needs
  // replaying. A site is replayed once per caller node, at its first
  // edge in edge order.
  {
    std::vector<SelEdge> Sel;
    for (const SelEdge &E : IntoDirty)
      if (!E.Site->target()->isStatic())
        Sel.push_back(E);
    for (const auto &[N, R0] : ROrigin) {
      (void)R0;
      ++Work;
      const NodeOrigin &O = Origin[N];
      const auto *PI =
          O.L ? dyn_cast_or_null<ParamInstr>(O.L->def()) : nullptr;
      if (!PI || PI->index() != 0)
        continue;
      Method *M = PI->parent()->parent();
      const int MC = M->isStatic() ? -1 : CG.findNode(M, O.Ctx);
      if (MC < 0)
        continue;
      for (const CallGraph::InEdge &E : CG.inEdgesOf(MC)) {
        ++Work;
        if (!E.Site->target()->isStatic())
          Sel.push_back({E.Rank, E.CallerNode, E.Site,
                         static_cast<unsigned>(MC)});
      }
    }
    // With R non-empty the replay covers every instance edge of a
    // selected (site, caller) pair, so the pair ranks at its first
    // edge overall.
    if (!RSet.empty())
      for (SelEdge &E : Sel)
        for (const CallGraph::SiteEdge &SE : CG.edgesAt(E.Site)) {
          ++Work;
          if (SE.CallerNode == E.CallerNode)
            E.Rank = std::min(E.Rank, SE.Rank);
        }
    std::sort(Sel.begin(), Sel.end(), ByRank);
    std::set<std::pair<const CallInstr *, unsigned>> Done;
    for (const SelEdge &E : Sel) {
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
  Logging = false;
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
  // analyzed it. Identity requires every node stay reachable. Only a
  // callee of a removed edge can have lost its paths from the entry:
  // any other node's old path either survives or runs through such a
  // callee after its last removed edge.
  int Entry = CG.findNode(P.mainMethod(), 0);
  std::vector<unsigned> LostCallers;
  for (const CallEdge &E : RemovedEdges)
    LostCallers.push_back(E.CalleeNode);
  std::sort(LostCallers.begin(), LostCallers.end());
  LostCallers.erase(std::unique(LostCallers.begin(), LostCallers.end()),
                    LostCallers.end());
  const bool Reachable =
      Entry >= 0 &&
      CG.reachableFrom(static_cast<unsigned>(Entry), LostCallers);
  assert(Reachable == (Entry >= 0 && CG.allReachableFrom(
                                         static_cast<unsigned>(Entry))) &&
         "reachability check differs from a full traversal");
  if (!Reachable)
    return Fallback("edit left stale unreachable call-graph nodes");

  // Finalize: republish the merged entry of every local with a logged
  // or reset context. A context-merged union is patched rather than
  // rebuilt from all of a local's contexts (a container method's local
  // has one per receiver): the contexts outside the log hold the same
  // set as before and no dirty object (a holder would have been
  // reset), so the new union is the old one minus the dirty objects
  // plus the logged contexts' sets — unless a reset context lost a
  // live object, which only a rebuild can take out.
  auto FinalizeStart = std::chrono::steady_clock::now();
  std::unordered_map<const Local *, std::vector<unsigned>> ChangedCtx;
  auto Touch = [&](unsigned N) {
    ++Work;
    Rep[N] = find(N);
    if (Origin[N].L)
      ChangedCtx[Origin[N].L].push_back(N);
  };
  for (unsigned N : Log)
    Touch(N);
  std::unordered_set<const Local *> Rebuild;
  for (const auto &[N, R0] : ROrigin) {
    Touch(N);
    if (!Origin[N].L)
      continue;
    const SparseBitSet &New = Nodes[Rep[N]].Pts;
    OldRPts.at(R0).forEach([&](unsigned Obj) {
      ++Work;
      if (!New.test(Obj) && !DirtyObjs.count(Obj))
        Rebuild.insert(Origin[N].L);
    });
  }
  {
    std::vector<unsigned> Ids;
    for (const auto &[L, Ctxs] : ChangedCtx) {
      auto It = LocalNodes.find(L);
      if (It == LocalNodes.end())
        continue; // Retired.
      auto MIt = Merged.find(L);
      if (It->second.size() == 1 || Rebuild.count(L) || MIt == Merged.end() ||
          MIt->second != ~0u) {
        Work += It->second.size();
        publishMerged(L, It->second, Ids);
        continue;
      }
      SparseBitSet &Union = MergedOwned[L];
      for (unsigned Obj : DirtyObjs)
        Union.erase(Obj);
      for (unsigned N : Ctxs) {
        ++Work;
        Union.unionWith(Nodes[Rep[N]].Pts);
      }
    }
  }
  auto FinalizeEnd = std::chrono::steady_clock::now();
#ifndef NDEBUG
  for (unsigned N = 0, E = static_cast<unsigned>(Rep.size()); N != E; ++N)
    assert(Rep[N] == findConst(N) && "union-find left uncompressed");
  for (const auto &[L, ByCtx] : LocalNodes) {
    SparseBitSet Ref;
    for (const auto &KV : ByCtx)
      Ref.unionWith(Nodes[find(KV.second)].Pts);
    assert(Ref == pointsTo(L) && "merged set differs from a full finalize");
  }
#endif

  // Affected methods: the dirty ones, the owner of every local whose
  // points-to set changed in ANY context, and both endpoints of every
  // added or removed call edge. Downstream stages (mod-ref, SDG)
  // consume per-context local sets and call-graph structure, so this
  // set bounds what they must recompute. A reset node compares against
  // its snapshot; any other node changed exactly when it grew.
  std::vector<unsigned> AffectedIds;
  for (Method *M : Req.DirtyMethods)
    AffectedIds.push_back(M->id());
  auto NoteLocal = [&](unsigned N, bool Changed) {
    const Local *L = Origin[N].L;
    if (Changed && L && LocalNodes.count(L))
      AffectedIds.push_back(L->ownerMethodId());
  };
  for (unsigned N : Log) {
    ++Work;
    if (!ROrigin.count(N))
      NoteLocal(N, LogFlags[N] & 2);
    LogFlags[N] = 0;
  }
  Log.clear();
  for (const auto &[N, R0] : ROrigin) {
    ++Work;
    NoteLocal(N, Nodes[find(N)].Pts != OldRPts.at(R0));
  }
  const std::vector<CallEdge> &Added = AddedEdges;
  for (const std::vector<CallEdge> *Edges : {&RemovedEdges, &Added})
    for (const CallEdge &E : *Edges) {
      ++Work;
      AffectedIds.push_back(CG.node(E.CallerNode).M->id());
      AffectedIds.push_back(CG.node(E.CalleeNode).M->id());
    }
  std::sort(AffectedIds.begin(), AffectedIds.end());
  AffectedIds.erase(std::unique(AffectedIds.begin(), AffectedIds.end()),
                    AffectedIds.end());
  for (unsigned Id : AffectedIds)
    Out.AffectedMethods.push_back(P.methods()[Id].get());

#ifndef NDEBUG
  {
    // Reference: compare every (local, context) pair against the
    // pre-update snapshot and diff the sorted call-edge lists.
    std::set<unsigned> Ref;
    for (Method *M : Req.DirtyMethods)
      Ref.insert(M->id());
    for (const auto &[L, ByCtx] : LocalNodes)
      for (const auto &[Ctx, Node] : ByCtx) {
        const SparseBitSet &Final = Nodes[find(Node)].Pts;
        LocalSnap Probe{L, Ctx, 0, 0, false};
        auto SIt = std::lower_bound(RefOldLocal.begin(), RefOldLocal.end(),
                                    Probe, SnapLess);
        const bool Found =
            SIt != RefOldLocal.end() && SIt->L == L && SIt->Ctx == Ctx;
        bool Changed;
        if (!Found)
          Changed = !Final.empty();
        else if (SIt->WasReset)
          Changed = Final != OldRPts.at(SIt->OldRep);
        else
          Changed = Final.count() != SIt->Count;
        if (Changed)
          Ref.insert(L->ownerMethodId());
      }
    std::vector<CGEdgeKey> NewCGEdges;
    for (const CallEdge &E : CG.edges())
      NewCGEdges.emplace_back(E.CallerNode, E.Site, E.CalleeNode);
    std::sort(NewCGEdges.begin(), NewCGEdges.end());
    std::vector<CGEdgeKey> Diff;
    std::set_symmetric_difference(RefOldCGEdges.begin(), RefOldCGEdges.end(),
                                  NewCGEdges.begin(), NewCGEdges.end(),
                                  std::back_inserter(Diff));
    for (const CGEdgeKey &K : Diff) {
      Ref.insert(CG.node(std::get<0>(K)).M->id());
      Ref.insert(CG.node(std::get<2>(K)).M->id());
    }
    assert(std::equal(Ref.begin(), Ref.end(), AffectedIds.begin(),
                      AffectedIds.end()) &&
           "affected methods differ from the whole-program diff");
  }
#endif
  AddedEdges.clear();

  // Refresh the public counters; time and work totals accumulate.
  // Report.Seconds covers the whole update, retraction and replays
  // included, not only the fixed-point loop and finalize.
  Stats.NumNodes = static_cast<unsigned>(Nodes.size());
  Stats.NumRepNodes = Stats.NumNodes - Stats.NodesMerged;
  Stats.NumCopyEdges = NumCopyEdges;
  Stats.NumConstraints = static_cast<unsigned>(Constraints.size());
  Stats.NumObjects = static_cast<unsigned>(Objects.size());
  Stats.SolveSeconds +=
      std::chrono::duration<double>(SolveEnd - SolveStart).count();
  Stats.FinalizeSeconds +=
      std::chrono::duration<double>(FinalizeEnd - FinalizeStart).count();
  Stats.SetWordsTouched += SparseBitSet::wordsTouched() - WordsAtStart;
  Stats.UpdateWork = Work + (Stats.WorklistPops - PopsAtStart);
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
