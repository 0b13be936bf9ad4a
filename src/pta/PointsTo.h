//===-- PointsTo.h - Andersen points-to analysis ----------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Subset-based (Andersen-style) points-to analysis with on-the-fly
/// call graph construction, mirroring the paper's configuration
/// (Section 6.1): a field-sensitive Andersen analysis [4, 23] with
/// object-sensitive cloning [16] for methods of key container classes.
/// The precision knob PTAOptions::ObjSensContainers reproduces the
/// paper's ThinNoObjSens/TradNoObjSens ablation columns.
///
/// Abstract objects are allocation sites, cloned by allocation context
/// inside container methods so each Vector gets its own internal
/// elems array. Casts filter by declared type, which is what lets the
/// tough-cast experiment (Table 3) distinguish casts the analysis can
/// verify from "tough" ones.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_PTA_POINTSTO_H
#define THINSLICER_PTA_POINTSTO_H

#include "cg/CallGraph.h"
#include "cg/ClassHierarchy.h"
#include "ir/Instr.h"
#include "ir/Program.h"
#include "support/Budget.h"
#include "support/SparseBitSet.h"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace tsl {

/// Configuration of the pointer analysis.
struct PTAOptions {
  /// Clone methods of container classes per receiver allocation site
  /// (the paper's "fully object-sensitive handling of key collections
  /// classes" [16]). Off = the NoObjSens ablation.
  bool ObjSensContainers = true;

  /// Optional resource budget. When the solver exhausts it (deadline
  /// or MaxPtaPropagations), the analysis degrades to a sound coarse
  /// result: the CHA call graph plus an all-heap points-to
  /// over-approximation (every reference points to every allocation
  /// site). Null (the default) imposes no limits.
  const AnalysisBudget *Budget = nullptr;
};

/// Work counters of one solver run, surfaced through PointsToResult,
/// printed by `thinslice --pta-stats`, and exported as benchmark
/// counters by bench_pta_solver.
struct SolverStats {
  unsigned NumNodes = 0;      ///< Constraint-graph nodes created.
  unsigned NumRepNodes = 0;   ///< Nodes still representatives at the end.
  unsigned NumCopyEdges = 0;  ///< Copy edges added (including filtered).
  unsigned NumConstraints = 0; ///< Deferred load/store/array/call constraints.
  unsigned NumObjects = 0;    ///< Abstract objects created.
  uint64_t WorklistPops = 0;  ///< Nodes popped from the worklist.
  uint64_t Propagations = 0;  ///< Edge propagations that changed the target.
  uint64_t NoChangePropagations = 0; ///< Edge propagations that did not.
  uint64_t DeltaBitsMoved = 0; ///< Total set bits pushed along edges.
  uint64_t ConstraintEvals = 0; ///< applyConstraint re-evaluations.
  unsigned CyclesCollapsed = 0; ///< SCC collapse events.
  unsigned NodesMerged = 0;   ///< Nodes folded into a representative.
  /// Words that points-to set operations read or wrote during solve
  /// and finalize (an incremental update adds all of its set work).
  /// Deterministic; not serialized.
  uint64_t SetWordsTouched = 0;
  /// Work of the last incremental update: nodes, copy edges, locals
  /// and call edges its passes visited, plus its fixed-point loop's
  /// pops. Deterministic, and edit-sized rather than program-sized
  /// (the first update also builds an index, which is not counted).
  /// Zero after a cold solve; neither printed nor serialized.
  uint64_t UpdateWork = 0;
  double SolveSeconds = 0;    ///< Wall time of the fixed-point loop.
  double FinalizeSeconds = 0; ///< Wall time of result finalization.

  /// The `--pta-stats` text: four lines, plus a fifth with
  /// SetWordsTouched.
  std::string str() const;
};

/// An abstract heap object: an allocation site plus its allocation
/// context (0 outside of cloned container methods).
struct AbstractObject {
  const Instr *Site;  ///< New/NewArray/ConstString/Read/StrOp.
  unsigned AllocCtx;  ///< Context the allocating method ran in.
  const Type *Ty;     ///< Runtime type of instances from this site.
  unsigned CtxDepth;  ///< Nesting depth of AllocCtx (0 for ctx 0).
  unsigned Id;
};

/// Input to applyIncrementalUpdate(): the methods whose bodies were
/// swapped by applyIncrementalCompile(), plus the instructions and
/// locals of the retired bodies (which the caller must keep alive —
/// see IncrementalCompileResult::RetiredBodies — because they are
/// used here as retraction keys).
struct PTAUpdateRequest {
  std::vector<Method *> DirtyMethods;
  std::unordered_set<const Instr *> DeadInstrs;
  std::unordered_set<const Local *> DeadLocals;
};

/// Outcome of applyIncrementalUpdate(). When Applied is false the
/// update declined or aborted (Reason says why) and the result object
/// may be in a partially-retracted state: the caller must discard it
/// and re-run the analysis cold. When true, every query answers as if
/// the analysis had been re-run from scratch on the patched program
/// (modulo object/context id assignment, which is visit-order defined
/// either way), and AffectedMethods lists every method whose
/// points-to or call-graph facts may differ from the pre-edit run —
/// downstream stages only need to recompute those.
struct PTAUpdateResult {
  bool Applied = false;
  std::string Reason;
  std::vector<Method *> AffectedMethods;
};

/// Results of the analysis: object table, points-to sets, alias and
/// dispatch queries, and the constructed call graph.
class PointsToResult {
public:
  virtual ~PointsToResult() = default;

  virtual const std::vector<AbstractObject> &objects() const = 0;

  /// The abstract object that defines cloning context \p Ctx, or ~0u
  /// for the context-insensitive context 0. Context and object ids
  /// are assigned in solver-visit order, so clients comparing two
  /// analysis runs (e.g. the differential solver tests) must
  /// canonicalize contexts through this chain rather than compare
  /// raw ids.
  virtual unsigned contextObject(unsigned Ctx) const = 0;

  /// Points-to set of \p L merged over all contexts of its method.
  /// Like the per-context sets, the reference may share the solver's
  /// own storage: it stays valid until applyIncrementalUpdate().
  virtual const SparseBitSet &pointsTo(const Local *L) const = 0;

  /// Points-to set of \p L in one cloning context of its method
  /// (empty when the clone was never analyzed). The clone-level SDG
  /// uses this to keep the object-sensitive container precision that
  /// context-merged sets would erase.
  virtual const SparseBitSet &pointsTo(const Local *L,
                                      unsigned Ctx) const = 0;

  /// Per-context may-alias.
  bool mayAlias(const Local *A, unsigned CtxA, const Local *B,
                unsigned CtxB) const {
    return pointsTo(A, CtxA).intersects(pointsTo(B, CtxB));
  }

  /// True when the two locals may reference a common object.
  bool mayAlias(const Local *A, const Local *B) const {
    return pointsTo(A).intersects(pointsTo(B));
  }

  /// Objects in both points-to sets (used by thin-slice aliasing
  /// explanations, paper Section 4.1).
  SparseBitSet commonObjects(const Local *A, const Local *B) const {
    SparseBitSet Out = pointsTo(A);
    Out.intersectWith(pointsTo(B));
    return Out;
  }

  virtual const CallGraph &callGraph() const = 0;
  virtual const ClassHierarchy &hierarchy() const = 0;

  /// True when the analysis proved the cast can never fail: every
  /// object flowing into the operand already has the target type.
  virtual bool castCannotFail(const CastInstr *Cast) const = 0;

  /// Number of constraint-graph nodes created (scalar pointer
  /// variables plus heap partitions); a size statistic for
  /// benchmarks. Cycle elimination may collapse some of these onto
  /// representatives — see stats().NumRepNodes.
  virtual unsigned numConstraintNodes() const = 0;

  /// Work counters of the solver run that produced this result.
  virtual const SolverStats &stats() const = 0;

  /// Budget status of the run: Complete, or Degraded with the coarse
  /// CHA/all-heap fallback (see PTAOptions::Budget).
  virtual const StageReport &report() const = 0;

  /// Retract-and-replay update after an incremental recompile: removes
  /// every fact derived from the retired bodies, replays the dirty
  /// bodies' constraints, and re-solves to the fixed point. The solver
  /// declines (sound cold-rebuild fallback) whenever retraction cannot
  /// be proven exact: a retracted node was merged into a collapsed
  /// cycle, a retracted allocation defines a cloning context, a
  /// constraint premise shrank (its derived edges may be stale), or an
  /// edit left stale unreachable call-graph nodes.
  virtual PTAUpdateResult
  applyIncrementalUpdate(const PTAUpdateRequest &Req) = 0;
};

/// Runs the analysis from \p P's main method. \p P must be in SSA form.
std::unique_ptr<PointsToResult> runPointsTo(Program &P,
                                            const PTAOptions &Options = {});

/// Runs the naive full-set solver (FIFO worklist, no difference
/// propagation, no cycle elimination) with default options. It reaches
/// the same fixed point as runPointsTo, but object and context ids may
/// differ because they are assigned in visit order. Kept only as the
/// differential reference for the solver tests and bench_pta_solver.
std::unique_ptr<PointsToResult> runPointsToReference(Program &P);

} // namespace tsl

#endif // THINSLICER_PTA_POINTSTO_H
