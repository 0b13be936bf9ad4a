//===-- Slicer.h - Thin and traditional slicing ------------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Context-insensitive thin and traditional slicing as graph
/// reachability over the SDG (paper Section 5.2). The only difference
/// between the two modes is the set of dependence edges followed
/// (Section 3): thin slices follow producer flow (Flow) and parameter
/// linkage; traditional slices additionally follow base-pointer flow
/// and control dependence.
///
/// The BFS runs on the graph's kind-partitioned CSR
/// adjacency (see SDG.h): the mode is compiled into an EdgeKindMask
/// once per slice and each visited node scans contiguous neighbor
/// runs, with no per-edge kind branch or edge-record load.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SLICER_SLICER_H
#define THINSLICER_SLICER_SLICER_H

#include "sdg/SDG.h"
#include "support/BitSet.h"
#include "support/Budget.h"

#include <string>
#include <vector>

namespace tsl {

/// Which dependence-edge set a slice follows.
enum class SliceMode {
  Thin,        ///< Producer statements only (paper Section 2).
  Traditional, ///< All dependences (Weiser-style relevance).
};

/// The edge kinds a slice in \p Mode follows, as a CSR edge-kind mask.
/// The one definition of what each mode follows.
EdgeKindMask sliceEdgeMask(SliceMode Mode);

/// True when a slice in \p Mode follows edges of kind \p K.
inline bool sliceFollowsEdge(SliceMode Mode, SDGEdgeKind K) {
  return sliceEdgeMask(Mode) & edgeKindMask(K);
}

/// A (method, line) pair — the unit a human inspects.
struct SourceLine {
  const Method *M;
  unsigned Line;

  bool operator==(const SourceLine &RHS) const {
    return M == RHS.M && Line == RHS.Line;
  }
  // Ordered by the program-wide dense method id, NOT the Method
  // pointer: pointer order varies with heap layout, and sourceLines()
  // output must be byte-identical across sessions in one process (the
  // post-fault heal checks compare renderings against a fresh
  // session).
  bool operator<(const SourceLine &RHS) const {
    if (M == RHS.M)
      return Line < RHS.Line;
    if (!M || !RHS.M)
      return !M;
    return M->id() < RHS.M->id();
  }
};

/// The set of SDG nodes in a slice, with statement/line views. The
/// statement and line views are computed once on first use and cached
/// (mutation through unionWith invalidates them), so repeated
/// rendering/counting of one result is free. Not safe for concurrent
/// first-use from multiple threads; the batch engine hands each result
/// to exactly one worker.
class SliceResult {
public:
  SliceResult(const SDG *G, BitSet Nodes)
      : G(G), Nodes(std::move(Nodes)) {}

  const SDG &graph() const { return *G; }
  const BitSet &nodeSet() const { return Nodes; }

  bool containsNode(unsigned Node) const { return Nodes.test(Node); }
  bool contains(const Instr *I) const {
    int Node = G->nodeFor(I);
    return Node >= 0 && Nodes.test(static_cast<unsigned>(Node));
  }
  /// True when any statement of \p Line is in the slice.
  bool containsLine(const Method *M, unsigned Line) const;

  /// Statement nodes only, in node-id order. Cached after the first
  /// call; the reference stays valid until the result is mutated.
  const std::vector<const Instr *> &statements() const;

  /// Distinct source lines of the statements, in (method id, line)
  /// order, skipping compiler-synthesized instructions without
  /// positions. Read from the program's line table: no scan, no sort.
  /// Cached like statements().
  const std::vector<SourceLine> &sourceLines() const;

  /// Number of statement nodes in the slice (the paper's slice-size
  /// metric). Counted by the sourceLines() walk once that ran.
  unsigned sizeStmts() const;

  /// Merges \p Other into this slice (both must share the SDG). A
  /// degraded operand degrades the union.
  void unionWith(const SliceResult &Other) {
    Nodes.unionWith(Other.Nodes);
    StmtsValid = false;
    LinesValid = false;
    if (!Other.complete())
      markDegraded(Other.Reason);
  }

  //===------------------------------------------------------------------===//
  // Budget status
  //===------------------------------------------------------------------===//

  /// Complete, or Degraded when a budget stopped the traversal early.
  /// A degraded slice is a subset of the full slice from the same
  /// seeds on the same graph (the BFS only ever under-visits).
  StageStatus status() const { return Status; }
  bool complete() const { return Status == StageStatus::Complete; }
  const std::string &degradedReason() const { return Reason; }
  void markDegraded(const std::string &Why) {
    Status = StageStatus::Degraded;
    if (Reason.empty())
      Reason = Why;
  }

  /// Debug rendering: one "Class.method:line: text" entry per
  /// statement.
  std::string str() const;

private:
  const SDG *G;
  BitSet Nodes;
  StageStatus Status = StageStatus::Complete;
  std::string Reason;
  mutable std::vector<const Instr *> CachedStmts;
  mutable std::vector<SourceLine> CachedLines;
  mutable unsigned CachedStmtCount = 0;
  mutable bool StmtsValid = false;
  mutable bool LinesValid = false;
};

/// Backward slice from \p Seed by context-insensitive reachability.
/// All slicing entry points take an optional \p Budget; on exhaustion
/// (MaxSlicePops or the deadline) the partial slice is returned,
/// marked Degraded.
SliceResult sliceBackward(const SDG &G, const Instr *Seed, SliceMode Mode,
                          const AnalysisBudget *Budget = nullptr);

/// Backward slice seeded at specific SDG nodes (specific clones); used
/// by the expansion machinery, which must not jump across contexts.
/// When \p Shared is non-null the traversal polls that batch-wide gate
/// instead of constructing its own BudgetGate — the thread-safe path
/// the batch engine's workers use (BudgetGate construction touches the
/// process-global FaultInjector and must stay on the main thread).
SliceResult sliceBackwardNodes(const SDG &G,
                               const std::vector<unsigned> &SeedNodes,
                               SliceMode Mode,
                               const AnalysisBudget *Budget = nullptr,
                               SharedBudgetGate *Shared = nullptr);

/// Forward slice (statements the seed's value can flow to / affect).
SliceResult sliceForward(const SDG &G, const Instr *Seed, SliceMode Mode,
                         const AnalysisBudget *Budget = nullptr);

} // namespace tsl

#endif // THINSLICER_SLICER_SLICER_H
