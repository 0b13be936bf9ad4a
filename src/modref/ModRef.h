//===-- ModRef.h - Interprocedural mod-ref analysis -------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Transitive mod/ref sets over heap partitions (paper Section 5.3,
/// following Ryder et al. [24]): for each method, which heap locations
/// it (or any transitive callee) may write or read. The context-
/// sensitive SDG builder uses these sets to introduce heap formal-in /
/// formal-out parameters, "using the same heap partitions used by the
/// preliminary pointer analysis" — a partition is an (abstract object,
/// field) pair, an abstract array's element storage, or a static
/// field.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_MODREF_MODREF_H
#define THINSLICER_MODREF_MODREF_H

#include "ir/Instr.h"
#include "ir/Program.h"
#include "pta/PointsTo.h"
#include "support/Budget.h"
#include "support/SparseBitSet.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace tsl {

/// One heap partition.
struct HeapPartition {
  enum class Kind { Field, ArrayElem, Static } K;
  unsigned Obj;   ///< Abstract object id (Field/ArrayElem).
  const Field *F; ///< Field (Field/Static).
  unsigned Id;
};

/// Mod/ref facts for every reachable method.
class ModRefResult {
public:
  /// Runs the analysis. When \p Budget is exhausted mid-closure, the
  /// result degrades soundly: every reachable method's mod and ref
  /// sets become the set of all interned partitions.
  ///
  /// The transitive closure runs bottom-up over the SCC condensation
  /// of the method-level call graph: all members of an SCC call each
  /// other transitively, so they share one transitive mod/ref set —
  /// the union of the members' direct effects and the callee SCCs'
  /// sets — computed in one sequential pass, callees first.
  ModRefResult(const Program &P, const PointsToResult &PTA,
               const AnalysisBudget *Budget = nullptr);

  unsigned numPartitions() const {
    return static_cast<unsigned>(Partitions.size());
  }
  const HeapPartition &partition(unsigned Id) const { return Partitions[Id]; }

  /// Heap partitions the method or its transitive callees may write.
  const SparseBitSet &modOf(const Method *M) const;
  /// Heap partitions the method or its transitive callees may read.
  const SparseBitSet &refOf(const Method *M) const;

  /// Partitions a single heap access (Load/Store/ArrayLoad/ArrayStore)
  /// may touch, per the points-to sets of its base.
  SparseBitSet partitionsOf(const Instr *I) const;

  /// Human-readable partition label for debugging and tests.
  std::string partitionName(unsigned Id, const Program &P) const;

  /// Budget status of the closure: Complete, or Degraded with the
  /// all-partitions fallback.
  const StageReport &report() const { return Report; }

  /// Incremental recompute after a points-to update: re-scans direct
  /// effects only for \p AffectedMethods (and newly reachable
  /// methods), reuses the cached direct sets of everything else, and
  /// re-runs the (cheap) transitive closure over the current call
  /// graph. Partitions first seen here intern at the end of the id
  /// space, so ids can be permuted relative to a cold run — clients
  /// compare partition content, never raw ids. Returns false without
  /// a usable result (previous run degraded, or an injected
  /// "modref.update" fault fired): the caller must rebuild cold.
  bool updateIncremental(const std::vector<Method *> &AffectedMethods);

private:
  unsigned getPartition(HeapPartition::Kind K, unsigned Obj, const Field *F);
  void collectDirect(const Method *M, const PointsToResult &PTA,
                     SparseBitSet &Mod, SparseBitSet &Ref);
  /// SCC-condensation closure over the current call graph: fills
  /// Mod/Ref from the per-method direct sets unless \p Gate trips.
  void closeOverCallGraph(const std::vector<Method *> &Reachable,
                          const std::vector<SparseBitSet> &DirectMod,
                          const std::vector<SparseBitSet> &DirectRef,
                          BudgetGate &Gate);

  std::vector<HeapPartition> Partitions;
  std::unordered_map<uint64_t, unsigned> PartIndex;
  // Rows are keyed by dense method id, not Method* (see ir/Program.h).
  std::unordered_map<uint32_t, SparseBitSet> Mod, Ref;
  /// Per-method direct (non-transitive) effects, kept so the
  /// incremental path can re-scan only affected methods.
  std::unordered_map<uint32_t, SparseBitSet> DirectModM, DirectRefM;
  const PointsToResult &PTA;
  StageReport Report{"modref", StageStatus::Complete, "", "", 0, 0};
  SparseBitSet EmptySet;
};

} // namespace tsl

#endif // THINSLICER_MODREF_MODREF_H
