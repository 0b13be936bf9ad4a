//===-- Expansion.h - Hierarchical thin-slice expansion ---------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Expansion of thin slices with explainer statements (paper Section
/// 4): aliasing explanations via two additional thin slices restricted
/// to objects flowing to both base pointers (Question 1, Sec. 4.1),
/// exposure of controlling conditionals (Question 2, Sec. 4.2), and
/// the fixpoint expansion that recovers the traditional slice in the
/// limit (Sec. 2).
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SLICER_EXPANSION_H
#define THINSLICER_SLICER_EXPANSION_H

#include "pta/PointsTo.h"
#include "slicer/Slicer.h"

namespace tsl {

/// Expansion queries against one SDG + points-to result.
class ThinExpansion {
public:
  /// When \p Budget is exhausted, expansion stops at the depth/round
  /// reached and the accumulated slice is returned marked Degraded
  /// (a subset of the full expansion: accumulation is monotone).
  ThinExpansion(const SDG &G, const PointsToResult &PTA,
                const AnalysisBudget *Budget = nullptr)
      : G(G), PTA(PTA), B(Budget) {}

  /// Question 1: why do \p Write and \p Read (a heap write/read pair
  /// connected by a heap flow dependence) access the same location?
  /// Returns the union of thin slices seeded at the two base-pointer
  /// definitions, restricted to statements that handle an object
  /// flowing to *both* bases (the filtering of Sec. 4.1).
  SliceResult explainAliasing(const Instr *Write, const Instr *Read) const;

  /// Question 2: under which conditions does \p S execute? Returns the
  /// branch statements \p S is directly control dependent on — in
  /// practice lexically close to the thin slice (Sec. 4.2); each can
  /// seed a further thin slice.
  std::vector<const Instr *> controlExplainers(const Instr *S) const;

  /// The array-index variant of Question 1: for an array read/write
  /// pair, the extra question "how can the indices be equal?" is
  /// answered by thin slices on the index expressions.
  SliceResult explainIndices(const Instr *Write, const Instr *Read) const;

  /// Thin slice of \p Seed with \p Depth levels of aliasing exposure:
  /// at each level, the base pointers of the heap accesses currently
  /// in the slice are explained with one more round of thin slices
  /// (the hierarchy of paper Section 4.1; Depth 0 is the plain thin
  /// slice, the paper's nanoxml-5 configuration is Depth 1, and large
  /// depths approach the data-dependence part of the traditional
  /// slice).
  SliceResult thinSliceWithAliasDepth(const Instr *Seed,
                                      unsigned Depth) const;

  /// Repeatedly expands the thin slice of \p Seed with explainer
  /// statements (aliasing and control) and their thin slices until a
  /// fixpoint. Equals the traditional slice — the paper's "in the
  /// limit" claim, checked by property tests.
  SliceResult expandToTraditional(const Instr *Seed) const;

private:
  /// The base-pointer local of a heap access (base for field ops,
  /// array for array ops), or null.
  static const Local *basePointerOf(const Instr *I);
  static const Local *indexOf(const Instr *I);

  /// Thin slice from the definition of \p L, filtered to statements
  /// whose value may be one of \p CommonObjects.
  SliceResult filteredThinSlice(const Local *L,
                                const SparseBitSet &CommonObjects) const;

  const SDG &G;
  const PointsToResult &PTA;
  const AnalysisBudget *B;
};

} // namespace tsl

#endif // THINSLICER_SLICER_EXPANSION_H
