//===-- SDGDot.h - GraphViz export ------------------------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a dependence graph (or a slice of it) as GraphViz dot, with
/// edge kinds styled the way the paper's Figure 3 draws them: producer
/// flow solid, base-pointer flow dashed, control dotted.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SDG_SDGDOT_H
#define THINSLICER_SDG_SDGDOT_H

#include "sdg/SDG.h"
#include "support/BitSet.h"

#include <string>

namespace tsl {

/// Dot-export options.
struct DotOptions {
  /// Only emit nodes in this set (e.g., a slice); null = whole graph.
  const BitSet *Restrict = nullptr;
  /// Skip heap parameter nodes.
  bool SourceStmtsOnly = true;
  /// Cap on emitted nodes (dot rendering degrades beyond this).
  unsigned MaxNodes = 500;
};

/// Renders \p G as a dot digraph.
std::string exportDot(const SDG &G, const DotOptions &Options = {});

} // namespace tsl

#endif // THINSLICER_SDG_SDGDOT_H
