//===-- SSA.h - SSA construction --------------------------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pruned SSA construction (Cytron et al.) for ThinJ method bodies. The
/// paper's implementation operates on WALA's SSA IR and adds local flow
/// dependences "flow sensitively" via SSA def-use chains (Section 5.1);
/// this pass provides the same property for our IR.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_IR_SSA_H
#define THINSLICER_IR_SSA_H

namespace tsl {

class Method;
class Program;

/// Rewrites \p M into pruned SSA form: inserts phi instructions at
/// iterated dominance frontiers of each variable's definition blocks
/// (restricted to blocks where the variable is live-in) and renames
/// locals so each has a unique definition. Renumbers the method.
void buildSSA(Program &P, Method &M);

} // namespace tsl

#endif // THINSLICER_IR_SSA_H
