//===-- Report.h - Provenance-annotated slice narration ---------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a slice into the explanation a user reads: statements in
/// breadth-first distance order from the seed, each annotated with how
/// it was reached (copied value, heap flow, parameter passing, ...).
/// This renders the paper's Figure 1 walkthrough ("Line 23 copies the
/// value returned by Vector.get() <- ... <- the buggy statement")
/// mechanically for any seed.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SLICER_REPORT_H
#define THINSLICER_SLICER_REPORT_H

#include "slicer/Slicer.h"
#include "support/Status.h"

#include <string>
#include <vector>

namespace tsl {

/// One narration step.
struct NarrationStep {
  unsigned Node;          ///< SDG node reached.
  int ViaNode = -1;       ///< The already-reached dependent, -1 for seed.
  SDGEdgeKind ViaKind = SDGEdgeKind::Flow;
  unsigned Depth = 0;     ///< BFS distance from the seed.
};

/// The BFS exploration of a slice with provenance per step.
class SliceNarration {
public:
  SliceNarration(const SDG &G, std::vector<NarrationStep> Steps)
      : G(G), Steps(std::move(Steps)) {}

  const std::vector<NarrationStep> &steps() const { return Steps; }

  /// Human-readable rendering: one line per source statement, indented
  /// by distance, with the reason it entered the slice. Lines above
  /// \p LineOffset are shown relative to it (tools prepend the
  /// container runtime; users think in their own file's lines), lines
  /// within the prefix are tagged [runtime].
  std::string str(unsigned LineOffset = 0) const;

private:
  const SDG &G;
  std::vector<NarrationStep> Steps;
};

/// Explores \p Slice, a \p Mode slice from \p Seed, breadth-first over
/// the \p Mode edges between its own nodes and records how each node
/// was reached.
SliceNarration narrateSlice(const SliceResult &Slice, const Instr *Seed,
                            SliceMode Mode);

//===----------------------------------------------------------------------===//
// Shared query-report rendering. The thinslice CLI, its REPL, and the
// thinsliced service all answer "slice from line N" with the same
// text; keeping the renderer here (rather than three printf copies)
// is what makes a remote answer byte-identical to the in-process one.
//===----------------------------------------------------------------------===//

/// The statement carrying source line \p Line (absolute, i.e. after
/// any runtime-library prefix), or null. When several statements share
/// the line, the last one in program order is returned — the seed
/// convention every tool entry point uses. A lookup in the program's
/// line table (ir/LineTable.h).
const Instr *seedAtLine(const Program &P, unsigned Line);

/// The seed of every "slice from line N" entry point: the seedAtLine
/// statement of user-file line \p UserLine below a \p LineOffset-line
/// runtime prefix. Fails with InvalidArgument "line N is out of range"
/// when \p UserLine is 0 or its absolute line would wrap around 32
/// bits (into the prefix), and with NotFound "no statement at line N"
/// plus the nearest user-file statement lines, when any exist, when
/// the line carries no statement. Messages have no trailing newline
/// and no "error: " prefix: callers decide the severity framing.
Expected<const Instr *> seedForUserLine(const Program &P, unsigned UserLine,
                                        unsigned LineOffset);

/// The standard report of one backward slice: a "<What> from line
/// <UserLine>: S statements, L source lines" header plus one indented
/// "Class.method:line" entry per source line, lines at or below
/// \p LineOffset tagged [runtime] and the rest shown relative to it.
std::string renderSliceReport(const SliceResult &Slice,
                              const std::string &What, unsigned UserLine,
                              unsigned LineOffset);

/// The body of a batch answer: renderSliceReport of each result under
/// a "=== seed line N ===" header, in seed order (\p UserLines[I] is
/// the line of \p Results[I]).
std::string renderSliceBatch(const std::vector<SliceResult> &Results,
                             const std::string &What,
                             const std::vector<unsigned> &UserLines,
                             unsigned LineOffset);

/// The display name of a slice flavor: "context-sensitive slice" when
/// \p ContextSensitive, otherwise "thin slice" / "traditional slice".
const char *sliceKindName(SliceMode Mode, bool ContextSensitive);

} // namespace tsl

#endif // THINSLICER_SLICER_REPORT_H
