//===-- Workload.h - Evaluation workloads ------------------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ThinJ workload programs for the evaluation: the paper's running
/// examples (Figures 1, 2, 4, 5), benchmark models with injected bugs
/// for the debugging experiment (Table 2), and tough-cast models for
/// the program understanding experiment (Table 3).
///
/// Statements of interest are located through marker comments of the
/// form "//@ name" scanned from the raw source text, so line numbers
/// stay correct as programs evolve.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_EVAL_WORKLOAD_H
#define THINSLICER_EVAL_WORKLOAD_H

#include "ir/Instr.h"
#include "ir/Program.h"
#include "slicer/Slicer.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace tsl {

/// A compiled-ready workload: source text plus named line markers.
struct WorkloadProgram {
  std::string Name;
  std::string Source; ///< Complete source (runtime library included).
  std::unordered_map<std::string, unsigned> Markers; ///< name -> line.

  /// The line of marker \p Name; 0 when absent.
  unsigned markerLine(const std::string &MarkerName) const {
    auto It = Markers.find(MarkerName);
    return It == Markers.end() ? 0 : It->second;
  }
};

/// Scans "//@ name" markers and builds a WorkloadProgram whose Source
/// is the runtime library followed by \p Body (markers account for the
/// offset).
WorkloadProgram makeWorkload(const std::string &Name,
                             const std::string &Body,
                             bool IncludeRuntime = true);

/// The cast instruction at \p Line, or null.
const CastInstr *castAtLine(const Program &P, unsigned Line);

/// The heap access (Load/Store/ArrayLoad/ArrayStore) at \p Line, or
/// null — the right seed for aliasing explanations.
const Instr *heapAccessAtLine(const Program &P, unsigned Line);

/// The branch at \p Line, or null — the right pivot for manually
/// followed control dependences.
const Instr *branchAtLine(const Program &P, unsigned Line);

/// The SourceLine of \p Line (any instruction's method), usable as a
/// desired statement for the inspection metric.
SourceLine sourceLineAt(const Program &P, unsigned Line);

//===----------------------------------------------------------------------===//
// Paper figures
//===----------------------------------------------------------------------===//

/// Figure 1: first names flow through a Vector and a SessionState; the
/// bug is an off-by-one in substring. Markers: seed, bug, add, get,
/// arraywrite, arrayread, param.
WorkloadProgram makeFigure1();

/// Figure 2: the minimal producers-vs-explainers example. Markers:
/// seed, producer-store, producer-alloc, alias1, alias2, cond,
/// base-alloc.
WorkloadProgram makeFigure2();

/// Figure 4: a File is closed through an alias obtained from a Vector;
/// expansion is needed to explain the aliasing. Markers: seed, throw,
/// openfield-true, openfield-false, isopen, readopen, close-call,
/// file-alloc, cond.
WorkloadProgram makeFigure4();

/// Figure 5: the javac-style tough cast guarded by an opcode tag.
/// Markers: cast, opread, switchcond, superstore, tagstore, addnode-
/// ctor.
WorkloadProgram makeFigure5();

//===----------------------------------------------------------------------===//
// Experiment cases
//===----------------------------------------------------------------------===//

/// One injected-bug debugging task (paper Section 6.2).
struct BugCase {
  std::string Id;         ///< e.g. "nanoxml-1".
  WorkloadProgram Prog;
  std::string SeedMarker; ///< Failure point.
  std::vector<std::string> DesiredMarkers; ///< The bug (or witnesses).
  unsigned NumControl = 0; ///< Manually identified control deps.
  /// Conditionals the user follows by hand (extra traversal roots);
  /// lexically close to the thin slice per paper Section 4.2.
  std::vector<std::string> PivotMarkers;
  /// The nanoxml-5 configuration: expose one level of aliasing
  /// explainers during inspection (paper Section 6.2).
  bool ExpandAliasOneLevel = false;
  std::vector<std::string> InputLines;
  std::vector<int64_t> InputInts;
  /// False for the xml-security pattern where no slicer helps.
  bool SlicingUseful = true;
};

/// All Table 2 debugging cases.
std::vector<BugCase> debuggingCases();

/// One tough-cast understanding task (paper Section 6.3).
struct CastCase {
  std::string Id; ///< e.g. "javac-1".
  WorkloadProgram Prog;
  std::string CastMarker; ///< The downcast under study.
  /// Where the user slices from. Empty = the cast itself; for
  /// tag-guarded casts it is the tag read the user reaches by
  /// following one control dependence from the cast (the paper's
  /// Figure 5 protocol).
  std::string SeedMarker;
  std::vector<std::string> DesiredMarkers; ///< Safety witnesses.
  unsigned NumControl = 0;
};

/// All Table 3 tough-cast cases.
std::vector<CastCase> toughCastCases();

} // namespace tsl

#endif // THINSLICER_EVAL_WORKLOAD_H
