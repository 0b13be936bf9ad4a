//===-- Interp.h - ThinJ interpreter ----------------------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A concrete interpreter for ThinJ programs. It serves three roles:
///
///  1. an execution oracle for the frontend and analysis tests (static
///     points-to must over-approximate observed heap shapes);
///  2. the substrate for dynamic thin slicing (paper Section 7 points
///     out thin slicing applies naturally to dynamic dependences);
///  3. the failure generator for the debugging experiment: workloads
///     run until the injected bug manifests, and the failure point
///     seeds the slicers.
///
/// When tracing is on, every executed instruction becomes an instance
/// recording its dynamic producer dependences: value-role operands'
/// producing instances, plus — for heap reads — the writing store
/// instance of the slot actually read.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_DYN_INTERP_H
#define THINSLICER_DYN_INTERP_H

#include "ir/Instr.h"
#include "ir/Program.h"
#include "support/Budget.h"

#include <cstdint>
#include <string>
#include <vector>

namespace tsl {

/// Inputs and limits for one interpreter run.
struct InterpOptions {
  std::vector<std::string> InputLines; ///< Consumed by readLine().
  std::vector<int64_t> InputInts;      ///< Consumed by readInt().
  uint64_t MaxSteps = 10'000'000;
  unsigned MaxCallDepth = 2'000;
  /// Total bytes of print output before the run is stopped (a
  /// runaway-loop guard; 0 disables the cap).
  uint64_t MaxOutputBytes = 16u * 1024 * 1024;
  /// Record the dynamic dependence trace (costs memory per step, up to
  /// a fixed cap of trace instances).
  bool TraceDeps = false;
  /// Optional shared analysis budget: adds the wall-clock deadline and
  /// watchdog cancellation on top of the limits above (MaxSteps is
  /// the one step cap).
  const AnalysisBudget *Budget = nullptr;
};

/// The dynamic dependence trace of a run.
class DynTrace {
public:
  struct Instance {
    const Instr *I;
    /// Producing instances of the values this instance consumed
    /// (thin/producer dependences only).
    std::vector<uint32_t> ThinDeps;
  };

  static constexpr uint32_t NoInstance = ~0u;

  const std::vector<Instance> &instances() const { return Instances; }

  /// The most recent executed instance of \p I, or -1.
  int64_t lastInstanceOf(const Instr *I) const;

  /// Static statements in the dynamic thin slice of \p InstanceId
  /// (transitive thin dependences, deduplicated).
  std::vector<const Instr *> dynamicThinSlice(uint32_t InstanceId) const;

  /// Dynamic thin slice from the last executed instance of \p Seed;
  /// empty when the seed never ran.
  std::vector<const Instr *> dynamicThinSliceOfLast(const Instr *Seed) const;

  uint32_t addInstance(const Instr *I, std::vector<uint32_t> Deps);

private:
  std::vector<Instance> Instances;
};

/// Outcome of one run.
struct InterpResult {
  /// Output of print statements, one entry per print.
  std::vector<std::string> Output;
  /// Normal completion (false on exception, runtime error, or limits).
  bool Completed = false;
  /// A ThinJ-level `throw` unwound the program.
  bool ThrewException = false;
  /// Runtime error description (null deref, bounds, bad cast, div by
  /// zero, step limit); empty when none.
  std::string Error;
  /// The instruction where the exception/error occurred, if any.
  const Instr *FailurePoint = nullptr;
  /// A resource limit (steps, call depth, output bytes, or budget)
  /// stopped the run — distinguishes limits from program failures.
  bool HitLimit = false;
  /// The interpreter itself died (an exception escaped it — e.g. an
  /// injected Throw fault): no exception crosses the interpret()
  /// boundary, the crash is reported here with Error set. Output and
  /// trace of the aborted run are discarded.
  bool Crashed = false;
  uint64_t Steps = 0;
  /// Present when InterpOptions::TraceDeps was set.
  DynTrace Trace;
};

/// Runs \p P from its main method. \p P must be in SSA form.
InterpResult interpret(const Program &P, const InterpOptions &Options = {});

} // namespace tsl

#endif // THINSLICER_DYN_INTERP_H
