//===-- Experiments.h - Paper experiment drivers ----------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drivers regenerating every table of the paper's evaluation
/// (Section 6) plus the scalability and context-sensitivity
/// observations reported in the text:
///
///  - Table 1: benchmark characteristics (classes, methods, call graph
///    nodes, SDG statements) over scaled workload models;
///  - Table 2: debugging — inspected statements for thin vs
///    traditional slicing, with the NoObjSens ablation columns;
///  - Table 3: tough casts — same columns for the understanding tasks;
///  - scalability: CI slicing cost vs pointer analysis vs the
///    heap-parameter (context-sensitive) SDG blowup;
///  - context ablation: CS slices are much smaller than CI slices, but
///    BFS inspection counts barely move (the nanoxml-1 observation).
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_EVAL_EXPERIMENTS_H
#define THINSLICER_EVAL_EXPERIMENTS_H

#include "eval/Workload.h"
#include "slicer/Inspection.h"

#include <string>
#include <vector>

namespace tsl {

/// One Table 1 row.
struct Table1Row {
  std::string Name;
  unsigned Classes = 0;
  unsigned ReachableMethods = 0;
  unsigned CGNodes = 0;    ///< (method, context) pairs; >= methods.
  unsigned IRInstrs = 0;   ///< Three-address instructions (the paper's
                           ///< "bytecodes" analogue).
  unsigned SDGStmts = 0;   ///< Scalar statements, as in the paper.
  unsigned SDGEdges = 0;
  double FrontendMs = 0, PTAMs = 0, SDGMs = 0;
};

/// One Table 2 / Table 3 row (identical columns in the paper).
struct InspectionRow {
  std::string Id;
  unsigned Thin = 0;
  unsigned Trad = 0;
  double Ratio = 0;
  unsigned Control = 0;
  unsigned ThinNoObjSens = 0;
  unsigned TradNoObjSens = 0;
  bool FoundAllThin = false;
  bool FoundAllTrad = false;
  /// False when the case reproduces the paper's "slicing was not
  /// useful" pattern (excluded from the main table).
  bool SlicingUseful = true;
  /// Full slice sizes (statement nodes) for the case's seed, computed
  /// by one batched SliceEngine run per shared graph rather than a
  /// traversal per case.
  unsigned ThinSliceStmts = 0;
  unsigned TradSliceStmts = 0;
};

/// One scalability sweep row.
struct ScalabilityRow {
  unsigned PadClasses = 0;
  unsigned SDGStmts = 0;
  double PTAMs = 0;
  double CIBuildMs = 0;
  double ThinSliceMs = 0;
  double TradSliceMs = 0;
  double CSBuildMs = 0;
  double SummaryMs = 0;
  unsigned CSHeapParamNodes = 0;
  unsigned CSEdges = 0;
  unsigned SummaryEdges = 0;
  /// Multi-seed columns: the same seed set sliced sequentially with
  /// sliceBackward vs. one SliceEngine batch.
  unsigned BatchSeeds = 0;
  double SeqMs = 0;
  double BatchMs = 0;
};

/// One context-sensitivity ablation row (paper Sec. 6.1: nanoxml-1's
/// slice shrinks 8067 -> 381 but BFS only 32 -> 26).
struct AblationRow {
  std::string Id;
  unsigned CITradSliceStmts = 0;
  unsigned CSTradSliceStmts = 0;
  unsigned CIBfs = 0;
  unsigned CSBfs = 0;
};

std::vector<Table1Row> runTable1();
/// Table 2; \p Strategy lets the threats-to-validity bench rerun the
/// whole experiment under depth-first exploration.
std::vector<InspectionRow> runDebuggingExperiment(
    InspectionStrategy Strategy = InspectionStrategy::BFS);
/// Table 3.
std::vector<InspectionRow> runToughCastExperiment(
    InspectionStrategy Strategy = InspectionStrategy::BFS);
std::vector<ScalabilityRow>
runScalability(const std::vector<unsigned> &PadSizes);
std::vector<AblationRow> runContextAblation();

/// Deterministic seed picker for multi-seed slicing experiments:
/// \p NumSeeds statements spread evenly (by IR order) over the
/// program's source statements. Stable across runs of one binary.
std::vector<const Instr *> collectSliceSeeds(const Program &P,
                                             unsigned NumSeeds);

/// One slice-throughput measurement: \p Seeds sliced two ways on
/// \p G — sequentially with sliceBackward, and as one SliceEngine
/// batch.
struct ThroughputRow {
  unsigned Seeds = 0;
  unsigned UniqueSeeds = 0;
  double SeqMs = 0;   ///< N x sliceBackward.
  double BatchMs = 0; ///< One N-seed SliceEngine batch.
  double Speedup = 0; ///< SeqMs / BatchMs.
};
ThroughputRow runSliceThroughput(const SDG &G,
                                 const std::vector<const Instr *> &Seeds,
                                 SliceMode Mode, unsigned Jobs);

/// Fixed-width text renderings (what the bench binaries print).
std::string formatTable1(const std::vector<Table1Row> &Rows);
std::string formatInspectionTable(const std::string &Title,
                                  const std::vector<InspectionRow> &Rows);
std::string formatScalability(const std::vector<ScalabilityRow> &Rows);
std::string formatAblation(const std::vector<AblationRow> &Rows);

/// Rewrites the workload so main() additionally runs \p PadClasses
/// generated padding classes (used by Table 1 and the scalability
/// sweep to reach realistic program sizes).
WorkloadProgram padWorkload(const WorkloadProgram &W, const std::string &Tag,
                            unsigned PadClasses, unsigned MethodsPerClass);

} // namespace tsl

#endif // THINSLICER_EVAL_EXPERIMENTS_H
