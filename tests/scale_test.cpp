//===-- scale_test.cpp - Deterministic work gates at size -----------------------==//
//
// Performance regressions caught by work counters, not timings: each
// test runs a stage on a padded workload and bounds the stage's
// deterministic step count by the size of its output. A quadratic
// loop fails these on the day it lands, on any host. The suite
// carries the "scale" ctest label; the ASan+UBSan tree runs it too, so
// the stages' scratch arrays are checked at size.
//
//===----------------------------------------------------------------------===//

#include "eval/Experiments.h"
#include "eval/Workload.h"
#include "lang/Lower.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"

#include <gtest/gtest.h>

using namespace tsl;

// The CI heap wiring is output-linear: its sdg.heap steps (one per
// index entry plus one per emitted store -> load edge) stay within the
// graph's edge count. At pad-100 the indexed wiring spends ~18.5k steps
// for 66,423 edges; the pairwise store x load loop spent 288,881.
TEST(Scale, SdgHeapWiringStepsStayWithinEdgeCount) {
  WorkloadProgram W =
      padWorkload(debuggingCases().front().Prog, "BS", 100, 6);
  DiagnosticEngine Diag;
  std::unique_ptr<Program> P = compileThinJ(W.Source, Diag);
  ASSERT_TRUE(P) << Diag.str();
  std::unique_ptr<PointsToResult> PTA = runPointsTo(*P);
  std::unique_ptr<SDG> G = buildSDG(*P, *PTA, nullptr);
  ASSERT_FALSE(G->report().degraded());
  EXPECT_LE(G->report().StepsUsed, G->numEdges());
}

// Points-to set work tracks solver work, not program width: the words
// set operations touch during solve and finalize stay within a constant
// factor of the delta bits the solver moves plus its worklist pops. At
// pad-100 the sparse sets touch 53,801 words against 9,078 delta bits
// plus 7,671 pops (16,749; 3.2x). Dense BitSets sized to the largest
// object id, counted the same way, touched 760,847 words (45x): every
// union, count and scan paid the 1,775-object table's width.
TEST(Scale, PtaSetWorkStaysWithinDeltaWork) {
  WorkloadProgram W =
      padWorkload(debuggingCases().front().Prog, "BS", 100, 6);
  DiagnosticEngine Diag;
  std::unique_ptr<Program> P = compileThinJ(W.Source, Diag);
  ASSERT_TRUE(P) << Diag.str();
  std::unique_ptr<PointsToResult> PTA = runPointsTo(*P);
  ASSERT_FALSE(PTA->report().degraded());
  const SolverStats &S = PTA->stats();
  constexpr uint64_t K = 8;
  EXPECT_GT(S.SetWordsTouched, 0u);
  EXPECT_LE(S.SetWordsTouched, K * (S.DeltaBitsMoved + S.WorklistPops));
}
