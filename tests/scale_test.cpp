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
