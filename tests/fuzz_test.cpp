//===-- fuzz_test.cpp - Deterministic seeded source fuzzing ---------------------==//
//
// A seeded random-source generator drives the FULL pipeline (compile
// -> points-to -> SDG -> slice) on 200 generated programs: mostly
// well-formed ThinJ drawn from a small grammar, a fraction mutated
// (truncated or byte-spliced) to stress the recovering parser. The
// contract under test is the fail-safe one, not correctness of any
// particular slice:
//
//   - no input crashes any stage;
//   - a failing compile produces at least one located diagnostic and
//     a structured Status in the session's lastError();
//   - a successful compile flows through every downstream stage
//     without an exception escaping a boundary.
//
// Every program is a pure function of its seed, so a failure
// reproduces from the seed alone. The suite carries the "chaos" ctest
// label and runs in the sanitizer trees.
//
//===----------------------------------------------------------------------===//

#include "lang/Lower.h"
#include "pipeline/Session.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"
#include "slicer/Slicer.h"
#include "support/Budget.h"

#include "GenProgram.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace tsl;
using namespace tsl::testgen;

TEST(Fuzz, SeededSourcesDriveTheFullPipelineWithoutCrashing) {
  FaultInjector::instance().reset();
  unsigned Compiled = 0, Rejected = 0;
  for (uint64_t Seed = 0; Seed != 200; ++Seed) {
    Rng R{Seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull};
    const std::string Src = genProgram(R);
    SCOPED_TRACE("seed " + std::to_string(Seed));

    AnalysisSession S(Src);
    Program *P = S.program();
    if (!P) {
      // A rejected input must explain itself: a structured Status and
      // at least one diagnostic.
      EXPECT_FALSE(S.lastError().isOk());
      EXPECT_TRUE(S.diagnostics().hasErrors());
      ++Rejected;
      continue;
    }
    ++Compiled;

    // Drive every downstream stage; no input may crash any of them.
    ASSERT_NE(S.sdg(), nullptr) << S.lastError().str();
    const Instr *Seed2 = nullptr;
    for (const auto &M : P->methods())
      for (const auto &BB : M->blocks())
        for (const auto &I : BB->instrs())
          if (I->loc().Line)
            Seed2 = I.get();
    if (!Seed2)
      continue;
    const SliceAnswer *Slice =
        S.slice(SliceQuery::backward({Seed2}, SliceMode::Thin));
    ASSERT_NE(Slice, nullptr) << S.lastError().str();
    EXPECT_TRUE(S.lastError().isOk());
    EXPECT_TRUE(Slice->Results.front().complete());
  }
  // The generator must produce both healthy and broken inputs, or the
  // smoke test is vacuous.
  EXPECT_GT(Compiled, 50u);
  EXPECT_GT(Rejected, 10u);
}

TEST(Fuzz, RejectedSourcesCarryLocatedDiagnostics) {
  FaultInjector::instance().reset();
  unsigned Located = 0, Rejected = 0;
  for (uint64_t Seed = 0; Seed != 200; ++Seed) {
    Rng R{Seed * 0x2545F4914F6CDD1Dull + 1};
    const std::string Src = genProgram(R);
    DiagnosticEngine Diag;
    std::unique_ptr<Program> P = compileThinJ(Src, Diag);
    if (P)
      continue;
    ++Rejected;
    EXPECT_TRUE(Diag.hasErrors()) << "seed " << Seed;
    for (const Diagnostic &D : Diag.diagnostics())
      if (D.Loc.Line)
        ++Located;
  }
  if (Rejected) {
    EXPECT_GT(Located, 0u);
  }
}
