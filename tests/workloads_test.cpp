//===-- workloads_test.cpp - Evaluation workload integration tests --------------==//
//
// Checks that every workload compiles and verifies, that the injected
// bugs actually manifest under the interpreter, and that the
// experiment drivers reproduce the paper's qualitative results.
//
//===----------------------------------------------------------------------===//

#include "dyn/Interp.h"
#include "eval/Experiments.h"
#include "eval/Generator.h"
#include "eval/Runtime.h"
#include "eval/Workload.h"
#include "ir/Verifier.h"
#include "lang/Lower.h"
#include "pta/PointsTo.h"
#include "slicer/Report.h"

#include <gtest/gtest.h>

using namespace tsl;

//===----------------------------------------------------------------------===//
// Compilation of every workload
//===----------------------------------------------------------------------===//

TEST(Workloads, AllBugProgramsCompileAndVerify) {
  for (const BugCase &Case : debuggingCases()) {
    DiagnosticEngine Diag;
    auto P = compileThinJ(Case.Prog.Source, Diag);
    ASSERT_NE(P, nullptr) << Case.Id << ":\n" << Diag.str();
    auto V = verifyProgram(*P);
    EXPECT_TRUE(V.empty()) << Case.Id << ": " << V.front();
    // Seed and desired markers resolve to statements.
    EXPECT_NE(seedAtLine(*P, Case.Prog.markerLine(Case.SeedMarker)),
              nullptr)
        << Case.Id;
    for (const std::string &Marker : Case.DesiredMarkers)
      EXPECT_NE(seedAtLine(*P, Case.Prog.markerLine(Marker)), nullptr)
          << Case.Id << " marker " << Marker;
  }
}

TEST(Workloads, AllCastProgramsCompileAndVerify) {
  for (const CastCase &Case : toughCastCases()) {
    DiagnosticEngine Diag;
    auto P = compileThinJ(Case.Prog.Source, Diag);
    ASSERT_NE(P, nullptr) << Case.Id << ":\n" << Diag.str();
    EXPECT_TRUE(verifyProgram(*P).empty()) << Case.Id;
    EXPECT_NE(castAtLine(*P, Case.Prog.markerLine(Case.CastMarker)), nullptr)
        << Case.Id;
  }
}

//===----------------------------------------------------------------------===//
// The bugs manifest dynamically
//===----------------------------------------------------------------------===//

namespace {

InterpResult runWorkload(const WorkloadProgram &W,
                         std::vector<std::string> Lines = {},
                         std::vector<int64_t> Ints = {}) {
  DiagnosticEngine Diag;
  auto P = compileThinJ(W.Source, Diag);
  EXPECT_NE(P, nullptr) << Diag.str();
  InterpOptions Opts;
  Opts.InputLines = std::move(Lines);
  Opts.InputInts = std::move(Ints);
  return interpret(*P, Opts);
}

bool hasOutput(const InterpResult &R, const std::string &Needle) {
  for (const std::string &Line : R.Output)
    if (Line.find(Needle) != std::string::npos)
      return true;
  return false;
}

const WorkloadProgram &progNamed(const std::string &Name) {
  static std::vector<BugCase> Bugs = debuggingCases();
  for (const BugCase &B : Bugs)
    if (B.Prog.Name == Name)
      return B.Prog;
  ADD_FAILURE() << "no workload " << Name;
  return Bugs.front().Prog;
}

} // namespace

TEST(Workloads, NanoxmlBugsManifest) {
  InterpResult R = runWorkload(progNamed("nanoxml"), {"heading-text"});
  // nanoxml-1: "42" should print but the off-by-one eats the first char.
  EXPECT_TRUE(hasOutput(R, "ID: "));
  EXPECT_FALSE(hasOutput(R, "ID: 42"));
  // nanoxml-2: child names lose their first character ("ead" not "head").
  EXPECT_TRUE(hasOutput(R, "CHILD: ead"));
  // nanoxml-3: content truncated to 3 chars.
  EXPECT_TRUE(hasOutput(R, "HEADING: hea"));
  // nanoxml-4: only two of three items print.
  unsigned Items = 0;
  for (const std::string &Line : R.Output)
    Items += Line.find("ITEM: ") != std::string::npos;
  EXPECT_EQ(Items, 2u);
  // nanoxml-5: the cleared alias loses the action attribute.
  EXPECT_TRUE(hasOutput(R, "ACTION: null"));
  // nanoxml-6: the wrong default leaks out.
  EXPECT_TRUE(hasOutput(R, "TEXT: ?"));
}

TEST(Workloads, JtopasBugsManifest) {
  // jtopas-2 output appears, then jtopas-1 crashes with the NPE.
  InterpResult R = runWorkload(progNamed("jtopas"),
                               {"alpha beta", "alpha beta"});
  EXPECT_TRUE(hasOutput(R, "WORD: [alpha ]")); // Trailing separator bug.
  EXPECT_FALSE(R.Completed);
  EXPECT_NE(R.Error.find("null receiver"), std::string::npos);
}

TEST(Workloads, AntBugsManifest) {
  InterpResult R = runWorkload(progNamed("ant"), {}, {3, 1});
  EXPECT_TRUE(hasOutput(R, "OUT: src-dir"));      // ant-2 wrong property.
  EXPECT_TRUE(hasOutput(R, "STATUS: deploying")); // ant-3: 3*2+1=7.
  EXPECT_TRUE(hasOutput(R, "MODE: quiet"));       // ant-4 inverted flag.
  EXPECT_FALSE(R.Completed); // ant-1 NPE at the end.
}

TEST(Workloads, XmlsecBugsManifest) {
  InterpResult R = runWorkload(progNamed("xmlsec"), {"abc", "abc"});
  EXPECT_TRUE(hasOutput(R, "SIG MISMATCH"));
  EXPECT_TRUE(hasOutput(R, "HASH MISMATCH"));
  EXPECT_TRUE(R.Completed) << R.Error;
}

TEST(Workloads, CastProgramsRunClean) {
  std::vector<CastCase> Cases = toughCastCases();
  auto ProgOf = [&](const std::string &Name) -> const WorkloadProgram & {
    for (const CastCase &C : Cases)
      if (C.Prog.Name == Name)
        return C.Prog;
    ADD_FAILURE();
    return Cases.front().Prog;
  };
  EXPECT_TRUE(runWorkload(ProgOf("mtrt"), {}, {4, 2, 3, 4, 5}).Completed);
  EXPECT_TRUE(runWorkload(ProgOf("jess")).Completed);
  EXPECT_TRUE(runWorkload(ProgOf("javac")).Completed);
  EXPECT_TRUE(
      runWorkload(ProgOf("jack"), {"if total then stop end"}).Completed);
}

//===----------------------------------------------------------------------===//
// Experiment drivers: the paper's qualitative claims
//===----------------------------------------------------------------------===//

TEST(Experiments, DebuggingRowsFindTheBugs) {
  for (const InspectionRow &Row : runDebuggingExperiment()) {
    if (!Row.SlicingUseful)
      continue;
    EXPECT_TRUE(Row.FoundAllThin) << Row.Id;
    EXPECT_TRUE(Row.FoundAllTrad) << Row.Id;
    EXPECT_LE(Row.Thin, Row.Trad) << Row.Id;
    EXPECT_GE(Row.Thin, 1u) << Row.Id;
  }
}

TEST(Experiments, DebuggingAggregateRatio) {
  unsigned Thin = 0, Trad = 0;
  for (const InspectionRow &Row : runDebuggingExperiment()) {
    if (!Row.SlicingUseful)
      continue;
    Thin += Row.Thin;
    Trad += Row.Trad;
  }
  // The paper reports 3.3x; shape check: clearly above 1.2x.
  EXPECT_GT(static_cast<double>(Trad) / Thin, 1.2);
}

TEST(Experiments, TrivialBugsStayTrivial) {
  for (const InspectionRow &Row : runDebuggingExperiment()) {
    if (Row.Id == "jtopas-1") {
      EXPECT_EQ(Row.Thin, 1u);
      EXPECT_EQ(Row.Trad, 1u);
    }
    if (Row.Id == "ant-1") {
      EXPECT_EQ(Row.Thin, 2u);
      EXPECT_EQ(Row.Trad, 2u);
    }
  }
}

TEST(Experiments, NoObjSensDegradesContainerCases) {
  bool SomeDegradation = false;
  for (const InspectionRow &Row : runDebuggingExperiment()) {
    EXPECT_GE(Row.ThinNoObjSens, Row.Thin) << Row.Id;
    SomeDegradation |= Row.ThinNoObjSens > Row.Thin;
  }
  EXPECT_TRUE(SomeDegradation);
}

TEST(Experiments, ToughCastRowsFindTheWitnesses) {
  for (const InspectionRow &Row : runToughCastExperiment()) {
    EXPECT_TRUE(Row.FoundAllThin) << Row.Id;
    EXPECT_TRUE(Row.FoundAllTrad) << Row.Id;
    EXPECT_LE(Row.Thin, Row.Trad) << Row.Id;
  }
}

TEST(Experiments, CastsAreActuallyTough) {
  // Every studied cast must be unverifiable by the pointer analysis.
  for (const CastCase &Case : toughCastCases()) {
    DiagnosticEngine Diag;
    auto P = compileThinJ(Case.Prog.Source, Diag);
    ASSERT_NE(P, nullptr);
    auto PTA = runPointsTo(*P);
    const CastInstr *Cast =
        castAtLine(*P, Case.Prog.markerLine(Case.CastMarker));
    ASSERT_NE(Cast, nullptr) << Case.Id;
    EXPECT_FALSE(PTA->castCannotFail(Cast)) << Case.Id;
  }
}

TEST(Experiments, JavacHasTheLargestGap) {
  double JavacRatio = 0, OtherMax = 0;
  for (const InspectionRow &Row : runToughCastExperiment()) {
    if (Row.Id.rfind("javac", 0) == 0)
      JavacRatio = std::max(JavacRatio, Row.Ratio);
    else
      OtherMax = std::max(OtherMax, Row.Ratio);
  }
  // In the paper javac dominates Table 3 (16-34x vs <5x elsewhere).
  EXPECT_GT(JavacRatio, 2.0);
}

TEST(Experiments, Table1ShapesAreSane) {
  std::vector<Table1Row> Rows = runTable1();
  ASSERT_EQ(Rows.size(), 8u);
  for (const Table1Row &R : Rows) {
    EXPECT_GT(R.Classes, 5u) << R.Name;
    EXPECT_GT(R.ReachableMethods, 10u) << R.Name;
    // Cloning makes CG nodes exceed methods (the paper's observation).
    EXPECT_GT(R.CGNodes, R.ReachableMethods) << R.Name;
    EXPECT_GT(R.SDGStmts, 500u) << R.Name;
  }
}

TEST(Experiments, GeneratedProgramsCompile) {
  for (uint64_t Seed : {1ull, 7ull, 99ull}) {
    DiagnosticEngine Diag;
    auto P = compileThinJ(generateRandomProgram(Seed), Diag);
    EXPECT_NE(P, nullptr) << "seed " << Seed << ":\n" << Diag.str();
  }
  DiagnosticEngine Diag;
  std::string Padded = runtimeLibrarySource() +
                       generatePadding("X", 3, 4) +
                       "def main() { print(padEntryX(1)); }";
  EXPECT_NE(compileThinJ(Padded, Diag), nullptr) << Diag.str();
}
