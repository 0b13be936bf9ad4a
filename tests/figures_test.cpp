//===-- figures_test.cpp - End-to-end tests on the paper's figures -------------==//
//
// Compiles the paper's running examples (Figures 1, 2, 4, 5), runs the
// full pipeline (points-to, SDG, slicers, interpreter), and checks the
// statement sets the paper derives by hand.
//
//===----------------------------------------------------------------------===//

#include "dyn/Interp.h"
#include "eval/Workload.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "lang/Lower.h"
#include "pipeline/Session.h"
#include "modref/ModRef.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"
#include "slicer/Expansion.h"
#include "slicer/Inspection.h"
#include "slicer/Report.h"
#include "slicer/Slicer.h"
#include "slicer/Tabulation.h"

#include <gtest/gtest.h>

using namespace tsl;

namespace {

/// Everything the figure tests need, built once per workload.
struct Pipeline {
  WorkloadProgram W;
  std::unique_ptr<AnalysisSession> S;
  Program *P = nullptr;
  PointsToResult *PTA = nullptr;
  SDG *G = nullptr;

  explicit Pipeline(WorkloadProgram Workload) : W(std::move(Workload)) {
    S = std::make_unique<AnalysisSession>(W.Source);
    P = S->program();
    if (!P)
      return;
    PTA = S->pointsTo();
    G = S->sdg();
  }

  bool ok() const { return P != nullptr; }

  const Instr *at(const std::string &Marker) const {
    unsigned Line = W.markerLine(Marker);
    EXPECT_NE(Line, 0u) << "unknown marker " << Marker;
    const Instr *I = seedAtLine(*P, Line);
    EXPECT_NE(I, nullptr) << "no instruction at marker " << Marker;
    return I;
  }

  bool sliceHasMarker(const SliceResult &S, const std::string &Marker) const {
    unsigned Line = W.markerLine(Marker);
    SourceLine SL = sourceLineAt(*P, Line);
    return SL.M && S.containsLine(SL.M, Line);
  }
};

TEST(Figure2, ThinSliceIsProducersOnly) {
  Pipeline PL(makeFigure2());
  ASSERT_TRUE(PL.ok()) << PL.S->diagnostics().str();
  ASSERT_TRUE(verifyProgram(*PL.P).empty());

  SliceResult Thin = sliceBackward(*PL.G, PL.at("seed"), SliceMode::Thin);
  // Producers: the seed, the store w.f = y, and y = new B().
  EXPECT_TRUE(PL.sliceHasMarker(Thin, "seed"));
  EXPECT_TRUE(PL.sliceHasMarker(Thin, "producer-store"));
  EXPECT_TRUE(PL.sliceHasMarker(Thin, "producer-alloc"));
  // Explainers excluded: aliasing copies, the conditional, the A alloc.
  EXPECT_FALSE(PL.sliceHasMarker(Thin, "alias1"));
  EXPECT_FALSE(PL.sliceHasMarker(Thin, "alias2"));
  EXPECT_FALSE(PL.sliceHasMarker(Thin, "cond"));
  EXPECT_FALSE(PL.sliceHasMarker(Thin, "base-alloc"));

  SliceResult Trad =
      sliceBackward(*PL.G, PL.at("seed"), SliceMode::Traditional);
  // The traditional slice contains everything.
  for (const char *Marker : {"seed", "producer-store", "producer-alloc",
                             "alias1", "alias2", "cond", "base-alloc"})
    EXPECT_TRUE(PL.sliceHasMarker(Trad, Marker)) << Marker;

  // Thin is a subset of traditional.
  BitSet ThinNodes = Thin.nodeSet();
  ThinNodes.subtract(Trad.nodeSet());
  EXPECT_TRUE(ThinNodes.empty());
}

TEST(Figure2, ExpansionRecoversTraditional) {
  Pipeline PL(makeFigure2());
  ASSERT_TRUE(PL.ok()) << PL.S->diagnostics().str();
  ThinExpansion Exp(*PL.G, *PL.PTA);
  SliceResult Expanded = Exp.expandToTraditional(PL.at("seed"));
  SliceResult Trad =
      sliceBackward(*PL.G, PL.at("seed"), SliceMode::Traditional);
  EXPECT_TRUE(Expanded.nodeSet() == Trad.nodeSet());
}

TEST(Figure1, ThinSliceFindsTheSubstringBug) {
  Pipeline PL(makeFigure1());
  ASSERT_TRUE(PL.ok()) << PL.S->diagnostics().str();
  ASSERT_TRUE(verifyProgram(*PL.P).empty());

  SliceResult Thin = sliceBackward(*PL.G, PL.at("seed"), SliceMode::Thin);
  // The producer chain of Figure 1: the buggy substring, the Vector
  // add/get, and the array write/read inside Vector.
  EXPECT_TRUE(PL.sliceHasMarker(Thin, "bug"));
  EXPECT_TRUE(PL.sliceHasMarker(Thin, "add"));
  EXPECT_TRUE(PL.sliceHasMarker(Thin, "get"));
  // Excluded: the SessionState plumbing only moves the Vector (base
  // pointer), not the strings.
  EXPECT_FALSE(PL.sliceHasMarker(Thin, "setnames"));

  SliceResult Trad =
      sliceBackward(*PL.G, PL.at("seed"), SliceMode::Traditional);
  EXPECT_TRUE(PL.sliceHasMarker(Trad, "setnames"));
  EXPECT_GT(Trad.sizeStmts(), Thin.sizeStmts());
}

TEST(Figure1, InterpreterReproducesTheFailure) {
  Pipeline PL(makeFigure1());
  ASSERT_TRUE(PL.ok()) << PL.S->diagnostics().str();
  InterpOptions Opts;
  Opts.InputInts = {1};
  Opts.InputLines = {"John Doe"};
  InterpResult R = interpret(*PL.P, Opts);
  ASSERT_TRUE(R.Completed) << R.Error;
  ASSERT_EQ(R.Output.size(), 1u);
  // The off-by-one bug drops the last letter: "Joh" instead of "John".
  EXPECT_EQ(R.Output[0], "FIRST NAME: Joh");
}

TEST(Figure4, ExpansionExplainsTheAliasing) {
  Pipeline PL(makeFigure4());
  ASSERT_TRUE(PL.ok()) << PL.S->diagnostics().str();

  // Slicing from the conditional's read (line 10 in the paper): the
  // thin slice has the open-flag producers but not the aliasing story.
  SliceResult Thin = sliceBackward(*PL.G, PL.at("readopen"), SliceMode::Thin);
  EXPECT_TRUE(PL.sliceHasMarker(Thin, "openfield-true"));
  EXPECT_TRUE(PL.sliceHasMarker(Thin, "openfield-false"));
  EXPECT_TRUE(PL.sliceHasMarker(Thin, "isopen"));
  EXPECT_FALSE(PL.sliceHasMarker(Thin, "file-alloc"));
  EXPECT_FALSE(PL.sliceHasMarker(Thin, "vec-add"));

  // Expansion (Question 1): explain why close()'s this and isOpen()'s
  // this alias — the store in close() and the load in isOpen().
  const Instr *Store =
      heapAccessAtLine(*PL.P, PL.W.markerLine("openfield-false"));
  const Instr *Load = heapAccessAtLine(*PL.P, PL.W.markerLine("isopen"));
  ASSERT_NE(Store, nullptr);
  ASSERT_NE(Load, nullptr);
  ThinExpansion Exp(*PL.G, *PL.PTA);
  SliceResult Aliasing = Exp.explainAliasing(Store, Load);
  EXPECT_TRUE(PL.sliceHasMarker(Aliasing, "file-alloc"));
  EXPECT_TRUE(PL.sliceHasMarker(Aliasing, "vec-add"));
  EXPECT_TRUE(PL.sliceHasMarker(Aliasing, "vec-get-1"));
  EXPECT_TRUE(PL.sliceHasMarker(Aliasing, "vec-get-2"));

  // Question 2: the throw's controlling conditional is the if.
  std::vector<const Instr *> Controls =
      Exp.controlExplainers(PL.at("seed"));
  bool FoundCond = false;
  for (const Instr *C : Controls)
    if (C->loc().Line == PL.W.markerLine("cond"))
      FoundCond = true;
  EXPECT_TRUE(FoundCond);
}

TEST(Figure4, InterpreterThrows) {
  Pipeline PL(makeFigure4());
  ASSERT_TRUE(PL.ok()) << PL.S->diagnostics().str();
  InterpResult R = interpret(*PL.P);
  EXPECT_TRUE(R.ThrewException);
  ASSERT_NE(R.FailurePoint, nullptr);
  EXPECT_EQ(R.FailurePoint->loc().Line, PL.W.markerLine("seed"));
}

TEST(Figure5, ThinSliceExplainsTheToughCast) {
  Pipeline PL(makeFigure5());
  ASSERT_TRUE(PL.ok()) << PL.S->diagnostics().str();

  // The cast is "tough": the points-to analysis cannot verify it.
  const CastInstr *Cast = castAtLine(*PL.P, PL.W.markerLine("cast"));
  ASSERT_NE(Cast, nullptr);
  EXPECT_FALSE(PL.PTA->castCannotFail(Cast));

  // Understanding it: thin slice from the opcode read reaches the tag
  // stores in the constructors.
  SliceResult Thin = sliceBackward(*PL.G, PL.at("opread"), SliceMode::Thin);
  EXPECT_TRUE(PL.sliceHasMarker(Thin, "superstore"));
  EXPECT_TRUE(PL.sliceHasMarker(Thin, "tagstore"));
}

TEST(Figure1, ContextSensitivePipelineRuns) {
  Pipeline PL(makeFigure1());
  ASSERT_TRUE(PL.ok()) << PL.S->diagnostics().str();
  ModRefResult MR(*PL.P, *PL.PTA);
  SDGOptions Opts;
  Opts.ContextSensitive = true;
  std::unique_ptr<SDG> CS = buildSDG(*PL.P, *PL.PTA, &MR, Opts);
  EXPECT_GT(CS->numHeapParamNodes(), 0u);

  TabulationSlicer Thin(*CS, SliceMode::Thin);
  SliceResult S = Thin.slice(PL.at("seed"));
  unsigned BugLine = PL.W.markerLine("bug");
  SourceLine SL = sourceLineAt(*PL.P, BugLine);
  EXPECT_TRUE(S.containsLine(SL.M, BugLine));
}

} // namespace
