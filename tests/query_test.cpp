//===-- query_test.cpp - The one slice-query path --------------------------===//
//
// SliceEngine::run(SliceQuery) is the only way the tools slice: every
// shape must answer node for node what the primitive it dispatches to
// answers — sliceBackward, TabulationSlicer, sliceForward, the
// forward/backward intersection of a chop, ThinExpansion, and the
// batch engine for several seeds — on every evaluation case, and
// AnalysisSession::slice(query) must answer what run() answers. These
// tests carry the "engine" ctest label, so the sanitizer trees run
// them.
//
//===----------------------------------------------------------------------===//

#include "eval/Experiments.h"
#include "eval/Workload.h"
#include "pipeline/Session.h"
#include "sdg/SDG.h"
#include "slicer/Engine.h"
#include "slicer/Expansion.h"
#include "slicer/Report.h"
#include "slicer/Slicer.h"
#include "slicer/Tabulation.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

using namespace tsl;

namespace {

/// One evaluation program with both graph variants warm. The session
/// holds the context-insensitive graph; a session holds one graph at a
/// time, so the context-sensitive one is built beside it from the
/// session's program, points-to and mod-ref.
struct Subject {
  std::unique_ptr<AnalysisSession> S;
  Program *P = nullptr;
  PointsToResult *PTA = nullptr;
  SDG *CI = nullptr;
  std::unique_ptr<SDG> CSGraph;
  SDG *CS = nullptr;
  /// (seed, chop sources) per evaluation case on this program.
  std::vector<std::pair<const Instr *, std::vector<const Instr *>>> Seeds;
};

SDGOptions sdgOptions(bool ContextSensitive) {
  SDGOptions O;
  O.ContextSensitive = ContextSensitive;
  return O;
}

/// Every evaluation case's seed (and its desired statements, the chop
/// sources), grouped per program.
std::map<std::string, Subject> &subjects() {
  static std::map<std::string, Subject> Subjects = [] {
    std::map<std::string, Subject> Out;
    auto Add = [&](const WorkloadProgram &Prog, const std::string &Seed,
                   const std::vector<std::string> &Desired) {
      Subject &Sub = Out[Prog.Name];
      if (!Sub.S) {
        Sub.S = std::make_unique<AnalysisSession>(Prog.Source);
        Sub.P = Sub.S->program();
        EXPECT_NE(Sub.P, nullptr) << Sub.S->diagnostics().str();
        if (!Sub.P)
          return;
        Sub.PTA = Sub.S->pointsTo();
        Sub.CI = Sub.S->sdg();
        Sub.CSGraph = buildSDG(*Sub.P, *Sub.PTA, Sub.S->modRef(),
                               sdgOptions(true));
        Sub.CS = Sub.CSGraph.get();
      }
      if (!Sub.P)
        return;
      const Instr *SeedI = seedAtLine(*Sub.P, Prog.markerLine(Seed));
      if (!SeedI)
        return;
      std::vector<const Instr *> Sources;
      for (const std::string &M : Desired)
        if (const Instr *I = seedAtLine(*Sub.P, Prog.markerLine(M)))
          Sources.push_back(I);
      Sub.Seeds.push_back({SeedI, Sources});
    };
    for (const BugCase &Case : debuggingCases())
      Add(Case.Prog, Case.SeedMarker, Case.DesiredMarkers);
    for (const CastCase &Case : toughCastCases())
      Add(Case.Prog,
          Case.SeedMarker.empty() ? Case.CastMarker : Case.SeedMarker,
          Case.DesiredMarkers);
    return Out;
  }();
  return Subjects;
}

void expectIdentical(const SliceResult &Got, const SliceResult &Want,
                     const std::string &What) {
  EXPECT_TRUE(Got.nodeSet() == Want.nodeSet()) << What << ": node sets differ";
  EXPECT_EQ(Got.complete(), Want.complete()) << What;
}

/// run(Q) on \p E, which must return exactly one result.
SliceResult runOne(SliceEngine &E, const SliceQuery &Q,
                   const PointsToResult *PTA = nullptr) {
  std::vector<SliceResult> R = E.run(Q, PTA).Results;
  EXPECT_EQ(R.size(), 1u);
  return R.front();
}

const char *modeName(SliceMode M) {
  return M == SliceMode::Thin ? "thin" : "trad";
}

} // namespace

TEST(Query, SingleSeedShapesMatchTheirPrimitives) {
  unsigned Checked = 0;
  for (auto &[Name, Sub] : subjects()) {
    ASSERT_NE(Sub.P, nullptr) << Name;
    SliceEngine CIEngine(*Sub.CI), CSEngine(*Sub.CS);
    for (std::size_t I = 0; I != Sub.Seeds.size(); ++I) {
      const Instr *Seed = Sub.Seeds[I].first;
      const std::string Tag = Name + "/seed" + std::to_string(I);
      for (SliceMode Mode : {SliceMode::Thin, SliceMode::Traditional}) {
        const std::string MTag = Tag + "/" + modeName(Mode);
        SliceQuery Q = SliceQuery::backward({Seed}, Mode);
        expectIdentical(runOne(CIEngine, Q),
                        sliceBackward(*Sub.CI, Seed, Mode),
                        MTag + "/backward");

        SliceQuery CSQ = SliceQuery::backward({Seed}, Mode, true);
        expectIdentical(runOne(CSEngine, CSQ),
                        TabulationSlicer(*Sub.CS, Mode).slice(Seed),
                        MTag + "/cs");

        SliceQuery Fwd = Q;
        Fwd.Forward = true;
        expectIdentical(runOne(CIEngine, Fwd),
                        sliceForward(*Sub.CI, Seed, Mode), MTag + "/forward");

        for (const Instr *Source : Sub.Seeds[I].second) {
          SliceQuery Chop = SliceQuery::backward({Source}, Mode);
          Chop.ChopSink = Seed;
          BitSet Want = sliceForward(*Sub.CI, Source, Mode).nodeSet();
          Want.intersectWith(sliceBackward(*Sub.CI, Seed, Mode).nodeSet());
          expectIdentical(runOne(CIEngine, Chop),
                          SliceResult(Sub.CI, std::move(Want)),
                          MTag + "/chop");
        }
      }

      ThinExpansion Exp(*Sub.CI, *Sub.PTA);
      SliceQuery Expand = SliceQuery::backward({Seed}, SliceMode::Thin);
      Expand.Expand = true;
      expectIdentical(runOne(CIEngine, Expand, Sub.PTA),
                      Exp.expandToTraditional(Seed), Tag + "/expand");
      for (unsigned Depth : {1u, 2u}) {
        SliceQuery Alias = SliceQuery::backward({Seed}, SliceMode::Thin);
        Alias.AliasDepth = Depth;
        expectIdentical(runOne(CIEngine, Alias, Sub.PTA),
                        Exp.thinSliceWithAliasDepth(Seed, Depth),
                        Tag + "/alias" + std::to_string(Depth));
      }
      ++Checked;
    }
  }
  EXPECT_GT(Checked, 20u);
}

// Several seeds are one batch: one result per seed, each equal to the
// single-seed slicer's, with the batch statistics of the engine.
TEST(Query, SeveralSeedsMatchTheBatchAndTheSingleSeedSlicers) {
  for (auto &[Name, Sub] : subjects()) {
    ASSERT_NE(Sub.P, nullptr) << Name;
    std::vector<const Instr *> Seeds;
    for (const auto &Entry : Sub.Seeds)
      Seeds.push_back(Entry.first);
    // Every program slices several seeds: its cases' and a spread.
    for (const Instr *Extra : collectSliceSeeds(*Sub.P, 8))
      Seeds.push_back(Extra);
    for (bool CS : {false, true}) {
      const SDG &G = CS ? *Sub.CS : *Sub.CI;
      SliceEngine Engine(G);
      for (SliceMode Mode : {SliceMode::Thin, SliceMode::Traditional}) {
        SliceQuery Q = SliceQuery::backward(Seeds, Mode, CS);
        SliceAnswer A = Engine.run(Q);
        const std::vector<SliceResult> &Got = A.Results;
        EXPECT_EQ(A.Stats.Queries, Seeds.size());
        std::vector<SliceResult> Batch =
            SliceEngine(G).sliceBackwardBatch(Seeds, Q);
        ASSERT_EQ(Got.size(), Seeds.size()) << Name;
        ASSERT_EQ(Batch.size(), Seeds.size()) << Name;
        for (std::size_t I = 0; I != Seeds.size(); ++I) {
          const std::string Tag = Name + (CS ? "/cs/" : "/ci/") +
                                  modeName(Mode) + "/seed" +
                                  std::to_string(I);
          expectIdentical(Got[I], Batch[I], Tag + "/batch");
          expectIdentical(Got[I],
                          CS ? TabulationSlicer(G, Mode).slice(Seeds[I])
                             : sliceBackward(G, Seeds[I], Mode),
                          Tag + "/single");
        }
      }
    }
  }
}

// The session is a memo in front of run(): same answers, including
// the expansion shapes that need its points-to result, and a repeated
// query is a cache hit returning the identical vector.
TEST(Query, SessionSliceMatchesRunAndMemoizes) {
  Subject &Sub = subjects().begin()->second;
  ASSERT_NE(Sub.P, nullptr);
  ASSERT_FALSE(Sub.Seeds.empty());
  const Instr *Seed = Sub.Seeds.front().first;
  SliceEngine Engine(*Sub.CI);

  std::vector<SliceQuery> Shapes;
  Shapes.push_back(SliceQuery::backward({Seed}, SliceMode::Traditional));
  Shapes.push_back(SliceQuery::backward({Seed}, SliceMode::Thin));
  Shapes.back().Forward = true;
  Shapes.push_back(SliceQuery::backward({Seed}, SliceMode::Thin));
  Shapes.back().Expand = true;
  Shapes.push_back(SliceQuery::backward({Seed}, SliceMode::Thin));
  Shapes.back().AliasDepth = 1;
  Shapes.push_back(SliceQuery::backward({Seed, Seed}, SliceMode::Thin));
  for (const SliceQuery &Q : Shapes) {
    const SliceAnswer *Got = Sub.S->slice(Q);
    ASSERT_NE(Got, nullptr) << Q.label() << ": " << Sub.S->lastError().str();
    std::vector<SliceResult> Want = Engine.run(Q, Sub.PTA).Results;
    ASSERT_EQ(Got->Results.size(), Want.size()) << Q.label();
    for (std::size_t I = 0; I != Want.size(); ++I)
      expectIdentical(Got->Results[I], Want[I], Q.label());
    EXPECT_EQ(Got->Stats.Queries, Q.Seeds.size()) << Q.label();
    EXPECT_EQ(Sub.S->slice(Q), Got) << Q.label() << ": not memoized";
  }

  // A CI -> CS switch keeps the program and the points-to run (same
  // objects) and drops the CI graph; switching back rebuilds it, and
  // both drops are counted.
  auto SdgDropped = [&] {
    return Sub.S->stageReports()[static_cast<unsigned>(SessionStage::SDGBuild)]
        .CacheInvalidated;
  };
  const uint64_t DroppedBefore = SdgDropped();
  Sub.S->setSDGOptions(sdgOptions(true));
  EXPECT_EQ(SdgDropped(), DroppedBefore + 1);
  SliceQuery CSQ = SliceQuery::backward({Seed}, SliceMode::Thin, true);
  const SliceAnswer *CS = Sub.S->slice(CSQ);
  ASSERT_NE(CS, nullptr);
  EXPECT_EQ(Sub.S->program(), Sub.P);
  EXPECT_EQ(Sub.S->pointsTo(), Sub.PTA);
  expectIdentical(CS->Results.front(),
                  TabulationSlicer(*Sub.CS, SliceMode::Thin).slice(Seed),
                  "session/cs");
  Sub.S->setSDGOptions(sdgOptions(false));
  EXPECT_EQ(SdgDropped(), DroppedBefore + 2);
  Sub.CI = Sub.S->sdg();
  ASSERT_NE(Sub.CI, nullptr);
  EXPECT_EQ(Sub.S->program(), Sub.P);
  EXPECT_EQ(Sub.S->pointsTo(), Sub.PTA);
  const SliceAnswer *Back =
      Sub.S->slice(SliceQuery::backward({Seed}, SliceMode::Thin));
  ASSERT_NE(Back, nullptr);
  expectIdentical(Back->Results.front(),
                  sliceBackward(*Sub.CI, Seed, SliceMode::Thin),
                  "session/ci-again");
}

TEST(Query, LabelNamesTheShape) {
  SliceQuery Q;
  EXPECT_EQ(Q.label(), "thin slice");
  Q.Mode = SliceMode::Traditional;
  EXPECT_EQ(Q.label(), "traditional slice");
  Q.ContextSensitive = true;
  EXPECT_EQ(Q.label(), "context-sensitive slice");
  Q.Forward = true;
  EXPECT_EQ(Q.label(), "forward slice");
  Q = SliceQuery();
  Q.Expand = true;
  EXPECT_EQ(Q.label(), "fully expanded thin slice");
  Q = SliceQuery();
  Q.AliasDepth = 2;
  EXPECT_EQ(Q.label(), "thin slice (+2 aliasing levels)");
}

TEST(Query, ConflictingShapesAreRejected) {
  using Pair = std::pair<std::string, std::string>;
  auto Names = [](bool Chop, bool Fwd, bool CS, bool Expand, bool Alias) {
    SliceQuery Shape;
    Shape.Forward = Fwd;
    Shape.ContextSensitive = CS;
    Shape.Expand = Expand;
    Shape.AliasDepth = Alias;
    auto [A, B] = SliceQuery::conflict(Shape, Chop);
    return A ? Pair(A, B) : Pair();
  };
  EXPECT_EQ(Names(true, true, false, false, false), Pair("chop", "forward"));
  EXPECT_EQ(Names(false, false, false, true, true),
            Pair("expand", "alias-depth"));
  EXPECT_EQ(Names(false, false, true, true, false),
            Pair("context-sensitive", "expand"));
  EXPECT_EQ(Names(false, false, true, false, true),
            Pair("context-sensitive", "alias-depth"));
  EXPECT_EQ(Names(true, false, false, true, false), Pair("chop", "expand"));
  EXPECT_EQ(Names(false, true, false, false, true),
            Pair("forward", "alias-depth"));
  // A chop or forward slice on the context-sensitive graph is fine.
  EXPECT_EQ(Names(true, false, true, false, false), Pair());
  EXPECT_EQ(Names(false, true, true, false, false), Pair());

  Subject &Sub = subjects().begin()->second;
  ASSERT_NE(Sub.P, nullptr);
  const Instr *Seed = Sub.Seeds.front().first;
  SliceEngine Engine(*Sub.CI);
  SliceQuery Bad = SliceQuery::backward({Seed}, SliceMode::Thin);
  Bad.Forward = true;
  Bad.AliasDepth = 1;
  EXPECT_THROW(Engine.run(Bad, Sub.PTA), std::invalid_argument);
  // A refinement takes exactly one seed and, for expansions, the
  // points-to result.
  SliceQuery TwoSeeds = SliceQuery::backward({Seed, Seed}, SliceMode::Thin);
  TwoSeeds.Forward = true;
  EXPECT_THROW(Engine.run(TwoSeeds), std::invalid_argument);
  SliceQuery NoPta = SliceQuery::backward({Seed}, SliceMode::Thin);
  NoPta.Expand = true;
  EXPECT_THROW(Engine.run(NoPta), std::invalid_argument);
}
