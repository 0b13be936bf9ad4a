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
#include "lang/Incremental.h"
#include "lang/Lower.h"
#include "modref/ModRef.h"
#include "pipeline/Session.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"

#include <gtest/gtest.h>

#include <algorithm>

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

// The CS heap wiring is linear in its endpoints: one hub per (method,
// partition) joins the writers to the readers, so edges stay within 3x
// the statement and heap-parameter nodes. Emitting every writer x
// reader pair, with a call x call loop for actual-out -> actual-in, the
// ratio read 11.1 at pad-12 and 24.8 at pad-25. The heap-parameter
// count is the paper's Sec. 6.1 blowup statistic and must not move:
// EXPERIMENTS.md's Scalability table reads 45781 at pad-12.
TEST(Scale, ContextSensitiveHeapEdgesAreLinear) {
  for (unsigned Pad : {12u, 25u}) {
    WorkloadProgram W =
        padWorkload(debuggingCases().front().Prog, "BS", Pad, 6);
    DiagnosticEngine Diag;
    std::unique_ptr<Program> P = compileThinJ(W.Source, Diag);
    ASSERT_TRUE(P) << Diag.str();
    std::unique_ptr<PointsToResult> PTA = runPointsTo(*P);
    ModRefResult MR(*P, *PTA);
    SDGOptions Opts;
    Opts.ContextSensitive = true;
    std::unique_ptr<SDG> G = buildSDG(*P, *PTA, &MR, Opts);
    ASSERT_FALSE(G->report().degraded());
    const uint64_t Nodes =
        uint64_t(G->numStmtNodes()) + G->numHeapParamNodes();
    EXPECT_LE(G->numEdges(), 3 * Nodes)
        << "pad-" << Pad << ": " << G->numEdges() << " edges for " << Nodes
        << " statement and heap-parameter nodes";
    if (Pad == 12) {
      EXPECT_EQ(G->numHeapParamNodes(), 45781u);
    }
  }
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

namespace {

/// Counts the differences between two graphs over the same program:
/// node tuples, edges in id order, every (node, kind) in- and out-CSR
/// segment, and every instruction's statement index entry.
std::size_t graphDifferences(const Program &P, const SDG &A, const SDG &B) {
  if (A.numNodes() != B.numNodes() || A.numEdges() != B.numEdges())
    return ~std::size_t(0);
  auto SameRange = [](IdRange X, IdRange Y) {
    return X.size() == Y.size() && std::equal(X.begin(), X.end(), Y.begin());
  };
  std::size_t Diffs = 0;
  for (unsigned N = 0; N != A.numNodes(); ++N) {
    const SDGNode &X = A.node(N), &Y = B.node(N);
    Diffs += X.K != Y.K || X.I != Y.I || X.M != Y.M || X.Part != Y.Part ||
             X.Ctx != Y.Ctx || X.Id != Y.Id;
    for (unsigned K = 0; K != NumSDGEdgeKinds; ++K) {
      const auto Kind = static_cast<SDGEdgeKind>(K);
      Diffs += !SameRange(A.inEdgesOfKind(N, Kind), B.inEdgesOfKind(N, Kind));
      Diffs +=
          !SameRange(A.outEdgesOfKind(N, Kind), B.outEdgesOfKind(N, Kind));
    }
  }
  for (unsigned E = 0; E != A.numEdges(); ++E) {
    const SDGEdge &X = A.edge(E), &Y = B.edge(E);
    Diffs += X.From != Y.From || X.To != Y.To || X.K != Y.K || X.Site != Y.Site;
  }
  for (const auto &M : P.methods())
    for (const Instr *I : M->instrs())
      Diffs += !SameRange(A.nodesFor(I), B.nodesFor(I));
  return Diffs;
}

/// Encodes \p G, decodes the payload and counts the differences.
std::size_t roundTripDifferences(const Program &P, const SDG &G) {
  ByteWriter W;
  G.encode(W);
  ByteReader R(W.buffer());
  std::unique_ptr<SDG> Decoded = SDG::decode(R, P);
  EXPECT_EQ(R.remaining(), 0u);
  return graphDifferences(P, G, *Decoded);
}

} // namespace

// Sealing and decoding are linear at size: the repeat scan, the
// counting statement index and decode's per-context stamps. A decoded
// graph reproduces the built one exactly, heap hubs included.
TEST(Scale, SdgRoundTripsThroughSnapshotCodec) {
  {
    WorkloadProgram W =
        padWorkload(debuggingCases().front().Prog, "BS", 100, 6);
    DiagnosticEngine Diag;
    std::unique_ptr<Program> P = compileThinJ(W.Source, Diag);
    ASSERT_TRUE(P) << Diag.str();
    std::unique_ptr<PointsToResult> PTA = runPointsTo(*P);
    std::unique_ptr<SDG> G = buildSDG(*P, *PTA, nullptr);
    ASSERT_FALSE(G->report().degraded());
    EXPECT_GT(G->numEdges(), 60000u);
    EXPECT_EQ(roundTripDifferences(*P, *G), 0u) << "CI pad-100";
  }
  {
    WorkloadProgram W =
        padWorkload(debuggingCases().front().Prog, "BS", 12, 6);
    DiagnosticEngine Diag;
    std::unique_ptr<Program> P = compileThinJ(W.Source, Diag);
    ASSERT_TRUE(P) << Diag.str();
    std::unique_ptr<PointsToResult> PTA = runPointsTo(*P);
    ModRefResult MR(*P, *PTA);
    SDGOptions Opts;
    Opts.ContextSensitive = true;
    std::unique_ptr<SDG> G = buildSDG(*P, *PTA, &MR, Opts);
    ASSERT_FALSE(G->report().degraded());
    EXPECT_GT(G->numHeapParamNodes(), 0u);
    EXPECT_EQ(roundTripDifferences(*P, *G), 0u) << "CS pad-12";
  }
}

namespace {

/// Work of one edit: the points-to update's SolverStats::UpdateWork
/// and the cached diff's token comparisons, for the edit of one body
/// and for an edit of two neighbouring bodies at once.
struct EditWork {
  uint64_t PtaWork = 0;
  uint64_t DiffTokens = 0;
  uint64_t TwoBodyDiffTokens = 0;
};

/// perfbench's edit-slice edit — rewrite the literal of a padding
/// method's `var acc = x + N;` line — on the first padding method of a
/// pad-\p Pad program, measured on the second of two edits so the
/// first pays the one-time update index and scan cache.
EditWork paddingLiteralEditWork(unsigned Pad) {
  const WorkloadProgram W =
      padWorkload(debuggingCases().front().Prog, "BS", Pad, 6);
  const std::string Needle = "    var acc = x + 1;\n";
  const std::size_t Pos = W.Source.find(Needle, W.Source.find("class PadBS"));
  EXPECT_NE(Pos, std::string::npos);
  const std::size_t Next = W.Source.find(Needle, Pos + Needle.size());
  EXPECT_NE(Next, std::string::npos);
  auto Edited = [&](unsigned Literal, unsigned NextLiteral = 1) {
    std::string S = W.Source;
    // The later site first, so the earlier one's offset still holds.
    S.replace(Next, Needle.size(),
              "    var acc = x + " + std::to_string(NextLiteral) + ";\n");
    S.replace(Pos, Needle.size(),
              "    var acc = x + " + std::to_string(Literal) + ";\n");
    return S;
  };
  EditWork Out;
  AnalysisSession S{std::string(W.Source)};
  S.setIncremental(true);
  EXPECT_NE(S.pointsTo(), nullptr) << S.diagnostics().str();
  S.setSource(Edited(4242));
  S.setSource(Edited(17));
  EXPECT_NE(S.pointsTo(), nullptr);
  EXPECT_EQ(S.incrementalStats().PtaUpdates, 2u)
      << S.incrementalStats().LastFallbackReason;
  Out.PtaWork = S.pointsTo() ? S.pointsTo()->stats().UpdateWork : 0;

  ScanCache Cache;
  const std::string A = Edited(4242), B = Edited(17);
  EXPECT_TRUE(diffThinJSource(W.Source, A, &Cache).Eligible);
  const SourceDiff D = diffThinJSource(A, B, &Cache);
  EXPECT_TRUE(D.Eligible);
  EXPECT_EQ(D.Dirty.size(), 1u);
  Out.DiffTokens = D.TokensCompared;
  const SourceDiff Two = diffThinJSource(B, Edited(4242, 99), &Cache);
  EXPECT_TRUE(Two.Eligible);
  EXPECT_EQ(Two.Dirty.size(), 2u);
  Out.TwoBodyDiffTokens = Two.TokensCompared;
  return Out;
}

} // namespace

// An edit's cost tracks the edit, not the program: the same padding
// literal edit at pad-25 and at pad-100 (4x the program) does the same
// points-to update work and compares the same tokens, within 1.5x, and
// so does a diff that changes two neighbouring bodies at once.
// Whole-program passes would scale with the program: the node and
// edge scans of the update's retraction and replays, the snapshot of
// every (local, context) pair and the region-by-region token compare
// all grow about 4x between these two sizes.
TEST(Scale, PaddingLiteralEditWorkIsEditSized) {
  const EditWork Small = paddingLiteralEditWork(25);
  const EditWork Large = paddingLiteralEditWork(100);
  EXPECT_GT(Small.PtaWork, 0u);
  EXPECT_GT(Small.DiffTokens, 0u);
  EXPECT_LE(Large.PtaWork * 2, Small.PtaWork * 3)
      << "pad-25 " << Small.PtaWork << " vs pad-100 " << Large.PtaWork;
  EXPECT_LE(Large.DiffTokens * 2, Small.DiffTokens * 3)
      << "pad-25 " << Small.DiffTokens << " vs pad-100 " << Large.DiffTokens;
  EXPECT_GT(Small.TwoBodyDiffTokens, Small.DiffTokens);
  EXPECT_LE(Large.TwoBodyDiffTokens * 2, Small.TwoBodyDiffTokens * 3)
      << "pad-25 " << Small.TwoBodyDiffTokens << " vs pad-100 "
      << Large.TwoBodyDiffTokens;
}

// The SDG rebuild after perfbench's edit-slice edit derives the shape
// of the one relowered body and reuses every other method's, at pad-25
// and at pad-100 alike; the cold build derived one shape per method
// with a body. Deriving every shape again (flow and control
// dependences, the heap-access scan) would grow with the program.
TEST(Scale, PaddingLiteralEditSdgShapesAreEditSized) {
  auto Shapes = [](unsigned Pad) {
    const WorkloadProgram W =
        padWorkload(debuggingCases().front().Prog, "BS", Pad, 6);
    const std::string Needle = "    var acc = x + 1;\n";
    const std::size_t Pos =
        W.Source.find(Needle, W.Source.find("class PadBS"));
    EXPECT_NE(Pos, std::string::npos);
    std::string Edited = W.Source;
    Edited.replace(Pos, Needle.size(), "    var acc = x + 4242;\n");
    AnalysisSession S{std::string(W.Source)};
    S.setIncremental(true);
    EXPECT_NE(S.sdg(), nullptr) << S.diagnostics().str();
    const uint64_t Bodies = static_cast<uint64_t>(std::count_if(
        S.program()->methods().begin(), S.program()->methods().end(),
        [](const auto &M) { return M->entry() != nullptr; }));
    EXPECT_EQ(S.sdgShapes().derived(), Bodies);
    EXPECT_EQ(S.sdgShapes().reused(), 0u);
    S.setSource(Edited);
    EXPECT_EQ(S.incrementalStats().Applied, 1u)
        << S.incrementalStats().LastFallbackReason;
    EXPECT_NE(S.sdg(), nullptr);
    EXPECT_EQ(S.sdgShapes().reused(), Bodies - 1);
    return S.sdgShapes().derived() - Bodies;
  };
  EXPECT_EQ(Shapes(25), 1u);
  EXPECT_EQ(Shapes(100), 1u);
}

// perfbench's edit-slice edit moves no line, so the line table patches
// only the relowered body: it rewrites the same number of entries at
// pad-25 and at pad-100. Re-indexing every body, or rebuilding the
// line -> method map, would write about 4x as many at pad-100.
TEST(Scale, PaddingLiteralEditPatchesLineTableEditSized) {
  auto EntriesWritten = [](unsigned Pad) -> uint64_t {
    const WorkloadProgram W =
        padWorkload(debuggingCases().front().Prog, "BS", Pad, 6);
    const std::string Needle = "    var acc = x + 1;\n";
    const std::size_t Pos =
        W.Source.find(Needle, W.Source.find("class PadBS"));
    EXPECT_NE(Pos, std::string::npos);
    std::string Edited = W.Source;
    Edited.replace(Pos, Needle.size(), "    var acc = x + 4242;\n");
    AnalysisSession S{std::string(W.Source)};
    S.setIncremental(true);
    EXPECT_NE(S.program(), nullptr) << S.diagnostics().str();
    const uint64_t Before = S.program()->lineTable().entriesWritten();
    S.setSource(Edited);
    EXPECT_EQ(S.incrementalStats().Applied, 1u)
        << S.incrementalStats().LastFallbackReason;
    return S.program()->lineTable().entriesWritten() - Before;
  };
  const uint64_t Small = EntriesWritten(25);
  const uint64_t Large = EntriesWritten(100);
  EXPECT_GT(Small, 0u);
  EXPECT_EQ(Large, Small);
}
