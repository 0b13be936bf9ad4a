//===-- snapshot_test.cpp - Snapshot-vs-cold differential suite -----------------==//
//
// The contract of the persistent-snapshot layer (DESIGN.md section
// 14): a session warm-started by loadSnapshot() answers every query
// byte-identically to a cold session compiled from the same source
// with the same options. The differential grid runs {context-
// insensitive, context-sensitive} x threads {1, 4}, compares
// canonical artifact signatures (points-to, mod-ref, rendered
// slices), and checks that warm-start composes with incremental
// edits and with the content-addressed cache directory
// (hit/miss/evict). A snapshot holds the program and the SDG only:
// the lazy-layer tests check that no slice after a load computes
// points-to or mod-ref, and that the queries reading points-to
// compute it once.
//
// The suite carries the "snapshot" ctest label: the
// TSL_SANITIZE=address and TSL_SANITIZE=thread trees run it
// (`ctest -L snapshot`), so decode-by-replay and the pointer-free
// row tables are also leak- and race-checked.
//
//===----------------------------------------------------------------------===//

#include "LineOracle.h"
#include "eval/Experiments.h"
#include "eval/Runtime.h"
#include "eval/Workload.h"
#include "ir/Program.h"
#include "ir/ProgramIO.h"
#include "lang/Lower.h"
#include "modref/ModRef.h"
#include "pipeline/Session.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"
#include "slicer/Report.h"
#include "slicer/Slicer.h"
#include "support/Budget.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace tsl;

namespace fs = std::filesystem;

namespace {

/// Exercises every serialized layer: heap flow through a field, a
/// container-like double indirection, a two-function SCC, a downcast,
/// and several print seeds.
const char *BaseSource = R"(
class Cell {
  var v: int;
}
class Box {
  var c: Cell;
}
def put(c: Cell, x: int) {
  c.v = x;
}
def even(n: int): int {
  if (n < 1) { return 1; }
  return odd(n - 1);
}
def odd(n: int): int {
  if (n < 1) { return 0; }
  return even(n - 1);
}
def main() {
  var a = new Cell();
  var b = new Box();
  b.c = a;
  put(b.c, readInt());
  var o: Object = b;
  var back = (Box) o;
  var k = even(readInt());
  print(a.v);
  print(back.c.v);
  print(k);
}
)";

std::string replaced(std::string Src, const std::string &Old,
                     const std::string &New) {
  const std::size_t At = Src.find(Old);
  EXPECT_NE(At, std::string::npos) << Old;
  if (At != std::string::npos)
    Src.replace(At, Old.size(), New);
  return Src;
}

/// Canonical name of an abstract object: allocation-site position and
/// context depth (object ids may be permuted between builds; source
/// positions are not).
std::string objName(const PointsToResult &PTA, unsigned Obj) {
  const AbstractObject &O = PTA.objects()[Obj];
  std::ostringstream OS;
  OS << "L" << (O.Site ? O.Site->loc().Line : 0) << "C"
     << (O.Site ? O.Site->loc().Col : 0) << "D" << O.CtxDepth;
  return OS.str();
}

std::string ptaSignature(const Program &P, const PointsToResult &PTA) {
  std::ostringstream OS;
  OS << "cgnodes=" << PTA.callGraph().nodes().size()
     << ";cgedges=" << PTA.callGraph().edges().size() << "\n";
  for (const auto &M : P.methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs()) {
        if (!I->dest())
          continue;
        std::vector<std::string> Pts;
        PTA.pointsTo(I->dest()).forEach(
            [&](unsigned Obj) { Pts.push_back(objName(PTA, Obj)); });
        std::sort(Pts.begin(), Pts.end());
        OS << M->qualifiedName(P.strings()) << ":" << I->loc().Line << ":"
           << I->loc().Col << " =";
        for (const std::string &N : Pts)
          OS << " " << N;
        OS << "\n";
      }
  return OS.str();
}

std::string modrefSignature(const Program &P, const ModRefResult &MR) {
  std::ostringstream OS;
  auto Render = [&](const SparseBitSet &Set) {
    std::vector<std::string> Names;
    Set.forEach([&](unsigned Id) { Names.push_back(MR.partitionName(Id, P)); });
    std::sort(Names.begin(), Names.end());
    for (const std::string &N : Names)
      OS << " " << N;
  };
  for (const auto &M : P.methods()) {
    OS << M->qualifiedName(P.strings()) << " mod:";
    Render(MR.modOf(M.get()));
    OS << " ref:";
    Render(MR.refOf(M.get()));
    OS << "\n";
  }
  return OS.str();
}

std::vector<const Instr *> printSeeds(const Program &P) {
  std::vector<const Instr *> Seeds;
  for (const auto &M : P.methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs())
        if (isa<PrintInstr>(I.get()))
          Seeds.push_back(I.get());
  return Seeds;
}

std::string renderSlice(const SliceResult &R, const Program &P) {
  std::string Out = std::to_string(R.sizeStmts()) + "|";
  for (const SourceLine &L : R.sourceLines()) {
    Out += L.M->qualifiedName(P.strings());
    Out += ':';
    Out += std::to_string(L.Line);
    Out += ';';
  }
  return Out;
}

/// The full observable surface of one session under its CURRENT
/// options (the SDG mode is not toggled here: the suite compares a
/// warm-started session against a cold one per mode, so the loaded
/// SDG itself is what answers).
std::string sessionSignature(AnalysisSession &S) {
  Program *P = S.program();
  EXPECT_NE(P, nullptr) << S.diagnostics().str();
  if (!P)
    return "<compile failed>";
  lineoracle::expectSeedLookupMatchesScan(*P, 0, "session");
  std::ostringstream OS;
  OS << ptaSignature(*P, *S.pointsTo());
  OS << modrefSignature(*P, *S.modRef());
  for (const Instr *Seed : printSeeds(*P))
    for (SliceMode Mode : {SliceMode::Thin, SliceMode::Traditional}) {
      const SliceResult *R = S.sliceBackwardCached(Seed, Mode);
      EXPECT_NE(R, nullptr);
      OS << Seed->loc().Line << (Mode == SliceMode::Thin ? "t|" : "T|")
         << (R ? renderSlice(*R, *P) : "<null>") << "\n";
    }
  return OS.str();
}

std::string tempPath(const std::string &Name) {
  return (fs::temp_directory_path() / Name).string();
}

std::string readBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

/// (ContextSensitive, Threads) grid point.
class SnapshotDifferential
    : public ::testing::TestWithParam<std::tuple<bool, unsigned>> {};

void applyOptions(AnalysisSession &S, bool CS, unsigned Threads) {
  S.setThreads(Threads);
  SDGOptions SO;
  SO.ContextSensitive = CS;
  S.setSDGOptions(SO);
}

/// Memoization counters of stage \p Stage: {hits, misses}.
std::pair<uint64_t, uint64_t> stageCounts(const AnalysisSession &S,
                                          SessionStage Stage) {
  const StageReport R = S.stageReports()[static_cast<unsigned>(Stage)];
  return {R.CacheHits, R.CacheMisses};
}

/// Hits and misses of every artifact stage (compile through the SDG).
std::vector<std::pair<uint64_t, uint64_t>>
artifactCounts(const AnalysisSession &S) {
  return {stageCounts(S, SessionStage::Compile),
          stageCounts(S, SessionStage::PTA),
          stageCounts(S, SessionStage::ModRef),
          stageCounts(S, SessionStage::SDGBuild)};
}

} // namespace

TEST_P(SnapshotDifferential, LoadIsByteIdenticalToColdRebuild) {
  const bool CS = std::get<0>(GetParam());
  const unsigned Threads = std::get<1>(GetParam());
  const std::string Snap = tempPath(
      std::string("tsl_snapshot_diff_") + (CS ? "cs" : "ci") +
      std::to_string(Threads) + ".tslsnap");

  AnalysisSession Cold{std::string(BaseSource)};
  applyOptions(Cold, CS, Threads);
  const std::string Reference = sessionSignature(Cold);
  ASSERT_FALSE(Reference.empty());

  AnalysisSession Saver{std::string(BaseSource)};
  applyOptions(Saver, CS, Threads);
  ASSERT_TRUE(Saver.saveSnapshot(Snap).isOk()) << Saver.lastError().str();
  EXPECT_EQ(Saver.snapshotStats().Saves, 1u);

  AnalysisSession Warm{std::string(BaseSource)};
  applyOptions(Warm, CS, Threads);
  ASSERT_TRUE(Warm.loadSnapshot(Snap).isOk());
  EXPECT_EQ(Warm.snapshotStats().Loads, 1u);
  EXPECT_EQ(Warm.snapshotStats().Fallbacks, 0u);
  EXPECT_EQ(sessionSignature(Warm), Reference);

  // The saver's own signature matches too (saving must not perturb).
  EXPECT_EQ(sessionSignature(Saver), Reference);
  fs::remove(Snap);
}

TEST_P(SnapshotDifferential, ResaveOfLoadedSessionIsByteIdentical) {
  // encode(decode(x)) == x: the snapshot of a warm-started session is
  // the same byte string as the snapshot it was started from — the
  // canonical-order encoders leak no container iteration order.
  const bool CS = std::get<0>(GetParam());
  const unsigned Threads = std::get<1>(GetParam());
  const std::string SnapA = tempPath(
      std::string("tsl_snapshot_rt_a_") + (CS ? "cs" : "ci") +
      std::to_string(Threads) + ".tslsnap");
  const std::string SnapB = tempPath(
      std::string("tsl_snapshot_rt_b_") + (CS ? "cs" : "ci") +
      std::to_string(Threads) + ".tslsnap");

  AnalysisSession Saver{std::string(BaseSource)};
  applyOptions(Saver, CS, Threads);
  ASSERT_TRUE(Saver.saveSnapshot(SnapA).isOk()) << Saver.lastError().str();

  AnalysisSession Warm{std::string(BaseSource)};
  applyOptions(Warm, CS, Threads);
  ASSERT_TRUE(Warm.loadSnapshot(SnapA).isOk());
  // The load installed everything the file holds: the resave computes
  // nothing (every stage of it is a cache hit or untouched).
  const auto Before = artifactCounts(Warm);
  ASSERT_TRUE(Warm.saveSnapshot(SnapB).isOk()) << Warm.lastError().str();
  const auto After = artifactCounts(Warm);
  for (std::size_t I = 0; I != After.size(); ++I)
    EXPECT_EQ(After[I].second, Before[I].second) << "stage " << I;
  EXPECT_EQ(stageCounts(Warm, SessionStage::PTA),
            std::make_pair(uint64_t(0), uint64_t(0)));
  EXPECT_EQ(stageCounts(Warm, SessionStage::ModRef),
            std::make_pair(uint64_t(0), uint64_t(0)));

  EXPECT_EQ(readBytes(SnapA), readBytes(SnapB));
  fs::remove(SnapA);
  fs::remove(SnapB);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SnapshotDifferential,
    ::testing::Combine(::testing::Bool(), ::testing::Values(1u, 4u)),
    [](const ::testing::TestParamInfo<std::tuple<bool, unsigned>> &Info) {
      return std::string(std::get<0>(Info.param) ? "CS" : "CI") + "Threads" +
             std::to_string(std::get<1>(Info.param));
    });

// Every slice after a warm start runs on the loaded SDG: thin,
// traditional, a batch and a narration leave points-to and mod-ref
// uncomputed, and answer like a cold session.
TEST_P(SnapshotDifferential, PlainQueriesAfterLoadComputeNeitherLayer) {
  const bool CS = std::get<0>(GetParam());
  const unsigned Threads = std::get<1>(GetParam());
  const std::string Snap = tempPath(
      std::string("tsl_snapshot_plain_") + (CS ? "cs" : "ci") +
      std::to_string(Threads) + ".tslsnap");

  AnalysisSession Saver{std::string(BaseSource)};
  applyOptions(Saver, CS, Threads);
  ASSERT_TRUE(Saver.saveSnapshot(Snap).isOk()) << Saver.lastError().str();

  auto Answers = [&](AnalysisSession &S) {
    Program *P = S.program();
    EXPECT_NE(P, nullptr);
    if (!P)
      return std::string("<compile failed>");
    const std::vector<const Instr *> Seeds = printSeeds(*P);
    std::string Out;
    for (SliceMode Mode : {SliceMode::Thin, SliceMode::Traditional}) {
      for (const Instr *Seed : Seeds) {
        const SliceResult *R = S.sliceBackwardCached(Seed, Mode);
        EXPECT_NE(R, nullptr) << S.lastError().str();
        if (!R)
          continue;
        Out += renderSlice(*R, *P) + "\n";
        Out += narrateSlice(*R, Seed, Mode).str(0);
      }
      const SliceAnswer *Batch =
          S.slice(SliceQuery::backward(Seeds, Mode, CS));
      EXPECT_NE(Batch, nullptr) << S.lastError().str();
      if (Batch)
        for (const SliceResult &R : Batch->Results)
          Out += "batch " + renderSlice(R, *P) + "\n";
    }
    return Out;
  };

  AnalysisSession Cold{std::string(BaseSource)};
  applyOptions(Cold, CS, Threads);
  const std::string Reference = Answers(Cold);

  AnalysisSession Warm{std::string(BaseSource)};
  applyOptions(Warm, CS, Threads);
  ASSERT_TRUE(Warm.loadSnapshot(Snap).isOk());
  EXPECT_EQ(Answers(Warm), Reference);
  const auto None = std::make_pair(uint64_t(0), uint64_t(0));
  EXPECT_EQ(stageCounts(Warm, SessionStage::PTA), None);
  EXPECT_EQ(stageCounts(Warm, SessionStage::ModRef), None);
  EXPECT_EQ(stageCounts(Warm, SessionStage::SDGBuild).second, 0u);
  fs::remove(Snap);
}

// An expansion reads points-to: after a warm start the first one
// computes it, once, from the decoded program, and every answer equals
// a cold session's.
TEST(SnapshotLazyLayers, ExpansionAfterLoadComputesPointsToOnce) {
  const std::string Snap = tempPath("tsl_snapshot_expand.tslsnap");
  AnalysisSession Saver{std::string(BaseSource)};
  ASSERT_TRUE(Saver.saveSnapshot(Snap).isOk()) << Saver.lastError().str();

  auto Expansions = [](AnalysisSession &S) {
    Program *P = S.program();
    EXPECT_NE(P, nullptr);
    if (!P)
      return std::string("<compile failed>");
    std::string Out;
    for (const Instr *Seed : printSeeds(*P))
      for (unsigned Depth : {1u, 2u, 0u}) {
        SliceQuery Q = SliceQuery::backward({Seed}, SliceMode::Thin);
        if (Depth)
          Q.AliasDepth = Depth;
        else
          Q.Expand = true;
        const SliceAnswer *A = S.slice(Q);
        EXPECT_NE(A, nullptr) << S.lastError().str();
        Out += A ? renderSlice(A->Results.front(), *P) + "\n" : "<null>\n";
      }
    return Out;
  };

  AnalysisSession Cold{std::string(BaseSource)};
  const std::string Reference = Expansions(Cold);

  AnalysisSession Warm{std::string(BaseSource)};
  ASSERT_TRUE(Warm.loadSnapshot(Snap).isOk());
  EXPECT_EQ(Expansions(Warm), Reference);
  EXPECT_EQ(stageCounts(Warm, SessionStage::PTA).second, 1u);
  EXPECT_EQ(stageCounts(Warm, SessionStage::ModRef),
            std::make_pair(uint64_t(0), uint64_t(0)));
  EXPECT_EQ(stageCounts(Warm, SessionStage::SDGBuild).second, 0u);
  fs::remove(Snap);
}

// Slicing never reads mod-ref without a CS graph, so saving a
// context-insensitive session leaves it uncomputed.
TEST(SnapshotLazyLayers, ContextInsensitiveSaveLeavesModRefUncomputed) {
  const std::string Snap = tempPath("tsl_snapshot_ci_modref.tslsnap");
  AnalysisSession S{std::string(BaseSource)};
  ASSERT_TRUE(S.saveSnapshot(Snap).isOk()) << S.lastError().str();
  EXPECT_EQ(stageCounts(S, SessionStage::ModRef),
            std::make_pair(uint64_t(0), uint64_t(0)));
  EXPECT_EQ(stageCounts(S, SessionStage::PTA).second, 1u);
  EXPECT_EQ(stageCounts(S, SessionStage::SDGBuild).second, 1u);
  fs::remove(Snap);
}

// The file is the header and exactly three sections: Meta, Program
// and Sdg, in that order.
TEST(SnapshotFormat, FileHoldsMetaProgramAndSdgOnly) {
  for (bool CS : {false, true}) {
    const std::string Snap = tempPath("tsl_snapshot_sections.tslsnap");
    AnalysisSession S{std::string(BaseSource)};
    applyOptions(S, CS, 1);
    ASSERT_TRUE(S.saveSnapshot(Snap).isOk()) << S.lastError().str();
    const std::string Bytes = readBytes(Snap);
    ByteReader R(reinterpret_cast<const uint8_t *>(Bytes.data()),
                 Bytes.size());
    EXPECT_EQ(R.u32(), TSL_SNAPSHOT_MAGIC);
    EXPECT_EQ(R.u32(), TSL_SNAPSHOT_VERSION);
    EXPECT_EQ(TSL_SNAPSHOT_VERSION, 3u);
    EXPECT_NO_THROW({
      R.section(SnapshotSection::Meta);
      R.section(SnapshotSection::Program);
      R.section(SnapshotSection::Sdg);
    }) << (CS ? "CS" : "CI");
    EXPECT_TRUE(R.atEnd()) << (CS ? "CS" : "CI");
    fs::remove(Snap);
  }
}

TEST(SnapshotIncremental, LoadThenEditEqualsColdThenEdit) {
  // Warm-start composes with the incremental layer: a session that
  // loads a snapshot and then applies a body edit answers exactly
  // like a session that built cold and applied the same edit (the
  // loaded session holds no points-to to update, so the edit takes
  // no stage fallback and the next query computes it cold).
  const std::string Snap = tempPath("tsl_snapshot_edit.tslsnap");
  const std::string Edited =
      replaced(BaseSource, "  c.v = x;", "  var d = c;\n  d.v = x + 1 - 1;");

  AnalysisSession Saver{std::string(BaseSource)};
  ASSERT_TRUE(Saver.saveSnapshot(Snap).isOk()) << Saver.lastError().str();

  AnalysisSession ColdEdit{std::string(BaseSource)};
  ColdEdit.setIncremental(true);
  ASSERT_NE(ColdEdit.program(), nullptr);
  ColdEdit.setSource(Edited);
  const std::string Reference = sessionSignature(ColdEdit);

  AnalysisSession Warm{std::string(BaseSource)};
  Warm.setIncremental(true);
  ASSERT_TRUE(Warm.loadSnapshot(Snap).isOk());
  Warm.setSource(Edited);
  EXPECT_EQ(Warm.incrementalStats().Applied, 1u);
  EXPECT_EQ(Warm.incrementalStats().StageFallbacks, 0u);
  EXPECT_EQ(sessionSignature(Warm), Reference);

  // And against a fully cold session on the edited source.
  AnalysisSession ColdFresh{Edited};
  EXPECT_EQ(sessionSignature(ColdFresh), Reference);
  fs::remove(Snap);
}

TEST(SnapshotVersion, PreviousFormatIsRefusedAndRebuiltCold) {
  // Version 2 snapshots also carried points-to and mod-ref sections. A
  // file with that version number is refused by the version check
  // before any section is read, and the session answers cold.
  const std::string Snap = tempPath("tsl_snapshot_v2.tslsnap");
  AnalysisSession Saver{std::string(BaseSource)};
  ASSERT_TRUE(Saver.saveSnapshot(Snap).isOk()) << Saver.lastError().str();
  std::string Bytes = readBytes(Snap);
  ASSERT_GE(Bytes.size(), 8u);
  // Bytes 4..7 hold the little-endian format version.
  Bytes[4] = 2;
  Bytes[5] = Bytes[6] = Bytes[7] = 0;
  std::ofstream(Snap, std::ios::binary | std::ios::trunc) << Bytes;

  AnalysisSession S{std::string(BaseSource)};
  Status L = S.loadSnapshot(Snap);
  EXPECT_FALSE(L.isOk());
  EXPECT_EQ(S.snapshotStats().LastFallbackReason,
            "format version 2 != " + std::to_string(TSL_SNAPSHOT_VERSION));
  EXPECT_EQ(S.snapshotStats().Loads, 0u);
  AnalysisSession Cold{std::string(BaseSource)};
  EXPECT_EQ(sessionSignature(S), sessionSignature(Cold));
  fs::remove(Snap);
}

TEST(SnapshotBudget, BudgetedSessionsRefuseToSerialize) {
  AnalysisBudget B;
  B.BudgetMs = 60'000;
  B.start();
  AnalysisSession S{std::string(BaseSource)};
  S.setBudget(&B);
  Status St = S.saveSnapshot(tempPath("tsl_snapshot_budget.tslsnap"));
  EXPECT_FALSE(St.isOk());
  EXPECT_EQ(St.code(), StatusCode::ResourceExhausted) << St.str();
  EXPECT_EQ(S.snapshotStats().Saves, 0u);
}

//===----------------------------------------------------------------------===//
// SDG section decode: a payload no cold build produces is rejected
//===----------------------------------------------------------------------===//

namespace {

/// A hand-written SDG section payload: statement nodes (instruction,
/// context, owning method) in id order and edges in id order.
struct SdgPayload {
  struct Node {
    const Instr *I;
    unsigned Ctx;
    /// The node's method; null writes the instruction's own.
    const Method *M = nullptr;
  };
  struct Edge {
    unsigned From, To;
    SDGEdgeKind K;
    const CallInstr *Site;
  };
  std::vector<Node> Nodes;
  std::vector<Edge> Edges;

  std::vector<uint8_t> bytes() const {
    ByteWriter W;
    putReport(W, StageReport{"sdg", StageStatus::Complete, "", "", 0, 0});
    W.vu64(Nodes.size());
    for (const Node &N : Nodes) {
      W.u8(static_cast<uint8_t>(SDGNodeKind::Stmt));
      W.vu64(denseInstrKey(N.I) + 1);
      W.vu32((N.M ? N.M : N.I->parent()->parent())->id() + 1);
      W.vu32(0); // Partition.
      W.vu32(N.Ctx);
    }
    W.vu64(Edges.size());
    for (const Edge &E : Edges) {
      W.vu32(E.From);
      W.vu32(E.To);
      W.u8(static_cast<uint8_t>(E.K));
      W.vu64(E.Site ? denseInstrKey(E.Site) + 1 : 0);
    }
    return W.buffer();
  }

  std::unique_ptr<SDG> decode(const Program &P) const {
    std::vector<uint8_t> B = bytes();
    ByteReader R(B);
    return SDG::decode(R, P);
  }

  /// Expects decode() to throw a SerializeError naming \p What.
  void expectRejected(const Program &P, const std::string &What) const {
    try {
      decode(P);
      ADD_FAILURE() << "payload decoded; expected \"" << What << "\"";
    } catch (const SerializeError &E) {
      EXPECT_NE(std::string(E.what()).find(What), std::string::npos)
          << E.what();
    }
  }
};

/// The call sites of \p P's main method, in renumbered order.
std::vector<const CallInstr *> mainCalls(const Program &P) {
  std::vector<const CallInstr *> Out;
  for (const Instr *I : P.mainMethod()->instrs())
    if (const auto *C = dyn_cast<CallInstr>(I))
      Out.push_back(C);
  return Out;
}

/// A main method with two call sites.
constexpr const char *TwoCallsSource =
    "def id(x: int): int { return x; }\n"
    "def main() { print(id(1)); print(id(2)); }\n";

} // namespace

// A decoded program carries a line table equal to the scan's answers:
// the decoder indexes each body as it renumbers it.
TEST(SnapshotDecode, DecodedProgramLineTableMatchesScan) {
  std::vector<std::pair<std::string, WorkloadProgram>> Workloads;
  for (BugCase &C : debuggingCases())
    Workloads.emplace_back(C.Id, std::move(C.Prog));
  for (CastCase &C : toughCastCases())
    Workloads.emplace_back(C.Id, std::move(C.Prog));
  Workloads.emplace_back(
      "pad-100", padWorkload(debuggingCases().front().Prog, "BS", 100, 6));
  for (const auto &[Id, W] : Workloads) {
    DiagnosticEngine Diag;
    std::unique_ptr<Program> P = compileThinJ(W.Source, Diag);
    ASSERT_TRUE(P) << Id << ": " << Diag.str();
    ByteWriter Out;
    encodeProgram(*P, Out);
    ByteReader In(Out.buffer());
    std::unique_ptr<Program> Decoded = decodeProgram(In);
    ASSERT_TRUE(Decoded) << Id;
    lineoracle::expectSeedLookupMatchesScan(*Decoded, runtimeLibraryLines(),
                                            Id);
  }
}

TEST(SnapshotDecode, RepeatedSdgEdgeIsRejected) {
  AnalysisSession S{"def main() { print(1); }\n"};
  const Program *P = S.program();
  ASSERT_NE(P, nullptr);
  const Instr *I = P->mainMethod()->instrs().front();

  // One statement node with its Flow self-edge once is well formed.
  SdgPayload Once{{{I, 0}}, {{0, 0, SDGEdgeKind::Flow, nullptr}}};
  std::unique_ptr<SDG> G = Once.decode(*P);
  EXPECT_EQ(G->numNodes(), 1u);
  EXPECT_EQ(G->numEdges(), 1u);

  SdgPayload Twice = Once;
  Twice.Edges.push_back(Twice.Edges.front());
  Twice.expectRejected(*P, "duplicate SDG edge");
}

// The repeat scan walks each node's out-edges of one kind; the copies
// of an edge need not be neighbours in id order.
TEST(SnapshotDecode, NonAdjacentRepeatedSdgEdgeIsRejected) {
  AnalysisSession S{TwoCallsSource};
  const Program *P = S.program();
  ASSERT_NE(P, nullptr);
  const std::vector<Instr *> &Body = P->mainMethod()->instrs();
  ASSERT_GE(Body.size(), 3u);
  SdgPayload G{{{Body[0], 0}, {Body[1], 0}, {Body[2], 0}},
               {{0, 1, SDGEdgeKind::Flow, nullptr},
                {0, 2, SDGEdgeKind::Flow, nullptr},
                {1, 0, SDGEdgeKind::Flow, nullptr},
                {0, 1, SDGEdgeKind::Control, nullptr},
                {0, 1, SDGEdgeKind::Flow, nullptr}}};
  G.expectRejected(*P, "duplicate SDG edge");
}

// Edge identity is (From, To, kind, site): sharing the ends is not a
// repeat when the site or the kind differs.
TEST(SnapshotDecode, EdgesDifferingInSiteOrKindDecode) {
  AnalysisSession S{TwoCallsSource};
  const Program *P = S.program();
  ASSERT_NE(P, nullptr);
  std::vector<const CallInstr *> Calls = mainCalls(*P);
  ASSERT_EQ(Calls.size(), 2u);
  const CallInstr *C1 = Calls[0], *C2 = Calls[1];
  const std::vector<Instr *> &Body = P->mainMethod()->instrs();
  SdgPayload Payload{{{Body[0], 0}, {Body[1], 0}},
                     {{0, 1, SDGEdgeKind::ParamIn, C1},
                      {0, 1, SDGEdgeKind::Flow, nullptr},
                      {0, 1, SDGEdgeKind::ParamIn, C2},
                      {0, 1, SDGEdgeKind::Control, nullptr},
                      {0, 1, SDGEdgeKind::BaseFlow, nullptr}}};
  std::unique_ptr<SDG> G = Payload.decode(*P);
  ASSERT_EQ(G->numEdges(), 5u);
  for (unsigned Id = 0; Id != 5; ++Id) {
    EXPECT_EQ(G->edge(Id).K, Payload.Edges[Id].K) << Id;
    EXPECT_EQ(G->edge(Id).Site, Payload.Edges[Id].Site) << Id;
  }
  IdRange ParamIn = G->outEdgesOfKind(0, SDGEdgeKind::ParamIn);
  ASSERT_EQ(ParamIn.size(), 2u);
  EXPECT_EQ(ParamIn[0], 0u);
  EXPECT_EQ(ParamIn[1], 2u);
}

// A container method has a clone per receiver allocation site, so one
// instruction can have thousands of statement nodes. The context check
// over them is linear, and their index order is ascending node id.
TEST(SnapshotDecode, InstructionClonedInManyContextsDecodes) {
  AnalysisSession S{"def main() { print(1); }\n"};
  const Program *P = S.program();
  ASSERT_NE(P, nullptr);
  const Instr *I = P->mainMethod()->instrs().front();
  constexpr unsigned Clones = 2000;
  SdgPayload Payload;
  for (unsigned C = 0; C != Clones; ++C)
    Payload.Nodes.push_back({I, (C * 7919u) % Clones});
  std::unique_ptr<SDG> G = Payload.decode(*P);
  IdRange R = G->nodesFor(I);
  ASSERT_EQ(R.size(), Clones);
  for (unsigned C = 0; C != Clones; ++C)
    EXPECT_EQ(R[C], C);
  EXPECT_EQ(G->nodeFor(I, (1234u * 7919u) % Clones), 1234);
}

// The statement index addresses a node by its method's instruction
// base plus I->id(), so a statement must belong to its method.
TEST(SnapshotDecode, StatementOutsideItsMethodIsRejected) {
  AnalysisSession S{TwoCallsSource};
  const Program *P = S.program();
  ASSERT_NE(P, nullptr);
  const Method *Main = P->mainMethod();
  const Method *Other = nullptr;
  for (const auto &M : P->methods())
    if (M.get() != Main && !M->instrs().empty())
      Other = M.get();
  ASSERT_NE(Other, nullptr);
  SdgPayload Payload{{{Main->instrs().back(), 0, Other}}, {}};
  Payload.expectRejected(*P, "statement node outside its method");
}

TEST(SnapshotDecode, RepeatedStatementIdentityIsRejected) {
  AnalysisSession S{TwoCallsSource};
  const Program *P = S.program();
  ASSERT_NE(P, nullptr);
  const std::vector<Instr *> &Body = P->mainMethod()->instrs();
  ASSERT_GE(Body.size(), 2u);
  // Contexts 0..1999 of one instruction, interleaved with clones of
  // another, then context 7 again: the repeat is far from its twin.
  SdgPayload Payload;
  for (unsigned C = 0; C != 2000; ++C) {
    Payload.Nodes.push_back({Body[0], C});
    Payload.Nodes.push_back({Body[1], C});
  }
  EXPECT_NO_THROW(Payload.decode(*P));
  Payload.Nodes.push_back({Body[0], 7});
  Payload.expectRejected(*P, "duplicate SDG node identity");
}

//===----------------------------------------------------------------------===//
// Content-addressed cache directory: miss, hit, evict
//===----------------------------------------------------------------------===//

namespace {

struct CacheDirGuard {
  explicit CacheDirGuard(std::string P) : Path(std::move(P)) {
    fs::remove_all(Path);
  }
  ~CacheDirGuard() { fs::remove_all(Path); }
  std::size_t entries() const {
    if (!fs::exists(Path))
      return 0;
    std::size_t N = 0;
    for (const auto &E : fs::directory_iterator(Path))
      if (E.path().extension() == ".tslsnap")
        ++N;
    return N;
  }
  std::string Path;
};

} // namespace

TEST(SnapshotCacheDir, MissPopulatesThenHitWarmStarts) {
  CacheDirGuard Dir(tempPath("tsl_snapshot_cache_hitmiss"));

  AnalysisSession First{std::string(BaseSource)};
  First.setCacheDir(Dir.Path);
  EXPECT_FALSE(First.tryLoadFromCacheDir());
  EXPECT_EQ(First.snapshotStats().CacheMisses, 1u);
  const std::string Reference = sessionSignature(First);
  ASSERT_TRUE(First.saveToCacheDir().isOk()) << First.lastError().str();
  EXPECT_EQ(First.snapshotStats().Saves, 1u);
  EXPECT_EQ(Dir.entries(), 1u);

  AnalysisSession Second{std::string(BaseSource)};
  Second.setCacheDir(Dir.Path);
  EXPECT_TRUE(Second.tryLoadFromCacheDir());
  EXPECT_EQ(Second.snapshotStats().CacheHits, 1u);
  EXPECT_EQ(Second.snapshotStats().Loads, 1u);
  EXPECT_EQ(sessionSignature(Second), Reference);

  // A different option digest is a miss, never a wrong-config hit.
  AnalysisSession Other{std::string(BaseSource)};
  Other.setCacheDir(Dir.Path);
  PTAOptions PO;
  PO.ObjSensContainers = false;
  Other.setPTAOptions(PO);
  EXPECT_FALSE(Other.tryLoadFromCacheDir());
  EXPECT_EQ(Other.snapshotStats().CacheMisses, 1u);
}

TEST(SnapshotCacheDir, EvictionKeepsTheNewestEntries) {
  CacheDirGuard Dir(tempPath("tsl_snapshot_cache_evict"));
  const std::size_t Max = AnalysisSession::MaxCacheDirEntries;

  // One tiny distinct program per entry, two past the cap.
  uint64_t Evictions = 0;
  for (std::size_t I = 0; I != Max + 2; ++I) {
    AnalysisSession S{"def main() { print(" + std::to_string(I + 1) +
                      "); }\n"};
    S.setCacheDir(Dir.Path);
    EXPECT_FALSE(S.tryLoadFromCacheDir());
    ASSERT_TRUE(S.saveToCacheDir().isOk()) << S.lastError().str();
    Evictions += S.snapshotStats().CacheEvictions;
  }
  EXPECT_EQ(Dir.entries(), Max);
  EXPECT_EQ(Evictions, 2u);

  // The newest entry survived the eviction and still hits.
  AnalysisSession S{"def main() { print(" + std::to_string(Max + 2) +
                    "); }\n"};
  S.setCacheDir(Dir.Path);
  EXPECT_TRUE(S.tryLoadFromCacheDir());
}

// Eviction is least recently used, not first in, first out: a hit
// makes its entry the newest, so a snapshot every daemon restart loads
// outlives newer entries nobody reads.
TEST(SnapshotCacheDir, EvictionSparesTheRecentlyLoadedEntry) {
  CacheDirGuard Dir(tempPath("tsl_snapshot_cache_lru"));
  const std::size_t Max = AnalysisSession::MaxCacheDirEntries;
  auto SourceOf = [](std::size_t I) {
    return "def main() { print(" + std::to_string(I + 1) + "); }\n";
  };

  // Fill the cache to its cap. Each entry is dated one minute after
  // the previous one, so the order does not hang on the file system's
  // timestamp granularity.
  const auto Base = fs::file_time_type::clock::now() - std::chrono::hours(1);
  std::set<fs::path> Seen;
  for (std::size_t I = 0; I != Max; ++I) {
    AnalysisSession S{SourceOf(I)};
    S.setCacheDir(Dir.Path);
    ASSERT_TRUE(S.saveToCacheDir().isOk()) << S.lastError().str();
    for (const auto &E : fs::directory_iterator(Dir.Path))
      if (Seen.insert(E.path()).second)
        fs::last_write_time(E.path(), Base + std::chrono::minutes(I));
  }
  ASSERT_EQ(Dir.entries(), Max);

  // Load the oldest entry, then save one more.
  {
    AnalysisSession S{SourceOf(0)};
    S.setCacheDir(Dir.Path);
    ASSERT_TRUE(S.tryLoadFromCacheDir());
  }
  {
    AnalysisSession S{SourceOf(Max)};
    S.setCacheDir(Dir.Path);
    ASSERT_TRUE(S.saveToCacheDir().isOk()) << S.lastError().str();
    EXPECT_EQ(S.snapshotStats().CacheEvictions, 1u);
  }
  EXPECT_EQ(Dir.entries(), Max);

  // The loaded entry survived; the oldest one nobody loaded went.
  AnalysisSession Hit{SourceOf(0)};
  Hit.setCacheDir(Dir.Path);
  EXPECT_TRUE(Hit.tryLoadFromCacheDir());
  AnalysisSession Evicted{SourceOf(1)};
  Evicted.setCacheDir(Dir.Path);
  EXPECT_FALSE(Evicted.tryLoadFromCacheDir());
}
