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
// (hit/miss/evict).
//
// The suite carries the "snapshot" ctest label: the
// TSL_SANITIZE=address and TSL_SANITIZE=thread trees run it
// (`ctest -L snapshot`), so decode-by-replay and the pointer-free
// row tables are also leak- and race-checked.
//
//===----------------------------------------------------------------------===//

#include "ir/Program.h"
#include "modref/ModRef.h"
#include "pipeline/Session.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"
#include "slicer/Slicer.h"
#include "support/Budget.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
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
  ASSERT_TRUE(Warm.saveSnapshot(SnapB).isOk()) << Warm.lastError().str();

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

TEST(SnapshotIncremental, LoadThenEditEqualsColdThenEdit) {
  // Warm-start composes with the incremental layer: a session that
  // loads a snapshot and then applies a body edit answers exactly
  // like a session that built cold and applied the same edit (the
  // snapshot's pure-lookup points-to declines in-place update and
  // rebuilds cold — soundness first).
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
  EXPECT_EQ(sessionSignature(Warm), Reference);

  // And against a fully cold session on the edited source.
  AnalysisSession ColdFresh{Edited};
  EXPECT_EQ(sessionSignature(ColdFresh), Reference);
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

/// An SDG section payload holding one statement node (the first
/// instruction of a method of \p P) and \p NumEdges copies of its
/// Flow self-edge.
std::vector<uint8_t> oneNodeSdgPayload(const Program &P, unsigned NumEdges) {
  const Method *M = nullptr;
  for (const auto &Cand : P.methods())
    if (Cand->entry() && !Cand->entry()->instrs().empty()) {
      M = Cand.get();
      break;
    }
  EXPECT_NE(M, nullptr);
  if (!M)
    return {};
  const Instr *I = M->entry()->instrs().front().get();
  ByteWriter W;
  putReport(W, StageReport{"sdg", StageStatus::Complete, "", "", 0, 0});
  W.vu64(1);
  W.u8(static_cast<uint8_t>(SDGNodeKind::Stmt));
  W.vu64(denseInstrKey(I) + 1);
  W.vu32(M->id() + 1);
  W.vu32(0); // Partition.
  W.vu32(0); // Context.
  W.vu64(NumEdges);
  for (unsigned E = 0; E != NumEdges; ++E) {
    W.vu32(0);
    W.vu32(0);
    W.u8(static_cast<uint8_t>(SDGEdgeKind::Flow));
    W.vu64(0); // No call site.
  }
  return W.buffer();
}

} // namespace

TEST(SnapshotDecode, RepeatedSdgEdgeIsRejected) {
  AnalysisSession S{"def main() { print(1); }\n"};
  const Program *P = S.program();
  ASSERT_NE(P, nullptr);

  // The same payload with the edge once is well formed.
  std::vector<uint8_t> Once = oneNodeSdgPayload(*P, 1);
  ByteReader OnceR(Once);
  std::unique_ptr<SDG> G = SDG::decode(OnceR, *P);
  EXPECT_EQ(G->numNodes(), 1u);
  EXPECT_EQ(G->numEdges(), 1u);

  std::vector<uint8_t> Twice = oneNodeSdgPayload(*P, 2);
  ByteReader TwiceR(Twice);
  try {
    SDG::decode(TwiceR, *P);
    ADD_FAILURE() << "a repeated edge decoded";
  } catch (const SerializeError &E) {
    EXPECT_NE(std::string(E.what()).find("duplicate SDG edge"),
              std::string::npos)
        << E.what();
  }
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
