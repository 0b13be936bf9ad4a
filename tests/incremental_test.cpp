//===-- incremental_test.cpp - Incremental-vs-cold differential suite -----------==//
//
// The contract of the function-granular incremental reanalysis layer
// (DESIGN.md section 13): after any setSource() edit, a session with
// incremental mode on answers every query byte-identically to a cold
// session compiled from the edited source. Each edit script below
// warms a session, applies its edit, and compares canonical artifact
// signatures and rendered slices against the cold rebuild — at
// threads 1 and 4, since the update path must compose with the
// session's slice-batch pool. The SDG is never updated in place: the
// first query after an edit builds it cold from the updated
// points-to, so this suite checks the points-to and mod-ref updates.
//
// Eligible edits (body-only changes, including bodies inside a
// call-graph SCC) must take the fast path and reuse every untouched
// function; ineligible edits (added/removed functions, signature
// changes) and budgeted sessions must fall back cold — soundness
// first, the fast path is purely a performance optimization.
//
// The suite carries the "incremental" ctest label: the
// TSL_SANITIZE=address and TSL_SANITIZE=thread trees run it alongside
// engine/pipeline/parallel/chaos, so retract-and-replay is also
// leak- and race-checked.
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
#include <sstream>
#include <string>
#include <vector>

using namespace tsl;

namespace {

/// Shared warm source: a heap helper, an array and static-field
/// helper, a two-function recursion (one call-graph SCC), a spare
/// leaf, and a main driving them all.
const char *BaseSource = R"(
class Cell {
  var v: int;
}
class Reg {
  static var last: Cell;
}
def put(c: Cell, x: int) {
  c.v = x;
}
def stash(c: Cell, n: int): int {
  var box = new Cell[2];
  box[0] = c;
  Reg.last = box[0];
  return n + 1;
}
def even(n: int): int {
  if (n < 1) { return 1; }
  return odd(n - 1);
}
def odd(n: int): int {
  if (n < 1) { return 0; }
  return even(n - 1);
}
def spare(n: int): int {
  return n * 2;
}
def main() {
  var a = new Cell();
  put(a, readInt());
  var k = even(readInt());
  print(a.v);
  print(k);
  print(spare(3));
  print(stash(a, 2));
  var l = Reg.last;
  print(l.v);
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

struct EditScript {
  const char *Name;
  std::string Edited;
  bool ExpectApplied; ///< Fast path must apply (vs must fall back cold).
  bool Budgeted = false;
};

std::vector<EditScript> editScripts() {
  std::vector<EditScript> S;
  // 1. Body edit: rewrite a heap store through a fresh alias.
  S.push_back({"body-edit",
               replaced(BaseSource, "  c.v = x;",
                        "  var d = c;\n  d.v = x + 1 - 1;"),
               /*ExpectApplied=*/true});
  // 2. Added function: skeleton change, must rebuild cold.
  S.push_back({"add-function",
               replaced(replaced(BaseSource, "def main",
                                 "def extra(n: int): int {\n"
                                 "  return n + 7;\n"
                                 "}\n"
                                 "def main"),
                        "  print(spare(3));",
                        "  print(spare(3));\n  print(extra(1));"),
               /*ExpectApplied=*/false});
  // 3. Deleted function: skeleton change, must rebuild cold.
  S.push_back({"delete-function",
               replaced(replaced(BaseSource,
                                 "def spare(n: int): int {\n"
                                 "  return n * 2;\n"
                                 "}\n",
                                 ""),
                        "  print(spare(3));\n", ""),
               /*ExpectApplied=*/false});
  // 4. Signature change: arity change plus matching call sites.
  S.push_back({"signature-change",
               replaced(replaced(BaseSource, "def spare(n: int): int {\n"
                                             "  return n * 2;",
                                 "def spare(n: int, m: int): int {\n"
                                 "  return n * 2 + m;"),
                        "print(spare(3));", "print(spare(3, 4));"),
               /*ExpectApplied=*/false});
  // 5. Edit inside a collapsed call-graph SCC: odd <-> even recurse
  // into each other, so the dirty body sits in a points-to cycle.
  S.push_back({"scc-edit",
               replaced(BaseSource, "  return even(n - 1);",
                        "  var t = even(n - 1);\n  return t + 0;"),
               /*ExpectApplied=*/true});
  // 6. Body edit over the heap kinds the other scripts miss, in one
  // function: a new array allocation, an array store/load of a fresh
  // object, and a static field written and read back. The static
  // field's points-to set changes (main's Cell -> the fresh Cell), so
  // a stale fact surviving retraction shows in main's last slice.
  S.push_back({"array-static-edit",
               replaced(BaseSource,
                        "  var box = new Cell[2];\n"
                        "  box[0] = c;\n"
                        "  Reg.last = box[0];\n"
                        "  return n + 1;",
                        "  var box = new Cell[3];\n"
                        "  box[1] = new Cell();\n"
                        "  Reg.last = box[1];\n"
                        "  var e = Reg.last;\n"
                        "  return n + e.v;"),
               /*ExpectApplied=*/true});
  // 7. Same body edit under a budget: cached artifacts embed budget
  // outcomes, so the session must decline and rebuild cold.
  S.push_back({"budgeted-edit",
               replaced(BaseSource, "  c.v = x;",
                        "  var d = c;\n  d.v = x + 1 - 1;"),
               /*ExpectApplied=*/false, /*Budgeted=*/true});
  return S;
}

/// Canonical name of an abstract object: its allocation site position
/// and context depth. Object *ids* are permuted between an
/// incremental update and a cold run; site positions are not.
std::string objName(const PointsToResult &PTA, unsigned Obj) {
  const AbstractObject &O = PTA.objects()[Obj];
  std::ostringstream OS;
  OS << "L" << (O.Site ? O.Site->loc().Line : 0) << "C"
     << (O.Site ? O.Site->loc().Col : 0) << "D" << O.CtxDepth;
  return OS.str();
}

/// Points-to signature over canonical object names, in program order.
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

/// Mod-ref signature over partition *content* (partition ids interned
/// by an incremental update are permuted relative to a cold run, and
/// so are the object ids partitionName() prints, hence objName()).
std::string modrefSignature(const Program &P, const PointsToResult &PTA,
                            const ModRefResult &MR) {
  std::ostringstream OS;
  auto Name = [&](unsigned Id) {
    const HeapPartition &Part = MR.partition(Id);
    switch (Part.K) {
    case HeapPartition::Kind::Field:
      return objName(PTA, Part.Obj) + "." + P.strings().str(Part.F->name());
    case HeapPartition::Kind::ArrayElem:
      return objName(PTA, Part.Obj) + "[*]";
    case HeapPartition::Kind::Static:
      break;
    }
    return MR.partitionName(Id, P);
  };
  auto Render = [&](const BitSet &Set) {
    std::vector<std::string> Names;
    Set.forEach([&](unsigned Id) { Names.push_back(Name(Id)); });
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

/// The full observable surface of one session, canonically rendered:
/// points-to and mod-ref signatures, thin and traditional slices from
/// every print statement, and one context-sensitive thin slice (the
/// CS graph always rebuilds, but from the incrementally-updated
/// points-to and mod-ref artifacts).
std::string sessionSignature(AnalysisSession &S) {
  Program *P = S.program();
  EXPECT_NE(P, nullptr) << S.diagnostics().str();
  if (!P)
    return "<compile failed>";
  std::ostringstream OS;
  OS << ptaSignature(*P, *S.pointsTo());
  OS << modrefSignature(*P, *S.pointsTo(), *S.modRef());
  for (const Instr *Seed : printSeeds(*P))
    for (SliceMode Mode : {SliceMode::Thin, SliceMode::Traditional}) {
      const SliceResult *R = S.sliceBackwardCached(Seed, Mode);
      EXPECT_NE(R, nullptr);
      OS << Seed->loc().Line << (Mode == SliceMode::Thin ? "t|" : "T|")
         << (R ? renderSlice(*R, *P) : "<null>") << "\n";
    }
  SDGOptions CS;
  CS.ContextSensitive = true;
  S.setSDGOptions(CS);
  const SliceResult *CsR =
      S.sliceBackwardCached(printSeeds(*P).back(), SliceMode::Thin);
  EXPECT_NE(CsR, nullptr);
  OS << "cs|" << (CsR ? renderSlice(*CsR, *P) : "<null>") << "\n";
  S.setSDGOptions(SDGOptions{});
  return OS.str();
}

class IncrementalDifferential : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(IncrementalDifferential, EditScriptsMatchColdRebuild) {
  const unsigned Threads = GetParam();
  for (const EditScript &Script : editScripts()) {
    AnalysisBudget B;
    B.BudgetMs = 60'000;
    B.start();

    AnalysisSession S{std::string(BaseSource)};
    S.setThreads(Threads);
    S.setIncremental(true);
    if (Script.Budgeted)
      S.setBudget(&B);
    // Warm every stage (and the caches the update path patches).
    ASSERT_FALSE(sessionSignature(S).empty()) << Script.Name;

    S.setSource(Script.Edited);
    const AnalysisSession::IncrementalStats &St = S.incrementalStats();
    EXPECT_EQ(St.Attempts, 1u) << Script.Name;
    if (Script.ExpectApplied) {
      // The fast path must actually run: compile reuse, an in-place
      // points-to update, and a mod-ref update, with no stage falling
      // back — a silent cold fallback here is a performance
      // regression. The SDG is rebuilt cold by the next query.
      EXPECT_EQ(St.Applied, 1u)
          << Script.Name << ": " << St.LastFallbackReason;
      EXPECT_GT(St.FunctionsReused, 0u) << Script.Name;
      EXPECT_GT(St.FunctionsRecompiled, 0u) << Script.Name;
      EXPECT_EQ(St.PtaUpdates, 1u)
          << Script.Name << ": " << St.LastFallbackReason;
      EXPECT_EQ(St.ModRefUpdates, 1u)
          << Script.Name << ": " << St.LastFallbackReason;
      EXPECT_EQ(St.StageFallbacks, 0u)
          << Script.Name << ": " << St.LastFallbackReason;
    } else {
      EXPECT_EQ(St.Applied, 0u) << Script.Name;
      EXPECT_GE(St.ColdFallbacks, 1u) << Script.Name;
      EXPECT_FALSE(St.LastFallbackReason.empty()) << Script.Name;
    }

    const std::string Incremental = sessionSignature(S);

    AnalysisSession Cold(Script.Edited);
    Cold.setThreads(Threads);
    const std::string Reference = sessionSignature(Cold);

    EXPECT_EQ(Incremental, Reference) << Script.Name;
  }
}

// A session absorbs a whole edit *stream*, not one edit: chain every
// script's edit through one session (cold-eligible and fast-path
// edits interleaved), checking the differential contract after each
// step. This is the REPL `edit`/`reload` usage pattern.
TEST_P(IncrementalDifferential, ChainedEditStreamMatchesColdAtEveryStep) {
  const unsigned Threads = GetParam();
  AnalysisSession S{std::string(BaseSource)};
  S.setThreads(Threads);
  S.setIncremental(true);
  ASSERT_FALSE(sessionSignature(S).empty());

  uint64_t AppliedSoFar = 0;
  for (const EditScript &Script : editScripts()) {
    if (Script.Budgeted)
      continue; // The stream stays unbudgeted.
    S.setSource(Script.Edited);
    AppliedSoFar += Script.ExpectApplied ? 1 : 0;

    AnalysisSession Cold(Script.Edited);
    Cold.setThreads(Threads);
    EXPECT_EQ(sessionSignature(S), sessionSignature(Cold)) << Script.Name;

    // Return to base so every script edits the same skeleton; this
    // reverse edit is itself incremental for body-only scripts.
    S.setSource(std::string(BaseSource));
    AppliedSoFar += Script.ExpectApplied ? 1 : 0;
    AnalysisSession ColdBase{std::string(BaseSource)};
    ColdBase.setThreads(Threads);
    EXPECT_EQ(sessionSignature(S), sessionSignature(ColdBase))
        << Script.Name << " (reverse)";
  }
  EXPECT_EQ(S.incrementalStats().Applied, AppliedSoFar);
  EXPECT_GT(S.incrementalStats().FunctionsReused, 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, IncrementalDifferential,
                         ::testing::Values(1u, 4u));
