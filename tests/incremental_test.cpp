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

#include "LineOracle.h"
#include "eval/Experiments.h"
#include "eval/Workload.h"
#include "ir/Program.h"
#include "modref/ModRef.h"
#include "pipeline/Session.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"
#include "slicer/Slicer.h"
#include "support/Budget.h"
#include "support/Serialize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

using namespace tsl;

namespace {

/// Shared warm source: a heap helper (its brace on a line of its own),
/// an array and static-field helper, a two-function recursion (one
/// call-graph SCC), a spare leaf, and a main driving them all.
const char *BaseSource = R"(
class Cell {
  var v: int;
}
class Reg {
  static var last: Cell;
}
def put(c: Cell, x: int)
{
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
  // 7. Two bodies edited at once, the first growing by a line: the
  // changed lines span two bodies and the declarations between them.
  S.push_back({"two-body-edit",
               replaced(replaced(BaseSource, "  c.v = x;",
                                 "  var d = c;\n  d.v = x;"),
                        "  return n * 2;", "  return n * 2 + 0;"),
               /*ExpectApplied=*/true});
  // 8. A comment and a blank line right after a body's closing brace:
  // no body changes, but every declaration below moves down a line,
  // which the line-shift map only records at a changed body.
  S.push_back({"comment-after-body",
               replaced(BaseSource, "  c.v = x;\n}\n",
                        "  c.v = x;\n} // end\n\n"),
               /*ExpectApplied=*/false});
  // 9. A body edit plus a comment line after its brace whose text
  // ends like the old brace line, so the changed bytes end inside the
  // body while `def main` still moves down a line.
  S.push_back({"edit-then-comment-line",
               replaced(BaseSource, "  return n * 2;\n}\n",
                        "  return n * 3;\n}\n//}\n"),
               /*ExpectApplied=*/false});
  // 10. A comment and a blank line after a declaration header whose
  // brace sits on the next line: the header is unchanged, but the body
  // below it moves down a line, so it is dirty.
  S.push_back({"lines-after-header",
               replaced(BaseSource, "def put(c: Cell, x: int)\n{",
                        "def put(c: Cell, x: int) // store\n\n{"),
               /*ExpectApplied=*/true});
  // 11. Same body edit under a budget: cached artifacts embed budget
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

/// Canonical name of cloning context \p Ctx: the full chain of its
/// defining objects, each named by objName ("-" for context 0).
std::string ctxName(const PointsToResult &PTA, unsigned Ctx) {
  if (Ctx == 0)
    return "-";
  const unsigned Obj = PTA.contextObject(Ctx);
  return objName(PTA, Obj) + "@[" +
         ctxName(PTA, PTA.objects()[Obj].AllocCtx) + "]";
}

/// Points-to signature over canonical object names: the merged set of
/// every defined local in program order, then the per-context set of
/// every defined local under every call-graph context of its method
/// (sorted, since context ids are visit-order defined). Objects in the
/// per-context rows are named with their whole allocation chain.
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
  const CallGraph &CG = PTA.callGraph();
  std::vector<std::string> CtxRows;
  for (const auto &M : P.methods())
    for (unsigned NodeId : CG.nodesOf(M.get())) {
      const unsigned Ctx = CG.node(NodeId).Ctx;
      const std::string Prefix =
          M->qualifiedName(P.strings()) + "@" + ctxName(PTA, Ctx) + ":";
      for (const auto &BB : M->blocks())
        for (const auto &I : BB->instrs()) {
          if (!I->dest())
            continue;
          std::vector<std::string> Pts;
          PTA.pointsTo(I->dest(), Ctx).forEach([&](unsigned Obj) {
            const unsigned AllocCtx = PTA.objects()[Obj].AllocCtx;
            Pts.push_back(objName(PTA, Obj) + "@[" + ctxName(PTA, AllocCtx) +
                          "]");
          });
          std::sort(Pts.begin(), Pts.end());
          std::string Row = Prefix + std::to_string(I->loc().Line) + ":" +
                            std::to_string(I->loc().Col) + " =";
          for (const std::string &N : Pts)
            Row += " " + N;
          CtxRows.push_back(std::move(Row));
        }
    }
  std::sort(CtxRows.begin(), CtxRows.end());
  for (const std::string &Row : CtxRows)
    OS << Row << "\n";
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
  auto Render = [&](const SparseBitSet &Set) {
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
  EXPECT_TRUE(R.sourceLines() == lineoracle::sortedSourceLines(R));
  std::string Out = std::to_string(R.sizeStmts()) + "|";
  for (const SourceLine &L : R.sourceLines()) {
    Out += L.M->qualifiedName(P.strings());
    Out += ':';
    Out += std::to_string(L.Line);
    Out += ';';
  }
  return Out;
}

/// The graph's snapshot bytes after its build report, whose build time
/// and budget steps differ between two builds of one graph: node and
/// edge ids, kinds, anchors, partitions, contexts and call sites.
std::string sdgBytes(const SDG &G) {
  ByteWriter Report, All;
  putReport(Report, G.report());
  G.encode(All);
  return std::string(All.buffer().begin() + Report.size(),
                     All.buffer().end());
}

/// The graph without its ids: every node as its identity (kind,
/// instruction, method, partition, context) and every edge as the
/// identities it joins, its kind and its call site, each list sorted.
/// The context-insensitive call wiring follows the call graph's edge
/// order, which an edit's points-to update leaves different from a
/// cold solve's discovery order (edges of a relowered body are
/// re-added at the end), so the scalar actual-in nodes and call edges
/// of an edited session's graph take other ids than a cold session's.
/// Everything else about the graph must be the same.
std::string canonicalSdg(const SDG &G) {
  using Identity = std::tuple<unsigned, uint64_t, unsigned, unsigned,
                              unsigned>;
  std::vector<Identity> Nodes;
  for (const SDGNode &N : G.nodes())
    Nodes.emplace_back(static_cast<unsigned>(N.K),
                       N.I ? denseInstrKey(N.I) + 1 : 0,
                       N.M ? N.M->id() + 1 : 0, N.Part, N.Ctx);
  std::vector<std::tuple<Identity, Identity, unsigned, uint64_t>> Edges;
  for (unsigned E = 0; E != G.numEdges(); ++E) {
    const SDGEdge &Ed = G.edge(E);
    Edges.emplace_back(Nodes[Ed.From], Nodes[Ed.To],
                       static_cast<unsigned>(Ed.K),
                       Ed.Site ? denseInstrKey(Ed.Site) + 1 : 0);
  }
  std::sort(Nodes.begin(), Nodes.end());
  std::sort(Edges.begin(), Edges.end());
  std::ostringstream OS;
  auto Put = [&](const Identity &I) {
    OS << std::get<0>(I) << ',' << std::get<1>(I) << ',' << std::get<2>(I)
       << ',' << std::get<3>(I) << ',' << std::get<4>(I);
  };
  for (const Identity &I : Nodes) {
    Put(I);
    OS << ';';
  }
  OS << '|';
  for (const auto &[From, To, K, Site] : Edges) {
    Put(From);
    OS << '>';
    Put(To);
    OS << ':' << K << '@' << Site << ';';
  }
  return OS.str();
}

/// The full observable surface of one session, canonically rendered:
/// points-to and mod-ref signatures, thin and traditional slices from
/// every print statement, a digest of the context-insensitive SDG
/// without its ids (canonicalSdg), and one context-sensitive thin
/// slice (the graphs rebuild after an edit, from the incrementally
/// updated points-to and mod-ref artifacts and the cached method
/// shapes). Checks on the way that the
/// program's line table, patched or rebuilt by the edit, answers every
/// seed lookup as a whole-program scan does.
std::string sessionSignature(AnalysisSession &S) {
  Program *P = S.program();
  EXPECT_NE(P, nullptr) << S.diagnostics().str();
  if (!P)
    return "<compile failed>";
  lineoracle::expectSeedLookupMatchesScan(*P, 0, "session");
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
  // Edits that change a body's instruction count shift the clone
  // bases of every later clone: the graph must still be the cold one.
  const SDG *G = S.sdg();
  EXPECT_NE(G, nullptr);
  OS << "sdg|" << (G ? std::hash<std::string>()(canonicalSdg(*G)) : 0)
     << "\n";
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

// A stream of random line edits — comment, blank and literal edits
// anywhere in the unit, inside bodies or between declarations — each
// checked against a cold session. Whether an edit is eligible or not,
// the session must answer exactly as the cold one does, so a diff that
// splices the wrong lines or misses a line shift shows in the rendered
// slices.
TEST(IncrementalRandom, LineEditsMatchColdAtEveryStep) {
  std::vector<std::string> Lines;
  {
    std::istringstream In(BaseSource);
    for (std::string L; std::getline(In, L);)
      Lines.push_back(L);
  }
  AnalysisSession S{std::string(BaseSource)};
  S.setIncremental(true);
  ASSERT_FALSE(sessionSignature(S).empty());

  std::mt19937_64 R(11);
  constexpr unsigned NumEdits = 40;
  for (unsigned E = 0; E != NumEdits; ++E) {
    const std::size_t At = R() % Lines.size();
    switch (R() % 4) {
    case 0:
      Lines.insert(Lines.begin() + At, "");
      break;
    case 1:
      Lines.insert(Lines.begin() + At, "// note " + std::to_string(E));
      break;
    case 2:
      Lines[At] += " // tail";
      break;
    default: {
      // Rewrite the first digit of the line's literals, if any.
      std::string &L = Lines[At];
      const std::size_t D = L.find_first_of("0123456789");
      if (D != std::string::npos && L.find("//") > D)
        L[D] = static_cast<char>('1' + R() % 9);
      break;
    }
    }
    std::string Src;
    for (const std::string &L : Lines)
      Src += L + "\n";

    S.setSource(Src);
    AnalysisSession Cold(Src);
    EXPECT_EQ(sessionSignature(S), sessionSignature(Cold)) << "edit " << E;
  }
  EXPECT_GE(S.incrementalStats().Applied, NumEdits / 2);
}

// At size: the edit perfbench's edit-slice workload makes — rewrite
// the literal of one padding method's `var acc = x + N;` line — on a
// pad-100 program. Every update must take the fast path, and the
// updated per-context points-to sets and the mod-ref sets (updated
// from the points-to update's affected methods) must equal a cold
// session's after each edit. This is where a finalize that shares a
// node's set with a single-context local, a missed affected method,
// or any retraction slip, would show at scale.
namespace {

/// A seeded stream of the edit perfbench's edit-slice workload makes
/// on a padded program: each step rewrites the literal of one padding
/// method's `var acc = x + N;` line.
class PaddingLiteralEdits {
public:
  PaddingLiteralEdits(unsigned Pad, uint64_t Seed) : R(Seed) {
    const WorkloadProgram W =
        padWorkload(debuggingCases().front().Prog, "BS", Pad, 6);
    Base = W.Source;
    std::istringstream In(W.Source);
    for (std::string L; std::getline(In, L);)
      Lines.push_back(L);
    bool InPad = false;
    for (std::size_t I = 0; I + 1 < Lines.size(); ++I) {
      InPad |= Lines[I].rfind("class PadBS", 0) == 0;
      if (InPad && Lines[I].rfind("  def work", 0) == 0 &&
          Lines[I + 1].rfind("    var acc = x + ", 0) == 0)
        Sites.push_back(I + 1);
    }
  }

  const std::string &base() const { return Base; }
  std::size_t sites() const { return Sites.size(); }

  /// The source after one more edit.
  std::string next() {
    std::string &Line = Lines[Sites[R() % Sites.size()]];
    std::string New;
    do
      New = "    var acc = x + " + std::to_string(1 + R() % 9999) + ";";
    while (New == Line);
    Line = New;
    std::string Src;
    for (const std::string &L : Lines)
      Src += L + "\n";
    return Src;
  }

private:
  std::mt19937_64 R;
  std::string Base;
  std::vector<std::string> Lines;
  std::vector<std::size_t> Sites;
};

} // namespace

TEST(IncrementalAtSize, PaddingLiteralEditsMatchColdPerContext) {
  PaddingLiteralEdits Edits(100, 7);
  ASSERT_EQ(Edits.sites(), 600u);

  AnalysisSession S{std::string(Edits.base())};
  S.setIncremental(true);
  ASSERT_NE(S.pointsTo(), nullptr) << S.diagnostics().str();
  ASSERT_NE(S.modRef(), nullptr);

  constexpr unsigned NumEdits = 12;
  for (unsigned E = 0; E != NumEdits; ++E) {
    const std::string Src = Edits.next();
    S.setSource(Src);
    AnalysisSession Cold(Src);
    ASSERT_NE(S.pointsTo(), nullptr) << "edit " << E;
    ASSERT_NE(Cold.pointsTo(), nullptr) << "edit " << E;
    EXPECT_EQ(ptaSignature(*S.program(), *S.pointsTo()),
              ptaSignature(*Cold.program(), *Cold.pointsTo()))
        << "edit " << E;
    ASSERT_NE(S.modRef(), nullptr) << "edit " << E;
    ASSERT_NE(Cold.modRef(), nullptr) << "edit " << E;
    EXPECT_EQ(modrefSignature(*S.program(), *S.pointsTo(), *S.modRef()),
              modrefSignature(*Cold.program(), *Cold.pointsTo(),
                              *Cold.modRef()))
        << "edit " << E;
  }
  const AnalysisSession::IncrementalStats &St = S.incrementalStats();
  EXPECT_EQ(St.Applied, NumEdits) << St.LastFallbackReason;
  EXPECT_EQ(St.PtaUpdates, NumEdits) << St.LastFallbackReason;
  EXPECT_EQ(St.ModRefUpdates, NumEdits) << St.LastFallbackReason;
  EXPECT_EQ(St.StageFallbacks, 0u) << St.LastFallbackReason;
}

// The same edits, graph by graph. After every edit the session's
// rebuilt context-insensitive SDG, made with the method shapes kept
// across edits, is byte for byte the graph a build without them makes
// from the same updated points-to, and it is the cold session's graph
// but for the ids of the call wiring (canonicalSdg). Each rebuild
// derives only the relowered body's shape. The context-sensitive graph
// is checked once, at pad-25 with mod-ref updated in place: at pad-100
// it has 2.1M nodes and 3.3M edges, and three of them would make this
// the heaviest test of the suite.
TEST(IncrementalAtSize, PaddingLiteralEditsRebuildTheColdSdg) {
  PaddingLiteralEdits Edits(100, 7);
  AnalysisSession S{std::string(Edits.base())};
  S.setIncremental(true);
  ASSERT_NE(S.sdg(), nullptr) << S.diagnostics().str();
  const uint64_t ColdDerived = S.sdgShapes().derived();
  EXPECT_GT(ColdDerived, 0u);

  constexpr unsigned NumEdits = 12;
  for (unsigned E = 0; E != NumEdits; ++E) {
    const std::string Src = Edits.next();
    S.setSource(Src);
    AnalysisSession Cold(Src);
    const SDG *G = S.sdg();
    const SDG *ColdG = Cold.sdg();
    ASSERT_NE(G, nullptr) << "edit " << E;
    ASSERT_NE(ColdG, nullptr) << "edit " << E;
    EXPECT_EQ(S.sdgShapes().derived(), ColdDerived + E + 1) << "edit " << E;
    EXPECT_TRUE(sdgBytes(*G) ==
                sdgBytes(*buildSDG(*S.program(), *S.pointsTo(), nullptr)))
        << "edit " << E;
    EXPECT_EQ(G->report().Status, ColdG->report().Status) << "edit " << E;
    EXPECT_TRUE(canonicalSdg(*G) == canonicalSdg(*ColdG)) << "edit " << E;
  }
  const AnalysisSession::IncrementalStats &St = S.incrementalStats();
  EXPECT_EQ(St.Applied, NumEdits) << St.LastFallbackReason;
  EXPECT_EQ(St.StageFallbacks, 0u) << St.LastFallbackReason;

  PaddingLiteralEdits Small(25, 7);
  AnalysisSession CsS{std::string(Small.base())};
  CsS.setIncremental(true);
  SDGOptions CS;
  CS.ContextSensitive = true;
  CsS.setSDGOptions(CS);
  ASSERT_NE(CsS.sdg(), nullptr) << CsS.diagnostics().str();
  const std::string Src = Small.next();
  CsS.setSource(Src);
  EXPECT_EQ(CsS.incrementalStats().ModRefUpdates, 1u)
      << CsS.incrementalStats().LastFallbackReason;
  AnalysisSession Cold(Src);
  Cold.setSDGOptions(CS);
  const SDG *CsG = CsS.sdg();
  const SDG *ColdCsG = Cold.sdg();
  ASSERT_NE(CsG, nullptr);
  ASSERT_NE(ColdCsG, nullptr);
  EXPECT_TRUE(sdgBytes(*CsG) == sdgBytes(*buildSDG(*CsS.program(),
                                                   *CsS.pointsTo(),
                                                   CsS.modRef(), CS)));
  EXPECT_TRUE(canonicalSdg(*CsG) == canonicalSdg(*ColdCsG));
  EXPECT_EQ(CsS.incrementalStats().StageFallbacks, 0u)
      << CsS.incrementalStats().LastFallbackReason;
}
