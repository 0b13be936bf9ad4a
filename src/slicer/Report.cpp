//===-- Report.cpp - Provenance-annotated slice narration -------------------==//

#include "slicer/Report.h"

#include "ir/Program.h"
#include "support/BitSet.h"

#include <algorithm>
#include <deque>
#include <set>

using namespace tsl;

namespace {

const char *reasonFor(SDGEdgeKind K) {
  switch (K) {
  case SDGEdgeKind::Flow:
    return "produces the value used by";
  case SDGEdgeKind::BaseFlow:
    return "produces a base pointer/index of";
  case SDGEdgeKind::Control:
    return "controls whether it executes";
  case SDGEdgeKind::ParamIn:
    return "passes an argument into";
  case SDGEdgeKind::ParamOut:
    return "returns the value to";
  }
  return "?";
}

} // namespace

SliceNarration tsl::narrateSlice(const SliceResult &Slice, const Instr *Seed,
                                 SliceMode Mode) {
  const SDG &G = Slice.graph();
  std::vector<NarrationStep> Steps;
  BitSet Visited(G.numNodes());
  std::deque<NarrationStep> Queue;
  // Only the slice's own nodes are walked: a context-sensitive slice
  // excludes nodes that plain reachability over the graph would reach.
  auto Enter = [&](unsigned Node, NarrationStep Step) {
    if (Slice.containsNode(Node) && Visited.insert(Node))
      Queue.push_back(Step);
  };
  for (unsigned Node : G.nodesFor(Seed))
    Enter(Node, {Node, -1, SDGEdgeKind::Flow, 0});

  while (!Queue.empty()) {
    NarrationStep Step = Queue.front();
    Queue.pop_front();
    Steps.push_back(Step);
    for (unsigned EdgeId : G.inEdges(Step.Node)) {
      const SDGEdge &E = G.edge(EdgeId);
      if (sliceFollowsEdge(Mode, E.K))
        Enter(E.From, {E.From, static_cast<int>(Step.Node), E.K,
                       Step.Depth + 1});
    }
  }
  return SliceNarration(G, std::move(Steps));
}

std::string SliceNarration::str(unsigned LineOffset) const {
  const Program &P = G.program();
  std::string Out;
  std::set<std::pair<const Method *, unsigned>> SeenLines;
  for (const NarrationStep &Step : Steps) {
    const SDGNode &N = G.node(Step.Node);
    if (!N.isSourceStmt() || !N.I->loc().isValid())
      continue;
    // One narration line per source statement (first reaching edge).
    if (!SeenLines.insert({N.M, N.I->loc().Line}).second)
      continue;
    auto ShowLine = [LineOffset](unsigned Line) {
      return Line > LineOffset ? Line - LineOffset : Line;
    };
    for (unsigned I = 0; I != Step.Depth && I < 12; ++I)
      Out += "  ";
    Out += N.M->qualifiedName(P.strings()) + ":" +
           std::to_string(ShowLine(N.I->loc().Line));
    if (LineOffset && N.I->loc().Line <= LineOffset)
      Out += " [runtime]";
    Out += "  " + N.I->str(P);
    if (Step.ViaNode >= 0) {
      const SDGNode &Via = G.node(static_cast<unsigned>(Step.ViaNode));
      Out += "   [";
      Out += reasonFor(Step.ViaKind);
      if (Via.isSourceStmt() && Via.I->loc().isValid())
        Out += " line " + std::to_string(ShowLine(Via.I->loc().Line));
      Out += "]";
    } else {
      Out += "   [seed]";
    }
    Out += "\n";
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Shared query-report rendering (CLI, REPL, and service).
//===----------------------------------------------------------------------===//

const Instr *tsl::seedAtLine(const Program &P, unsigned Line) {
  const Instr *Last = nullptr;
  for (const auto &M : P.methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs())
        if (I->loc().Line == Line)
          Last = I.get();
  return Last;
}

std::string tsl::renderSliceReport(const SliceResult &Slice,
                                   const std::string &What, unsigned UserLine,
                                   unsigned LineOffset) {
  const Program &P = Slice.graph().program();
  std::string Out = What + " from line " + std::to_string(UserLine) + ": " +
                    std::to_string(Slice.sizeStmts()) + " statements, " +
                    std::to_string(Slice.sourceLines().size()) +
                    " source lines\n";
  for (const SourceLine &L : Slice.sourceLines()) {
    unsigned Shown = L.Line > LineOffset ? L.Line - LineOffset : L.Line;
    Out += "  " + L.M->qualifiedName(P.strings()) + ":" +
           std::to_string(Shown);
    if (L.Line <= LineOffset)
      Out += " [runtime]";
    Out += "\n";
  }
  return Out;
}

std::string tsl::renderSliceBatch(const std::vector<SliceResult> &Results,
                                  const std::string &What,
                                  const std::vector<unsigned> &UserLines,
                                  unsigned LineOffset) {
  std::string Out;
  for (std::size_t I = 0; I != Results.size(); ++I) {
    Out += "=== seed line " + std::to_string(UserLines[I]) + " ===\n";
    Out += renderSliceReport(Results[I], What, UserLines[I], LineOffset);
  }
  return Out;
}

const char *tsl::sliceKindName(SliceMode Mode, bool ContextSensitive) {
  if (ContextSensitive)
    return "context-sensitive slice";
  return Mode == SliceMode::Thin ? "thin slice" : "traditional slice";
}

/// "no statement at line N" with the nearest user-file statement
/// lines suggested when any exist.
static std::string noStatementMessage(const Program &P, unsigned UserLine,
                                      unsigned LineOffset) {
  unsigned AbsLine = UserLine + LineOffset;
  unsigned Below = 0, Above = ~0u;
  for (const auto &M : P.methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs()) {
        unsigned L = I->loc().Line;
        if (L <= LineOffset) // Runtime-library prefix.
          continue;
        if (L < AbsLine)
          Below = std::max(Below, L);
        else if (L > AbsLine)
          Above = std::min(Above, L);
      }
  std::string Near;
  if (Below)
    Near += std::to_string(Below - LineOffset);
  if (Above != ~0u) {
    if (!Near.empty())
      Near += ", ";
    Near += std::to_string(Above - LineOffset);
  }
  std::string Msg = "no statement at line " + std::to_string(UserLine);
  if (!Near.empty())
    Msg += " (nearest statement lines: " + Near + ")";
  return Msg;
}

Expected<const Instr *> tsl::seedForUserLine(const Program &P,
                                             unsigned UserLine,
                                             unsigned LineOffset) {
  // Line 0, and lines whose absolute line would wrap into the prefix.
  if (UserLine == 0 || UserLine > ~0u - LineOffset)
    return Status(StatusCode::InvalidArgument,
                  "line " + std::to_string(UserLine) + " is out of range");
  if (const Instr *Seed = seedAtLine(P, UserLine + LineOffset))
    return Seed;
  return Status(StatusCode::NotFound,
                noStatementMessage(P, UserLine, LineOffset));
}
