//===-- Report.cpp - Provenance-annotated slice narration -------------------==//

#include "slicer/Report.h"

#include "ir/Program.h"
#include "support/BitSet.h"

#include <cassert>
#include <charconv>
#include <cstring>
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
  return P.lineTable().lastAt(Line);
}

namespace {

void appendUnsigned(std::string &Out, std::size_t V) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

std::size_t numDigits(std::size_t V) {
  std::size_t N = 1;
  for (; V >= 10; V /= 10)
    ++N;
  return N;
}

/// renderSliceReport's text for one slice, laid out before it is
/// written: the qualified name of each run of same-method lines is
/// built once, and a capacity that bounds the text closely is known, so
/// a caller allocates its buffer once.
class SliceReport {
public:
  SliceReport(const SliceResult &Slice, const std::string &What,
              unsigned UserLine, unsigned LineOffset)
      : Slice(Slice), What(What), UserLine(UserLine), LineOffset(LineOffset) {
    const Program &P = Slice.graph().program();
    const std::vector<SourceLine> &Lines = Slice.sourceLines();
    Capacity = What.size() + std::strlen(" from line ") + numDigits(UserLine) +
               std::strlen(": ") + numDigits(Slice.sizeStmts()) +
               std::strlen(" statements, ") + numDigits(Lines.size()) +
               std::strlen(" source lines\n");
    for (std::size_t Begin = 0, End; Begin != Lines.size(); Begin = End) {
      End = Begin + 1;
      while (End != Lines.size() && Lines[End].M == Lines[Begin].M)
        ++End;
      RunNames.push_back(Lines[Begin].M->qualifiedName(P.strings()));
      // Each line is "  Name:N\n", plus " [runtime]" inside the prefix.
      // Lines ascend within a run, so its last line has the most digits
      // and only a run that starts inside the prefix can carry the tag.
      const std::size_t PerLine =
          2 + RunNames.back().size() + 1 + numDigits(Lines[End - 1].Line) +
          1 + (Lines[Begin].Line <= LineOffset ? std::strlen(" [runtime]") : 0);
      Capacity += (End - Begin) * PerLine;
    }
  }

  /// At least the length of the text appendTo() writes.
  std::size_t capacity() const { return Capacity; }

  void appendTo(std::string &Out) const {
    const std::size_t Begin = Out.size();
    const std::vector<SourceLine> &Lines = Slice.sourceLines();
    Out += What;
    Out += " from line ";
    appendUnsigned(Out, UserLine);
    Out += ": ";
    appendUnsigned(Out, Slice.sizeStmts());
    Out += " statements, ";
    appendUnsigned(Out, Lines.size());
    Out += " source lines\n";
    std::size_t Run = 0;
    for (std::size_t I = 0; I != Lines.size(); ++I) {
      const SourceLine &L = Lines[I];
      Run += I && L.M != Lines[I - 1].M;
      Out += "  ";
      Out += RunNames[Run];
      Out += ':';
      appendUnsigned(Out, shown(L.Line));
      if (L.Line <= LineOffset)
        Out += " [runtime]";
      Out += '\n';
    }
    assert(Out.size() - Begin <= Capacity && "report capacity too small");
    (void)Begin;
  }

private:
  /// Lines above the runtime prefix are shown relative to it.
  unsigned shown(unsigned Line) const {
    return Line > LineOffset ? Line - LineOffset : Line;
  }

  const SliceResult &Slice;
  const std::string &What;
  unsigned UserLine, LineOffset;
  std::vector<std::string> RunNames;
  std::size_t Capacity = 0;
};

} // namespace

std::string tsl::renderSliceReport(const SliceResult &Slice,
                                   const std::string &What, unsigned UserLine,
                                   unsigned LineOffset) {
  const SliceReport Report(Slice, What, UserLine, LineOffset);
  std::string Out;
  Out.reserve(Report.capacity());
  Report.appendTo(Out);
  return Out;
}

std::string tsl::renderSliceBatch(const std::vector<SliceResult> &Results,
                                  const std::string &What,
                                  const std::vector<unsigned> &UserLines,
                                  unsigned LineOffset) {
  std::vector<SliceReport> Reports;
  Reports.reserve(Results.size());
  std::size_t Size = 0;
  for (std::size_t I = 0; I != Results.size(); ++I) {
    Reports.emplace_back(Results[I], What, UserLines[I], LineOffset);
    Size += std::strlen("=== seed line ") + numDigits(UserLines[I]) +
            std::strlen(" ===\n") + Reports.back().capacity();
  }
  std::string Out;
  Out.reserve(Size);
  for (std::size_t I = 0; I != Results.size(); ++I) {
    Out += "=== seed line ";
    appendUnsigned(Out, UserLines[I]);
    Out += " ===\n";
    Reports[I].appendTo(Out);
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
  const LineTable &T = P.lineTable();
  const unsigned AbsLine = UserLine + LineOffset;
  const unsigned Below = T.lineBelow(AbsLine, LineOffset);
  const unsigned Above = T.lineAbove(AbsLine);
  std::string Near;
  if (Below)
    Near += std::to_string(Below - LineOffset);
  if (Above) {
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
