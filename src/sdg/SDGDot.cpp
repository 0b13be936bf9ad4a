//===-- SDGDot.cpp - GraphViz export ----------------------------------------==//

#include "sdg/SDGDot.h"

using namespace tsl;

namespace {

/// Escapes a label for dot.
std::string escape(const std::string &Text) {
  std::string Out;
  for (char C : Text) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

const char *edgeStyle(SDGEdgeKind K) {
  switch (K) {
  case SDGEdgeKind::Flow:
    return "solid";
  case SDGEdgeKind::BaseFlow:
    return "dashed";
  case SDGEdgeKind::Control:
    return "dotted";
  case SDGEdgeKind::ParamIn:
  case SDGEdgeKind::ParamOut:
    return "solid";
  }
  return "solid";
}

const char *edgeColor(SDGEdgeKind K) {
  switch (K) {
  case SDGEdgeKind::Flow:
    return "black";
  case SDGEdgeKind::BaseFlow:
    return "gray50";
  case SDGEdgeKind::Control:
    return "gray35";
  case SDGEdgeKind::ParamIn:
    return "blue4";
  case SDGEdgeKind::ParamOut:
    return "darkgreen";
  }
  return "black";
}

} // namespace

std::string tsl::exportDot(const SDG &G, const DotOptions &Options) {
  const Program &P = G.program();
  std::string Out = "digraph sdg {\n  node [shape=box, fontsize=10];\n";

  auto Included = [&](unsigned Node) {
    if (Options.Restrict && !Options.Restrict->test(Node))
      return false;
    if (Options.SourceStmtsOnly && !G.node(Node).isSourceStmt())
      return false;
    return true;
  };

  unsigned Emitted = 0;
  BitSet EmittedSet(G.numNodes());
  for (unsigned Node = 0; Node != G.numNodes() && Emitted < Options.MaxNodes;
       ++Node) {
    if (!Included(Node))
      continue;
    const SDGNode &N = G.node(Node);
    std::string Label;
    if (N.isSourceStmt()) {
      Label = N.M->qualifiedName(P.strings()) + ":" +
              std::to_string(N.I->loc().Line) + "\\n" + escape(N.I->str(P));
      if (N.K == SDGNodeKind::ScalarActualIn)
        Label += " [actual]";
      if (N.Ctx)
        Label += " @ctx" + std::to_string(N.Ctx);
    } else {
      Label = (N.K == SDGNodeKind::HeapHub ? "heap hub #" : "heap param #") +
              std::to_string(N.Part);
    }
    Out += "  n" + std::to_string(Node) + " [label=\"" + Label + "\"];\n";
    EmittedSet.insert(Node);
    ++Emitted;
  }

  for (unsigned EdgeId = 0; EdgeId != G.numEdges(); ++EdgeId) {
    const SDGEdge &E = G.edge(EdgeId);
    if (!EmittedSet.test(E.From) || !EmittedSet.test(E.To))
      continue;
    Out += "  n" + std::to_string(E.From) + " -> n" + std::to_string(E.To) +
           " [style=" + edgeStyle(E.K) + ", color=" + edgeColor(E.K) +
           ", tooltip=\"" + sdgEdgeKindName(E.K) + "\"];\n";
  }
  Out += "}\n";
  return Out;
}
