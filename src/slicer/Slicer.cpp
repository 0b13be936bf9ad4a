//===-- Slicer.cpp - Thin and traditional slicing ------------------------------==//

#include "slicer/Slicer.h"

#include "ir/Program.h"

#include <cassert>
#include <optional>
#include <unordered_set>

using namespace tsl;

EdgeKindMask tsl::sliceEdgeMask(SliceMode Mode) {
  EdgeKindMask Mask = edgeKindMask(SDGEdgeKind::Flow) |
                      edgeKindMask(SDGEdgeKind::ParamIn) |
                      edgeKindMask(SDGEdgeKind::ParamOut);
  if (Mode == SliceMode::Traditional)
    Mask |= edgeKindMask(SDGEdgeKind::BaseFlow) |
            edgeKindMask(SDGEdgeKind::Control);
  return Mask;
}

bool SliceResult::containsLine(const Method *M, unsigned Line) const {
  bool Found = false;
  Nodes.forEach([&](unsigned Node) {
    const SDGNode &N = G->node(Node);
    if (N.isSourceStmt() && N.M == M && N.I->loc().Line == Line)
      Found = true;
  });
  return Found;
}

const std::vector<const Instr *> &SliceResult::statements() const {
  if (StmtsValid)
    return CachedStmts;
  // Clones of one statement appear as separate nodes; dedup with a
  // seen-set rather than a linear scan per node.
  CachedStmts.clear();
  std::unordered_set<const Instr *> Seen;
  Nodes.forEach([&](unsigned Node) {
    const SDGNode &N = G->node(Node);
    if (N.isSourceStmt() && Seen.insert(N.I).second)
      CachedStmts.push_back(N.I);
  });
  StmtsValid = true;
  return CachedStmts;
}

const std::vector<SourceLine> &SliceResult::sourceLines() const {
  if (LinesValid)
    return CachedLines;
  // The program's line table ranks (method id, line) densely, so
  // marking ranks and reading them back in ascending order both
  // deduplicates and sorts.
  const Program &P = G->program();
  const LineTable &T = P.lineTable();
  BitSet Ranks(T.numRanks());
  unsigned Stmts = 0;
  Nodes.forEach([&](unsigned Node) {
    const SDGNode &N = G->node(Node);
    if (!N.isSourceStmt())
      return;
    ++Stmts;
    if (N.I->loc().isValid()) {
      const unsigned Rank = T.rank(N.M->id(), N.I->lineRank());
      assert(T.lineOfRank(N.M->id(), Rank) == N.I->loc().Line &&
             "instruction not indexed in its program's line table");
      Ranks.insert(Rank);
    }
  });
  CachedLines.clear();
  CachedLines.reserve(Ranks.count());
  const Method *RunM = nullptr;
  unsigned MethodId = 0, End = 0;
  Ranks.forEach([&](unsigned Rank) {
    if (Rank >= End) {
      MethodId = T.methodOfRank(Rank);
      End = T.rankEnd(MethodId);
      RunM = P.methods()[MethodId].get();
    }
    CachedLines.push_back({RunM, T.lineOfRank(MethodId, Rank)});
  });
  CachedStmtCount = Stmts;
  LinesValid = true;
  return CachedLines;
}

unsigned SliceResult::sizeStmts() const {
  if (LinesValid)
    return CachedStmtCount;
  unsigned N = 0;
  Nodes.forEach([&](unsigned Node) { N += G->node(Node).isSourceStmt(); });
  return N;
}

std::string SliceResult::str() const {
  std::string Out;
  const Program &P = G->program();
  Nodes.forEach([&](unsigned Node) {
    const SDGNode &N = G->node(Node);
    if (!N.isSourceStmt())
      return;
    Out += N.M->qualifiedName(P.strings());
    Out += ':';
    Out += std::to_string(N.I->loc().Line);
    Out += ": ";
    Out += N.I->str(P);
    if (N.K == SDGNodeKind::ScalarActualIn)
      Out += "  [actual #" + std::to_string(N.Part) + "]";
    Out += "\n";
  });
  return Out;
}

namespace {

/// Shared reachability engine for both directions, running on the
/// graph's kind-partitioned CSR adjacency. A budget caps
/// the number of worklist pops; stopping early only under-visits, so
/// the partial result is a subset of the full slice (marked
/// Degraded). With \p Shared set, the pops are charged to the
/// batch-wide gate and no local gate is constructed.
SliceResult reachNodes(const SDG &G, const std::vector<unsigned> &SeedNodes,
                       SliceMode Mode, bool Backward,
                       const AnalysisBudget *Budget,
                       SharedBudgetGate *Shared = nullptr) {
  std::optional<BudgetGate> Local;
  if (!Shared)
    Local.emplace(Budget, "slice.pop", Budget ? Budget->MaxSlicePops : 0);
  const EdgeKindRuns Runs = edgeKindRuns(sliceEdgeMask(Mode));
  BitSet Visited(G.numNodes());
  // Flat BFS worklist (never popped elements are dropped all at once):
  // same visit order as a deque, one allocation per query.
  std::vector<unsigned> Queue;
  Queue.reserve(64);
  std::size_t Head = 0;
  for (unsigned Node : SeedNodes)
    if (Visited.insert(Node))
      Queue.push_back(Node);
  while (Head != Queue.size()) {
    if (Shared ? Shared->spend() : Local->spend())
      break;
    unsigned Node = Queue[Head++];
    auto Visit = [&](unsigned Next) {
      if (Visited.insert(Next))
        Queue.push_back(Next);
    };
    if (Backward)
      G.forEachInNeighbor(Node, Runs, Visit);
    else
      G.forEachOutNeighbor(Node, Runs, Visit);
  }
  SliceResult R(&G, std::move(Visited));
  if (Shared ? Shared->exhausted() : Local->exhausted())
    R.markDegraded(Shared ? Shared->reason() : Local->reason());
  return R;
}

/// Expands an instruction seed into every clone of the statement.
SliceResult reach(const SDG &G, const Instr *Seed, SliceMode Mode,
                  bool Backward, const AnalysisBudget *Budget) {
  const auto Clones = G.nodesFor(Seed);
  return reachNodes(G, std::vector<unsigned>(Clones.begin(), Clones.end()),
                    Mode, Backward, Budget);
}

} // namespace

SliceResult tsl::sliceBackward(const SDG &G, const Instr *Seed,
                               SliceMode Mode, const AnalysisBudget *Budget) {
  return reach(G, Seed, Mode, /*Backward=*/true, Budget);
}

SliceResult tsl::sliceBackwardNodes(const SDG &G,
                                    const std::vector<unsigned> &SeedNodes,
                                    SliceMode Mode,
                                    const AnalysisBudget *Budget,
                                    SharedBudgetGate *Shared) {
  return reachNodes(G, SeedNodes, Mode, /*Backward=*/true, Budget, Shared);
}

SliceResult tsl::sliceForward(const SDG &G, const Instr *Seed,
                              SliceMode Mode, const AnalysisBudget *Budget) {
  return reach(G, Seed, Mode, /*Backward=*/false, Budget);
}
