//===-- Tabulation.cpp - Context-sensitive slicing ------------------------------==//

#include "slicer/Tabulation.h"

#include "support/BitSet.h"

#include <deque>
#include <optional>

using namespace tsl;

//===----------------------------------------------------------------------===//
// SummaryCache
//===----------------------------------------------------------------------===//

std::shared_ptr<const SummaryCache::Entry>
SummaryCache::lookup(const SDG &G, SliceMode Mode) {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Map.find(Key{&G, Mode});
  if (It == Map.end()) {
    ++Misses;
    return nullptr;
  }
  ++Hits;
  return It->second;
}

void SummaryCache::store(const SDG &G, SliceMode Mode,
                         std::shared_ptr<const Entry> E) {
  if (!E || E->Partial)
    return; // A partial set reflects one query's budget, not the graph.
  std::lock_guard<std::mutex> L(Mu);
  Map[Key{&G, Mode}] = std::move(E);
}

uint64_t SummaryCache::hits() const {
  std::lock_guard<std::mutex> L(Mu);
  return Hits;
}

uint64_t SummaryCache::misses() const {
  std::lock_guard<std::mutex> L(Mu);
  return Misses;
}

std::size_t SummaryCache::size() const {
  std::lock_guard<std::mutex> L(Mu);
  return Map.size();
}

void SummaryCache::clear() {
  std::lock_guard<std::mutex> L(Mu);
  Map.clear();
  Hits = Misses = 0;
}

//===----------------------------------------------------------------------===//
// TabulationSlicer
//===----------------------------------------------------------------------===//

TabulationSlicer::TabulationSlicer(const SDG &G, SliceMode Mode,
                                   const AnalysisBudget *Budget,
                                   SummaryCache *Cache)
    : G(G), Mode(Mode), B(Budget) {
  if (Cache)
    if ((S = Cache->lookup(G, Mode))) {
      FromCache = true;
      return;
    }
  S = computeSummaries(G, Mode, B);
  if (Cache)
    Cache->store(G, Mode, S);
}

std::shared_ptr<const SummaryCache::Entry>
TabulationSlicer::computeSummaries(const SDG &G, SliceMode Mode,
                                   const AnalysisBudget *B) {
  // Path edges (FormalOut, Node): Node same-level-reaches FormalOut
  // within one procedure instance, using intraprocedural edges and
  // already-discovered summary edges. When a path edge reaches a
  // formal-in, a summary edge (actual source -> actual out) is emitted
  // at every matching call site.
  auto E = std::make_shared<SummaryCache::Entry>();

  EdgeKindMask IntraMask = edgeKindMask(SDGEdgeKind::Flow);
  if (Mode == SliceMode::Traditional)
    IntraMask |= edgeKindMask(SDGEdgeKind::BaseFlow) |
                 edgeKindMask(SDGEdgeKind::Control);
  const EdgeKindRuns Intra = edgeKindRuns(IntraMask);

  // Index formal-out nodes densely.
  std::vector<unsigned> FormalOuts;
  std::unordered_map<unsigned, unsigned> FormalOutIndex;
  for (const SDGNode &N : G.nodes()) {
    if (N.isFormalOut()) {
      FormalOutIndex.emplace(N.Id, static_cast<unsigned>(FormalOuts.size()));
      FormalOuts.push_back(N.Id);
    }
  }

  // ParamOut map: (site, formal-out) -> actual-out node. Exact keys:
  // a collision would emit a summary edge to the wrong call.
  std::map<std::pair<const CallInstr *, unsigned>, unsigned> ActualOutOf;
  for (unsigned EdgeId = 0; EdgeId != G.numEdges(); ++EdgeId) {
    const SDGEdge &Ed = G.edge(EdgeId);
    if (Ed.K == SDGEdgeKind::ParamOut)
      ActualOutOf.emplace(std::make_pair(Ed.Site, Ed.From), Ed.To);
  }

  // Path-edge state: per formal-out, the set of same-level reaching
  // nodes.
  std::vector<BitSet> Reaches(FormalOuts.size());
  std::deque<std::pair<unsigned, unsigned>> WL; // (foIdx, node)

  auto Propagate = [&](unsigned FoIdx, unsigned Node) {
    if (Reaches[FoIdx].insert(Node))
      WL.emplace_back(FoIdx, Node);
  };

  // Per actual-out node, the path edges seen so far (for re-triggering
  // when a summary into that actual-out appears later).
  std::unordered_map<unsigned, std::vector<unsigned>> PathAtNode;

  for (unsigned FoIdx = 0; FoIdx != FormalOuts.size(); ++FoIdx)
    Propagate(FoIdx, FormalOuts[FoIdx]);

  std::unordered_set<uint64_t> SummaryDedup;

  // A budget caps path-edge pops. Stopping early leaves the summary
  // set partial: slices then miss some summary shortcuts and
  // under-approximate the full context-sensitive slice (sound for
  // thin slicing's subset claim; marked Degraded on every slice).
  BudgetGate Gate(B, "tabulation.summary", B ? B->MaxSlicePops : 0);

  while (!WL.empty()) {
    if (Gate.spend()) {
      E->Partial = true;
      E->PartialReason = Gate.reason();
      break;
    }
    auto [FoIdx, Node] = WL.front();
    WL.pop_front();
    PathAtNode[Node].push_back(FoIdx);

    // Same-level expansion over the kind-partitioned CSR rows.
    G.forEachInNeighbor(Node, Intra,
                        [&](unsigned From) { Propagate(FoIdx, From); });
    auto SumIt = E->SummaryIn.find(Node);
    if (SumIt != E->SummaryIn.end())
      for (unsigned Src : SumIt->second)
        Propagate(FoIdx, Src);

    // Summary creation at formal-ins.
    const SDGNode &N = G.node(Node);
    if (!N.isFormalIn())
      continue;
    unsigned Fo = FormalOuts[FoIdx];
    for (unsigned EdgeId : G.inEdgesOfKind(Node, SDGEdgeKind::ParamIn)) {
      const SDGEdge &Ed = G.edge(EdgeId);
      auto AoIt = ActualOutOf.find(std::make_pair(Ed.Site, Fo));
      if (AoIt == ActualOutOf.end())
        continue; // This call site never receives Fo's value.
      unsigned Ao = AoIt->second;
      unsigned Src = Ed.From;
      uint64_t Key = (static_cast<uint64_t>(Src) << 32) | Ao;
      if (!SummaryDedup.insert(Key).second)
        continue;
      E->SummaryIn[Ao].push_back(Src);
      ++E->NumSummaries;
      // Re-trigger path edges already sitting at the actual-out.
      for (unsigned Fo2Idx : PathAtNode[Ao])
        Propagate(Fo2Idx, Src);
    }
  }
  return E;
}

SliceResult TabulationSlicer::slice(const std::vector<const Instr *> &Seeds,
                                    SharedBudgetGate *Shared) const {
  std::optional<BudgetGate> Local;
  if (!Shared)
    Local.emplace(B, "slice.pop", B ? B->MaxSlicePops : 0);
  auto Spend = [&]() { return Shared ? Shared->spend() : Local->spend(); };

  const EdgeKindMask Intra = intraMask();
  const EdgeKindRuns Ascend =
      edgeKindRuns(Intra | edgeKindMask(SDGEdgeKind::ParamIn));
  const EdgeKindRuns Descend =
      edgeKindRuns(Intra | edgeKindMask(SDGEdgeKind::ParamOut));

  BitSet Visited(G.numNodes());
  std::deque<unsigned> Queue;

  auto Enqueue = [&](unsigned Node) {
    if (Visited.insert(Node))
      Queue.push_back(Node);
  };
  auto FollowSummaries = [&](unsigned Node) {
    auto SumIt = S->SummaryIn.find(Node);
    if (SumIt != S->SummaryIn.end())
      for (unsigned Src : SumIt->second)
        Enqueue(Src);
  };

  // Phase 1: ascend — intraprocedural edges, summaries, and param-in
  // (into callers); never param-out.
  BitSet Phase1(G.numNodes());
  for (const Instr *Seed : Seeds)
    for (unsigned Node : G.nodesFor(Seed))
      Enqueue(Node);
  while (!Queue.empty()) {
    if (Spend())
      break;
    unsigned Node = Queue.front();
    Queue.pop_front();
    Phase1.insert(Node);
    G.forEachInNeighbor(Node, Ascend, Enqueue);
    FollowSummaries(Node);
  }

  // Phase 2: descend — intraprocedural edges, summaries, and param-out
  // (into callees); never param-in.
  Phase1.forEach([&](unsigned Node) { Queue.push_back(Node); });
  while (!Queue.empty()) {
    if (Spend())
      break;
    unsigned Node = Queue.front();
    Queue.pop_front();
    G.forEachInNeighbor(Node, Descend, Enqueue);
    FollowSummaries(Node);
  }

  SliceResult R(&G, std::move(Visited));
  if (S->Partial)
    R.markDegraded(S->PartialReason);
  if (Shared ? Shared->exhausted() : Local->exhausted())
    R.markDegraded(Shared ? Shared->reason() : Local->reason());
  return R;
}
