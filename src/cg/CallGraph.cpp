//===-- CallGraph.cpp - Context-aware call graph ------------------------------==//

#include "cg/CallGraph.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

using namespace tsl;

static uint64_t nodeKey(const Method *M, unsigned Ctx) {
  return (static_cast<uint64_t>(M->id()) << 32) | Ctx;
}

unsigned CallGraph::getOrCreateNode(Method *M, unsigned Ctx) {
  uint64_t Key = nodeKey(M, Ctx);
  auto It = NodeIndex.find(Key);
  if (It != NodeIndex.end())
    return It->second;
  unsigned Id = static_cast<unsigned>(Nodes.size());
  Nodes.push_back({M, Ctx, Id});
  NodeIndex.emplace(Key, Id);
  MethodNodes[M->id()].push_back(Id);
  if (HasInEdges)
    InEdges.emplace_back();
  return Id;
}

int CallGraph::findNode(const Method *M, unsigned Ctx) const {
  auto It = NodeIndex.find(nodeKey(M, Ctx));
  return It == NodeIndex.end() ? -1 : static_cast<int>(It->second);
}

bool CallGraph::addEdge(unsigned CallerNode, const CallInstr *Site,
                        unsigned CalleeNode) {
  if (!EdgeKeys.insert({CallerNode, denseInstrKey(Site), CalleeNode}).second)
    return false;
  Edges.push_back({CallerNode, Site, CalleeNode});
  EdgeRank.push_back(NextRank);
  SiteEdges[denseInstrKey(Site)].push_back({CallerNode, CalleeNode, NextRank});
  if (HasInEdges)
    InEdges[CalleeNode].push_back({CallerNode, Site, NextRank});
  ++NextRank;
  return true;
}

std::vector<Method *> CallGraph::calleesOf(const CallInstr *Site) const {
  std::vector<Method *> Out;
  auto It = SiteEdges.find(denseInstrKey(Site));
  if (It == SiteEdges.end())
    return Out;
  for (const SiteEdge &E : It->second) {
    Method *M = Nodes[E.CalleeNode].M;
    if (std::find(Out.begin(), Out.end(), M) == Out.end())
      Out.push_back(M);
  }
  return Out;
}

std::vector<unsigned> CallGraph::calleeNodesOf(const CallInstr *Site) const {
  std::vector<unsigned> Out;
  auto It = SiteEdges.find(denseInstrKey(Site));
  if (It == SiteEdges.end())
    return Out;
  for (const SiteEdge &E : It->second)
    if (std::find(Out.begin(), Out.end(), E.CalleeNode) == Out.end())
      Out.push_back(E.CalleeNode);
  return Out;
}

std::vector<std::pair<unsigned, const CallInstr *>>
CallGraph::callersOf(const Method *M) const {
  std::vector<std::pair<unsigned, const CallInstr *>> Out;
  for (const CallEdge &E : Edges) {
    if (Nodes[E.CalleeNode].M != M)
      continue;
    auto Entry = std::make_pair(E.CallerNode, E.Site);
    if (std::find(Out.begin(), Out.end(), Entry) == Out.end())
      Out.push_back(Entry);
  }
  return Out;
}

std::vector<Method *> CallGraph::reachableMethods() const {
  std::vector<Method *> Out;
  for (const auto &[MId, NodeIds] : MethodNodes) {
    (void)MId;
    Out.push_back(Nodes[NodeIds.front()].M);
  }
  std::sort(Out.begin(), Out.end(),
            [](const Method *A, const Method *B) { return A->id() < B->id(); });
  return Out;
}

const std::vector<unsigned> &CallGraph::nodesOf(const Method *M) const {
  static const std::vector<unsigned> Empty;
  auto It = MethodNodes.find(M->id());
  return It == MethodNodes.end() ? Empty : It->second;
}

const std::vector<CallGraph::InEdge> &
CallGraph::inEdgesOf(unsigned CalleeNode) const {
  assert(HasInEdges && "in-edges read before indexInEdges()");
  return InEdges[CalleeNode];
}

void CallGraph::indexInEdges() {
  if (HasInEdges)
    return;
  InEdges.assign(Nodes.size(), {});
  for (size_t I = 0; I != Edges.size(); ++I)
    InEdges[Edges[I].CalleeNode].push_back(
        {Edges[I].CallerNode, Edges[I].Site, EdgeRank[I]});
  HasInEdges = true;
}

const std::vector<CallGraph::SiteEdge> &
CallGraph::edgesAt(const CallInstr *Site) const {
  static const std::vector<SiteEdge> Empty;
  auto It = SiteEdges.find(denseInstrKey(Site));
  return It == SiteEdges.end() ? Empty : It->second;
}

std::vector<CallEdge>
CallGraph::removeEdgesAtSites(const std::vector<const CallInstr *> &DeadSites) {
  std::vector<uint32_t> Ranks; // Of the removed edges.
  for (const CallInstr *Site : DeadSites) {
    auto It = SiteEdges.find(denseInstrKey(Site));
    if (It == SiteEdges.end())
      continue;
    const uint64_t Key = denseInstrKey(Site);
    for (const SiteEdge &SE : It->second) {
      EdgeKeys.erase({SE.CallerNode, Key, SE.CalleeNode});
      if (HasInEdges) {
        std::vector<InEdge> &In = InEdges[SE.CalleeNode];
        In.erase(std::find_if(In.begin(), In.end(), [&](const InEdge &X) {
          return X.Rank == SE.Rank;
        }));
      }
      Ranks.push_back(SE.Rank);
    }
    SiteEdges.erase(It);
  }
  std::vector<CallEdge> Removed;
  if (Ranks.empty())
    return Removed;
  // Stable compaction from the first removed position on; Edges and
  // EdgeRank stay parallel and rank-sorted.
  std::sort(Ranks.begin(), Ranks.end());
  size_t Out =
      std::lower_bound(EdgeRank.begin(), EdgeRank.end(), Ranks.front()) -
      EdgeRank.begin();
  size_t Next = 0;
  for (size_t In = Out; In != Edges.size(); ++In) {
    if (Next != Ranks.size() && EdgeRank[In] == Ranks[Next]) {
      Removed.push_back(Edges[In]);
      ++Next;
      continue;
    }
    Edges[Out] = Edges[In];
    EdgeRank[Out] = EdgeRank[In];
    ++Out;
  }
  Edges.resize(Out);
  EdgeRank.resize(Out);
  return Removed;
}

std::vector<bool> CallGraph::reachedFrom(unsigned EntryNode) const {
  std::vector<std::vector<unsigned>> Succ(Nodes.size());
  for (const CallEdge &E : Edges)
    Succ[E.CallerNode].push_back(E.CalleeNode);
  std::vector<bool> Seen(Nodes.size(), false);
  std::vector<unsigned> Stack = {EntryNode};
  Seen[EntryNode] = true;
  while (!Stack.empty()) {
    unsigned N = Stack.back();
    Stack.pop_back();
    for (unsigned S : Succ[N])
      if (!Seen[S]) {
        Seen[S] = true;
        Stack.push_back(S);
      }
  }
  return Seen;
}

bool CallGraph::allReachableFrom(unsigned EntryNode) const {
  if (EntryNode >= Nodes.size())
    return Nodes.empty();
  const std::vector<bool> Seen = reachedFrom(EntryNode);
  return std::find(Seen.begin(), Seen.end(), false) == Seen.end();
}

bool CallGraph::reachableFrom(unsigned EntryNode,
                              const std::vector<unsigned> &Targets) const {
  assert(HasInEdges && "in-edges read before indexInEdges()");
  // Nodes known to be reached: the entry and every node on a path an
  // earlier search found, so a later search stops where it meets one.
  std::unordered_set<unsigned> Reached = {EntryNode};
  // Each search node's successor toward its target.
  std::unordered_map<unsigned, unsigned> Toward;
  std::vector<unsigned> Stack;
  // Searches that visit more nodes than one forward traversal would
  // give way to that traversal, so the check never costs more than
  // about twice the graph.
  size_t Visited = 0;
  for (unsigned T : Targets) {
    if (Reached.count(T))
      continue;
    Toward.clear();
    Toward.emplace(T, T);
    Stack.assign(1, T);
    bool Found = false;
    unsigned Hit = T;
    while (!Stack.empty() && !Found) {
      unsigned N = Stack.back();
      Stack.pop_back();
      for (const InEdge &E : InEdges[N]) {
        if (!Toward.emplace(E.CallerNode, N).second)
          continue;
        if (Reached.count(E.CallerNode)) {
          Found = true;
          Hit = E.CallerNode;
          break;
        }
        if (++Visited > Nodes.size()) {
          const std::vector<bool> Seen = reachedFrom(EntryNode);
          return std::all_of(Targets.begin(), Targets.end(),
                             [&](unsigned X) { return Seen[X]; });
        }
        Stack.push_back(E.CallerNode);
      }
    }
    if (!Found)
      return false;
    for (unsigned N = Toward[Hit];; N = Toward[N]) {
      Reached.insert(N);
      if (N == T)
        break;
    }
  }
  return true;
}
