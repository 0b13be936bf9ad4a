//===-- CallGraph.cpp - Context-aware call graph ------------------------------==//

#include "cg/CallGraph.h"

#include <algorithm>

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
  SiteEdges[denseInstrKey(Site)].push_back(
      static_cast<unsigned>(Edges.size() - 1));
  return true;
}

std::vector<Method *> CallGraph::calleesOf(const CallInstr *Site) const {
  std::vector<Method *> Out;
  auto It = SiteEdges.find(denseInstrKey(Site));
  if (It == SiteEdges.end())
    return Out;
  for (unsigned EdgeIdx : It->second) {
    Method *M = Nodes[Edges[EdgeIdx].CalleeNode].M;
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
  for (unsigned EdgeIdx : It->second) {
    unsigned Node = Edges[EdgeIdx].CalleeNode;
    if (std::find(Out.begin(), Out.end(), Node) == Out.end())
      Out.push_back(Node);
  }
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

void CallGraph::removeEdgesAtSites(
    const std::unordered_set<const Instr *> &DeadSites) {
  std::vector<CallEdge> Kept;
  Kept.reserve(Edges.size());
  for (const CallEdge &E : Edges)
    if (!DeadSites.count(E.Site))
      Kept.push_back(E);
  if (Kept.size() == Edges.size())
    return;
  Edges = std::move(Kept);
  SiteEdges.clear();
  EdgeKeys.clear();
  for (unsigned I = 0, N = static_cast<unsigned>(Edges.size()); I != N; ++I) {
    const CallEdge &E = Edges[I];
    SiteEdges[denseInstrKey(E.Site)].push_back(I);
    EdgeKeys.insert({E.CallerNode, denseInstrKey(E.Site), E.CalleeNode});
  }
}

bool CallGraph::allReachableFrom(unsigned EntryNode) const {
  if (EntryNode >= Nodes.size())
    return Nodes.empty();
  std::vector<std::vector<unsigned>> Succ(Nodes.size());
  for (const CallEdge &E : Edges)
    Succ[E.CallerNode].push_back(E.CalleeNode);
  std::vector<bool> Seen(Nodes.size(), false);
  std::vector<unsigned> Stack = {EntryNode};
  Seen[EntryNode] = true;
  size_t Count = 1;
  while (!Stack.empty()) {
    unsigned N = Stack.back();
    Stack.pop_back();
    for (unsigned S : Succ[N])
      if (!Seen[S]) {
        Seen[S] = true;
        ++Count;
        Stack.push_back(S);
      }
  }
  return Count == Nodes.size();
}
