//===-- CallGraph.h - Context-aware call graph -------------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The call graph produced during pointer analysis (or by the CHA
/// baseline). Nodes are (method, context) pairs — contexts come from
/// the points-to analysis's object-sensitive cloning of container
/// classes, so, as in the paper's Table 1, the number of call graph
/// nodes can exceed the number of distinct reachable methods.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_CG_CALLGRAPH_H
#define THINSLICER_CG_CALLGRAPH_H

#include "ir/Instr.h"
#include "ir/Program.h"

#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

namespace tsl {

/// One call graph node: a method analyzed under one cloning context.
/// Context 0 is the context-insensitive default.
struct MethodCtx {
  Method *M;
  unsigned Ctx;
  unsigned Id;
};

/// A call edge: a specific call site in a caller node invoking a
/// callee node.
struct CallEdge {
  unsigned CallerNode;
  const CallInstr *Site;
  unsigned CalleeNode;
};

/// Call graph over MethodCtx nodes with per-site edge queries.
class CallGraph {
public:
  /// Returns the node for (M, Ctx), creating it on first use.
  unsigned getOrCreateNode(Method *M, unsigned Ctx);

  /// Returns the node id, or -1 when absent.
  int findNode(const Method *M, unsigned Ctx) const;

  const std::vector<MethodCtx> &nodes() const { return Nodes; }
  const MethodCtx &node(unsigned Id) const { return Nodes[Id]; }

  /// Adds an edge; returns true when it was new.
  bool addEdge(unsigned CallerNode, const CallInstr *Site,
               unsigned CalleeNode);

  const std::vector<CallEdge> &edges() const { return Edges; }

  /// Distinct callee methods of \p Site across all contexts.
  std::vector<Method *> calleesOf(const CallInstr *Site) const;

  /// Callee nodes of \p Site (context-level).
  std::vector<unsigned> calleeNodesOf(const CallInstr *Site) const;

  /// Call sites (with caller node) that may invoke method \p M.
  std::vector<std::pair<unsigned, const CallInstr *>>
  callersOf(const Method *M) const;

  /// Distinct reachable methods (those with a node).
  std::vector<Method *> reachableMethods() const;
  bool isReachable(const Method *M) const {
    return MethodNodes.count(M->id()) != 0;
  }

  /// Nodes of one method across contexts.
  const std::vector<unsigned> &nodesOf(const Method *M) const;

  /// Edges into \p CalleeNode as (caller node, site, insertion rank)
  /// in insertion order. The rank orders edges as edges() does. Needs
  /// indexInEdges().
  struct InEdge {
    unsigned CallerNode;
    const CallInstr *Site;
    uint32_t Rank;
  };
  const std::vector<InEdge> &inEdgesOf(unsigned CalleeNode) const;

  /// Builds the per-callee in-edge lists that inEdgesOf() and
  /// reachableFrom() read; addEdge() and removeEdgesAtSites() keep them
  /// current from then on. Only an incremental update needs them, so
  /// a graph that is never edited does without.
  void indexInEdges();

  /// Edges at one call site as (caller node, callee node, insertion
  /// rank) in insertion order.
  struct SiteEdge {
    unsigned CallerNode;
    unsigned CalleeNode;
    uint32_t Rank;
  };
  const std::vector<SiteEdge> &edgesAt(const CallInstr *Site) const;

  /// Incremental retraction: drops every edge at one of \p DeadSites
  /// (call instructions of retired method bodies), keeping Edges in
  /// stable order, and returns the dropped edges. Only the dead sites'
  /// index entries are touched. Nodes are never removed — a node left
  /// unreachable is caught by reachableFrom() and triggers the
  /// caller's cold fallback.
  std::vector<CallEdge>
  removeEdgesAtSites(const std::vector<const CallInstr *> &DeadSites);

  /// True when every node is reachable from \p EntryNode over Edges.
  bool allReachableFrom(unsigned EntryNode) const;

  /// True when every node of \p Targets is reachable from \p
  /// EntryNode: a backward search over in-edges per target that stops
  /// at the entry or at a node an earlier search found on its path, so
  /// it usually costs the paths found rather than the graph. Once the
  /// searches together have visited as many nodes as the graph holds,
  /// it finishes with one forward traversal instead. Needs
  /// indexInEdges().
  bool reachableFrom(unsigned EntryNode,
                     const std::vector<unsigned> &Targets) const;

private:
  /// Which nodes a forward traversal from \p EntryNode reaches.
  std::vector<bool> reachedFrom(unsigned EntryNode) const;

  // All indices are dense-id keyed (method ids, denseInstrKey of call
  // sites) rather than pointer keyed — see the dense identity note in
  // ir/Program.h.
  std::vector<MethodCtx> Nodes;
  std::vector<CallEdge> Edges;
  /// Insertion rank of each Edges entry (ascending; ranks of removed
  /// edges are never reused), so a removal starts compacting at its
  /// first removed edge, found by binary search.
  std::vector<uint32_t> EdgeRank;
  uint32_t NextRank = 0;
  std::unordered_map<uint32_t, std::vector<unsigned>> MethodNodes;
  std::unordered_map<uint64_t, unsigned> NodeIndex; ///< (methodId,ctx) key.
  /// Every edge at a site, keyed by denseInstrKey. Position-free, so
  /// removal never reindexes.
  std::unordered_map<uint64_t, std::vector<SiteEdge>> SiteEdges;
  /// By callee node id; empty until indexInEdges().
  bool HasInEdges = false;
  std::vector<std::vector<InEdge>> InEdges;
  /// Exact edge identity (no hash folding: a dropped edge would be a
  /// soundness bug).
  std::set<std::tuple<unsigned, uint64_t, unsigned>> EdgeKeys;
};

} // namespace tsl

#endif // THINSLICER_CG_CALLGRAPH_H
