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
#include <unordered_set>
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

  /// Incremental retraction: drops every edge whose call site is in
  /// \p DeadSites (instructions of retired method bodies), compacting
  /// Edges in stable order and rebuilding the site and dedup indices.
  /// Nodes are never removed — a node left unreachable is caught by
  /// allReachableFrom() and triggers the caller's cold fallback.
  void removeEdgesAtSites(const std::unordered_set<const Instr *> &DeadSites);

  /// True when every node is reachable from \p EntryNode over Edges.
  bool allReachableFrom(unsigned EntryNode) const;

private:
  // All indices are dense-id keyed (method ids, denseInstrKey of call
  // sites) rather than pointer keyed, so a graph decoded from a
  // snapshot replays into identical index state — see the dense
  // identity note in ir/Program.h.
  std::vector<MethodCtx> Nodes;
  std::vector<CallEdge> Edges;
  std::unordered_map<uint32_t, std::vector<unsigned>> MethodNodes;
  std::unordered_map<uint64_t, unsigned> NodeIndex; ///< (methodId,ctx) key.
  std::unordered_map<uint64_t, std::vector<unsigned>> SiteEdges;
  /// Exact edge identity (no hash folding: a dropped edge would be a
  /// soundness bug).
  std::set<std::tuple<unsigned, uint64_t, unsigned>> EdgeKeys;
};

} // namespace tsl

#endif // THINSLICER_CG_CALLGRAPH_H
