//===-- Dominators.h - Dominator and post-dominator trees -------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator and post-dominator trees over a method's CFG using the
/// Cooper-Harvey-Kennedy iterative algorithm. Dominators drive SSA
/// construction; post-dominators drive control dependence, which
/// traditional slicing follows and thin slicing deliberately omits.
///
/// For post-dominators the node space is extended with a virtual exit
/// node that every Ret/Throw block edges to; blocks with no path to an
/// exit (infinite loops) are attached to the virtual exit with pseudo
/// edges so the tree is total.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_IR_DOMINATORS_H
#define THINSLICER_IR_DOMINATORS_H

#include <vector>

namespace tsl {

class Method;

/// A dominator tree (forward) or post-dominator tree (Post == true).
///
/// Nodes are identified by basic-block id; for post-dominator trees one
/// extra node, virtualExit(), is appended.
class DomTree {
public:
  DomTree(const Method &M, bool Post);

  unsigned numNodes() const {
    return static_cast<unsigned>(Idom.size());
  }

  /// Id of the virtual exit node (post-dominator trees only).
  unsigned virtualExit() const { return numNodes() - 1; }

  /// The tree root: entry block id, or virtualExit() for post-dom.
  unsigned root() const { return Root; }

  /// Immediate dominator of \p Node, or -1 for the root and for nodes
  /// unreachable in the traversal direction.
  int idom(unsigned Node) const { return Idom[Node]; }

  bool isReachable(unsigned Node) const {
    return Node == Root || Idom[Node] >= 0;
  }

  /// True if \p A (post-)dominates \p B. A node dominates itself.
  bool dominates(unsigned A, unsigned B) const;

  /// Children of \p Node in the tree.
  const std::vector<unsigned> &children(unsigned Node) const {
    return Children[Node];
  }

  /// Reverse postorder of reachable nodes in the traversal direction
  /// (root first).
  const std::vector<unsigned> &rpo() const { return RPO; }

  /// Dominance frontier of \p Node (forward trees only; used by SSA
  /// construction).
  const std::vector<unsigned> &frontier(unsigned Node) const {
    return Frontier[Node];
  }

private:
  void compute(const std::vector<std::vector<unsigned>> &Succs,
               const std::vector<std::vector<unsigned>> &Preds);
  void computeFrontiers(const std::vector<std::vector<unsigned>> &Preds);

  unsigned Root;
  std::vector<int> Idom;
  std::vector<std::vector<unsigned>> Children;
  std::vector<unsigned> RPO;
  std::vector<int> RpoNumber; ///< -1 if unreachable.
  std::vector<std::vector<unsigned>> Frontier;
};

} // namespace tsl

#endif // THINSLICER_IR_DOMINATORS_H
