//===-- Dominators.cpp - Dominator and post-dominator trees ---------------==//

#include "ir/Dominators.h"

#include "ir/Instr.h"
#include "ir/Program.h"

#include <algorithm>
#include <cassert>

using namespace tsl;

namespace {

/// Builds the successor/predecessor lists of the (possibly reversed,
/// possibly exit-extended) graph the dominator computation runs on.
struct Graph {
  std::vector<std::vector<unsigned>> Succs;
  std::vector<std::vector<unsigned>> Preds;

  explicit Graph(unsigned N) : Succs(N), Preds(N) {}

  void addEdge(unsigned From, unsigned To) {
    Succs[From].push_back(To);
    Preds[To].push_back(From);
  }
};

} // namespace

DomTree::DomTree(const Method &M, bool Post) {
  unsigned NumBlocks = static_cast<unsigned>(M.blocks().size());
  unsigned N = NumBlocks + (Post ? 1 : 0);
  Graph G(N);

  // Real CFG edges (reversed for post-dominators).
  for (const auto &BB : M.blocks()) {
    for (BasicBlock *Succ : BB->successors()) {
      if (Post)
        G.addEdge(Succ->id(), BB->id());
      else
        G.addEdge(BB->id(), Succ->id());
    }
  }

  if (Post) {
    unsigned Exit = NumBlocks;
    // Virtual exit edges from Ret/Throw blocks (reversed: exit -> block).
    for (const auto &BB : M.blocks()) {
      Instr *Term = BB->terminator();
      if (Term && (isa<RetInstr>(Term) || isa<ThrowInstr>(Term)))
        G.addEdge(Exit, BB->id());
    }
    Root = Exit;

    // Attach blocks that cannot reach any exit (infinite loops) with
    // pseudo edges so every block gets a post-dominator. Repeat until
    // all blocks are reachable from the virtual exit.
    while (true) {
      std::vector<bool> Seen(N, false);
      std::vector<unsigned> Stack = {Root};
      Seen[Root] = true;
      while (!Stack.empty()) {
        unsigned Node = Stack.back();
        Stack.pop_back();
        for (unsigned S : G.Succs[Node])
          if (!Seen[S]) {
            Seen[S] = true;
            Stack.push_back(S);
          }
      }
      unsigned Missing = N;
      for (unsigned I = 0; I != NumBlocks; ++I)
        if (!Seen[I]) {
          Missing = I;
          break;
        }
      if (Missing == N)
        break;
      G.addEdge(Root, Missing);
    }
  } else {
    Root = M.entry() ? M.entry()->id() : 0;
  }

  Idom.assign(N, -1);
  Children.assign(N, {});
  Frontier.assign(N, {});
  compute(G.Succs, G.Preds);
  if (!Post)
    computeFrontiers(G.Preds);
}

void DomTree::compute(const std::vector<std::vector<unsigned>> &Succs,
                      const std::vector<std::vector<unsigned>> &Preds) {
  unsigned N = static_cast<unsigned>(Succs.size());

  // Reverse postorder over the traversal direction.
  RPO.clear();
  RpoNumber.assign(N, -1);
  std::vector<unsigned> Post;
  std::vector<bool> Visited(N, false);
  // Iterative DFS computing postorder.
  std::vector<std::pair<unsigned, unsigned>> Stack;
  Stack.emplace_back(Root, 0);
  Visited[Root] = true;
  while (!Stack.empty()) {
    auto &[Node, NextChild] = Stack.back();
    if (NextChild < Succs[Node].size()) {
      unsigned S = Succs[Node][NextChild++];
      if (!Visited[S]) {
        Visited[S] = true;
        Stack.emplace_back(S, 0);
      }
    } else {
      Post.push_back(Node);
      Stack.pop_back();
    }
  }
  RPO.assign(Post.rbegin(), Post.rend());
  for (unsigned I = 0, E = static_cast<unsigned>(RPO.size()); I != E; ++I)
    RpoNumber[RPO[I]] = static_cast<int>(I);

  // Cooper-Harvey-Kennedy fixed point.
  auto Intersect = [&](unsigned A, unsigned B) {
    while (A != B) {
      while (RpoNumber[A] > RpoNumber[B])
        A = static_cast<unsigned>(Idom[A]);
      while (RpoNumber[B] > RpoNumber[A])
        B = static_cast<unsigned>(Idom[B]);
    }
    return A;
  };

  Idom[Root] = static_cast<int>(Root); // Temporary self-loop for intersect.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned Node : RPO) {
      if (Node == Root)
        continue;
      int NewIdom = -1;
      for (unsigned P : Preds[Node]) {
        if (RpoNumber[P] < 0 || Idom[P] < 0)
          continue; // Unreachable or unprocessed predecessor.
        if (NewIdom < 0)
          NewIdom = static_cast<int>(P);
        else
          NewIdom = static_cast<int>(
              Intersect(static_cast<unsigned>(NewIdom), P));
      }
      if (NewIdom >= 0 && Idom[Node] != NewIdom) {
        Idom[Node] = NewIdom;
        Changed = true;
      }
    }
  }
  Idom[Root] = -1;

  for (unsigned Node = 0; Node != N; ++Node)
    if (Idom[Node] >= 0)
      Children[static_cast<unsigned>(Idom[Node])].push_back(Node);
}

bool DomTree::dominates(unsigned A, unsigned B) const {
  // Walk B's idom chain up to the root; tree depth is small in practice.
  unsigned Cur = B;
  while (true) {
    if (Cur == A)
      return true;
    if (Cur == Root)
      return false;
    int Up = Idom[Cur];
    if (Up < 0)
      return false; // B is unreachable in the traversal direction.
    Cur = static_cast<unsigned>(Up);
  }
}

void DomTree::computeFrontiers(
    const std::vector<std::vector<unsigned>> &Preds) {
  unsigned N = static_cast<unsigned>(Preds.size());
  for (unsigned Node = 0; Node != N; ++Node) {
    if (Preds[Node].size() < 2)
      continue;
    for (unsigned P : Preds[Node]) {
      if (RpoNumber[P] < 0)
        continue;
      unsigned Runner = P;
      while (static_cast<int>(Runner) != Idom[Node]) {
        Frontier[Runner].push_back(Node);
        if (Idom[Runner] < 0)
          break;
        Runner = static_cast<unsigned>(Idom[Runner]);
      }
    }
  }
  // Deduplicate.
  for (auto &F : Frontier) {
    std::sort(F.begin(), F.end());
    F.erase(std::unique(F.begin(), F.end()), F.end());
  }
}
