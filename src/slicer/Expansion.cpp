//===-- Expansion.cpp - Hierarchical thin-slice expansion ----------------------==//

#include "slicer/Expansion.h"

using namespace tsl;

const Local *ThinExpansion::basePointerOf(const Instr *I) {
  switch (I->kind()) {
  case InstrKind::Load:
    return cast<LoadInstr>(I)->base();
  case InstrKind::Store:
    return cast<StoreInstr>(I)->base();
  case InstrKind::ArrayLoad:
    return cast<ArrayLoadInstr>(I)->array();
  case InstrKind::ArrayStore:
    return cast<ArrayStoreInstr>(I)->array();
  case InstrKind::ArrayLen:
    return cast<ArrayLenInstr>(I)->array();
  default:
    return nullptr;
  }
}

const Local *ThinExpansion::indexOf(const Instr *I) {
  switch (I->kind()) {
  case InstrKind::ArrayLoad:
    return cast<ArrayLoadInstr>(I)->index();
  case InstrKind::ArrayStore:
    return cast<ArrayStoreInstr>(I)->index();
  default:
    return nullptr;
  }
}

SliceResult ThinExpansion::filteredThinSlice(const Local *L,
                                             const SparseBitSet &Common) const {
  const Instr *Def = L->def();
  if (!Def)
    return SliceResult(&G, BitSet());
  SliceResult Full = sliceBackward(G, Def, SliceMode::Thin);

  // Keep statements that handle one of the common objects: their
  // defined value, the value they store, or — for parameter passing —
  // the actual argument may be such an object.
  BitSet Kept(G.numNodes());
  Full.nodeSet().forEach([&](unsigned Node) {
    const SDGNode &N = G.node(Node);
    if (!N.isSourceStmt())
      return;
    const Instr *I = N.I;
    const Local *Val = nullptr;
    if (N.K == SDGNodeKind::ScalarActualIn)
      Val = I->operand(N.Part);
    else if ((Val = I->dest()) == nullptr) {
      if (const auto *S = dyn_cast<StoreInstr>(I))
        Val = S->src();
      else if (const auto *AS = dyn_cast<ArrayStoreInstr>(I))
        Val = AS->src();
      else if (const auto *R = dyn_cast<RetInstr>(I))
        Val = R->src();
    }
    if (Val && Val->type()->isReference() &&
        PTA.pointsTo(Val).intersects(Common))
      Kept.insert(Node);
  });
  return SliceResult(&G, std::move(Kept));
}

SliceResult ThinExpansion::explainAliasing(const Instr *Write,
                                           const Instr *Read) const {
  const Local *WBase = basePointerOf(Write);
  const Local *RBase = basePointerOf(Read);
  if (!WBase || !RBase)
    return SliceResult(&G, BitSet());
  SparseBitSet Common = PTA.commonObjects(WBase, RBase);
  SliceResult Out = filteredThinSlice(WBase, Common);
  Out.unionWith(filteredThinSlice(RBase, Common));
  return Out;
}

SliceResult ThinExpansion::explainIndices(const Instr *Write,
                                          const Instr *Read) const {
  BitSet Nodes(G.numNodes());
  SliceResult Out(&G, std::move(Nodes));
  for (const Instr *I : {Write, Read}) {
    const Local *Idx = indexOf(I);
    if (!Idx || !Idx->def())
      continue;
    Out.unionWith(sliceBackward(G, Idx->def(), SliceMode::Thin));
  }
  return Out;
}

std::vector<const Instr *>
ThinExpansion::controlExplainers(const Instr *S) const {
  std::vector<const Instr *> Out;
  int Node = G.nodeFor(S);
  if (Node < 0)
    return Out;
  for (unsigned EdgeId : G.inEdges(static_cast<unsigned>(Node))) {
    const SDGEdge &E = G.edge(EdgeId);
    if (E.K != SDGEdgeKind::Control)
      continue;
    const SDGNode &From = G.node(E.From);
    if (From.isStmt())
      Out.push_back(From.I);
  }
  return Out;
}

SliceResult ThinExpansion::thinSliceWithAliasDepth(const Instr *Seed,
                                                   unsigned Depth) const {
  BudgetGate Gate(B, "expand.round", B ? B->MaxExpansionRounds : 0);
  SliceResult Acc = sliceBackward(G, Seed, SliceMode::Thin, B);
  for (unsigned Level = 0; Level != Depth; ++Level) {
    if (Gate.spend()) {
      Acc.markDegraded(Gate.reason());
      break;
    }
    // Base pointers of heap accesses currently in the slice.
    std::vector<unsigned> BaseDefs;
    Acc.nodeSet().forEach([&](unsigned Node) {
      const SDGNode &N = G.node(Node);
      if (!N.isStmt() || !basePointerOf(N.I))
        return;
      for (unsigned EdgeId : G.inEdges(Node)) {
        const SDGEdge &E = G.edge(EdgeId);
        if (E.K == SDGEdgeKind::BaseFlow && !Acc.containsNode(E.From))
          BaseDefs.push_back(E.From);
      }
    });
    if (BaseDefs.empty())
      break;
    bool Changed = false;
    for (unsigned Node : BaseDefs)
      if (!Acc.containsNode(Node)) {
        Acc.unionWith(sliceBackwardNodes(G, {Node}, SliceMode::Thin, B));
        Changed = true;
      }
    if (!Changed)
      break;
  }
  return Acc;
}

SliceResult ThinExpansion::expandToTraditional(const Instr *Seed) const {
  BudgetGate Gate(B, "expand.round", B ? B->MaxExpansionRounds : 0);
  SliceResult Acc = sliceBackward(G, Seed, SliceMode::Thin, B);
  bool Changed = true;
  while (Changed) {
    if (Gate.spend()) {
      Acc.markDegraded(Gate.reason());
      break;
    }
    Changed = false;
    // Collect explainer sources (base-pointer flow and control) of the
    // current slice, then absorb their thin slices. Expansion is
    // node-level: explaining a statement clone must not pull in the
    // chains of its other contexts.
    std::vector<unsigned> Explainers;
    Acc.nodeSet().forEach([&](unsigned Node) {
      for (unsigned EdgeId : G.inEdges(Node)) {
        const SDGEdge &E = G.edge(EdgeId);
        if ((E.K == SDGEdgeKind::BaseFlow || E.K == SDGEdgeKind::Control) &&
            !Acc.containsNode(E.From))
          Explainers.push_back(E.From);
      }
    });
    for (unsigned Node : Explainers) {
      if (!Acc.containsNode(Node)) {
        Acc.unionWith(sliceBackwardNodes(G, {Node}, SliceMode::Thin, B));
        Changed = true;
      }
    }
  }
  return Acc;
}
