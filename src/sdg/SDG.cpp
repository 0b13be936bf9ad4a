//===-- SDG.cpp - System dependence graph ------------------------------------==//

#include "sdg/SDG.h"

#include "ir/ProgramIO.h"
#include "support/Casting.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <tuple>
#include <unordered_map>

using namespace tsl;

namespace {

/// Dense anchor of one heap node identity: the call site's
/// denseInstrKey, or a method sentinel key for formal nodes and
/// per-method hubs (the low word 0xFFFFFFFF is never a renumbered
/// instruction id), or 0 for an anchorless global hub. The three
/// shapes never share a key, so identities of one kind cannot collide.
uint64_t heapAnchorKey(const Instr *I, const Method *M) {
  if (I)
    return denseInstrKey(I);
  if (M)
    return (static_cast<uint64_t>(M->id()) << 32) | 0xFFFFFFFFull;
  return 0;
}

} // namespace

const char *tsl::sdgEdgeKindName(SDGEdgeKind K) {
  switch (K) {
  case SDGEdgeKind::Flow:
    return "flow";
  case SDGEdgeKind::BaseFlow:
    return "base-flow";
  case SDGEdgeKind::Control:
    return "control";
  case SDGEdgeKind::ParamIn:
    return "param-in";
  case SDGEdgeKind::ParamOut:
    return "param-out";
  }
  return "?";
}

IdRange SDG::nodesFor(const Instr *I) const {
  const unsigned M = I->parent()->parent()->id();
  if (M + 1 >= MethodRank.size() ||
      I->id() >= MethodRank[M + 1] - MethodRank[M])
    return {};
  const unsigned Rank = MethodRank[M] + I->id();
  return {StmtClones.data() + StmtCloneOff[Rank],
          StmtClones.data() + StmtCloneOff[Rank + 1]};
}

int SDG::nodeFor(const Instr *I, unsigned Ctx) const {
  for (unsigned Id : nodesFor(I))
    if (Nodes[Id].Ctx == Ctx)
      return static_cast<int>(Id);
  return -1;
}

void SDG::buildCSR() {
  const std::size_t NK = NumSDGEdgeKinds;
  const std::size_t Slots = Nodes.size() * NK;

  // Counting sort of the edge list into kind-partitioned CSR rows, in
  // both directions; addEdge() already counted each (node, kind)
  // degree at its own slot. Trailing nodes without edges get their
  // zero degrees here. An inclusive prefix sum turns each count into
  // the end of its segment; scattering the edges in descending id
  // order through decrementing cursors leaves each offset at the start
  // of its segment and the edges of a segment in ascending id order,
  // so the layout is deterministic and needs no shift back.
  InOff.resize(Slots + 1);
  OutOff.resize(Slots + 1);
  for (std::size_t I = 1; I < Slots; ++I) {
    InOff[I] += InOff[I - 1];
    OutOff[I] += OutOff[I - 1];
  }
  InOff[Slots] = OutOff[Slots] = static_cast<unsigned>(Edges.size());
  InNbr.resize(Edges.size());
  InEdgeId.resize(Edges.size());
  OutNbr.resize(Edges.size());
  OutEdgeId.resize(Edges.size());
  for (std::size_t EdgeId = Edges.size(); EdgeId-- != 0;) {
    const SDGEdge &E = Edges[EdgeId];
    unsigned InPos = --InOff[std::size_t(E.To) * NK + sdgKindSlot(E.K)];
    InNbr[InPos] = E.From;
    InEdgeId[InPos] = static_cast<unsigned>(EdgeId);
    unsigned OutPos = --OutOff[std::size_t(E.From) * NK + sdgKindSlot(E.K)];
    OutNbr[OutPos] = E.To;
    OutEdgeId[OutPos] = static_cast<unsigned>(EdgeId);
  }
}

std::size_t SDG::countRepeatedEdges() const {
  const std::size_t NK = NumSDGEdgeKinds;
  // Edge identity is (From, To, kind, call site). The out-CSR groups
  // edges by (From, kind) segment, ids ascending within a segment, so
  // one sweep finds every repeat: LastPos[t] is one past the CSR
  // position of the last edge seen into t, and a position inside the
  // current segment means an earlier edge shares From, To and kind.
  // Only then are sites compared, walking back through the segment.
  std::vector<unsigned> LastPos(Nodes.size(), 0);
  std::size_t Repeats = 0;
  for (std::size_t Seg = 0; Seg != Nodes.size() * NK; ++Seg) {
    const unsigned Begin = OutOff[Seg];
    for (unsigned Pos = Begin; Pos != OutOff[Seg + 1]; ++Pos) {
      const unsigned To = OutNbr[Pos];
      const unsigned Prev = LastPos[To];
      LastPos[To] = Pos + 1;
      if (Prev <= Begin)
        continue;
      const CallInstr *Site = Edges[OutEdgeId[Pos]].Site;
      for (unsigned Q = Prev; Q-- != Begin;) {
        if (OutNbr[Q] == To && Edges[OutEdgeId[Q]].Site == Site) {
          ++Repeats;
          break;
        }
      }
    }
  }
  return Repeats;
}

void SDG::seal() {
  buildCSR();

  // Statement index: a counting sort of the statement nodes by dense
  // instruction rank, read off the statement runs. Scattering in node
  // id order keeps each instruction's clones ascending, so nodeFor()
  // returns the first.
  const auto &Methods = P.methods();
  MethodRank.assign(Methods.size() + 1, 0);
  for (std::size_t M = 0; M != Methods.size(); ++M)
    MethodRank[M + 1] =
        MethodRank[M] + static_cast<unsigned>(Methods[M]->instrs().size());
  const std::size_t Ranks = MethodRank.back();
  StmtCloneOff.assign(Ranks + 1, 0);
  NumStmts = 0;
  NumHeapParams = 0;
  for (const SDGNode &N : Nodes) {
    NumStmts += N.isSourceStmt();
    NumHeapParams += !N.isSourceStmt() && N.K != SDGNodeKind::HeapHub;
  }
  std::size_t StmtNodes = 0;
  for (const StmtRun &Run : StmtRuns) {
    const unsigned First = MethodRank[Run.Method] + Run.FirstInstr;
    assert(First + Run.Count <= MethodRank[Run.Method + 1] &&
           "statement run past its method");
    for (unsigned R = First; R != First + Run.Count; ++R)
      ++StmtCloneOff[R + 1];
    StmtNodes += Run.Count;
  }
  for (std::size_t R = 1; R <= Ranks; ++R)
    StmtCloneOff[R] += StmtCloneOff[R - 1];
  // The classic counting-sort cursor trick: scatter through the offsets,
  // then shift them back by one.
  StmtClones.resize(StmtNodes);
  for (const StmtRun &Run : StmtRuns) {
    const unsigned First = MethodRank[Run.Method] + Run.FirstInstr;
    for (unsigned K = 0; K != Run.Count; ++K)
      StmtClones[StmtCloneOff[First + K]++] = Run.FirstNode + K;
  }
  for (std::size_t R = Ranks; R != 0; --R)
    StmtCloneOff[R] = StmtCloneOff[R - 1];
  StmtCloneOff[0] = 0;
  StmtRuns = {};
}

//===----------------------------------------------------------------------===//
// Snapshot codec
//===----------------------------------------------------------------------===//

void SDG::encode(ByteWriter &W) const {
  putReport(W, Report);

  W.vu64(Nodes.size());
  for (const SDGNode &N : Nodes) {
    W.u8(static_cast<uint8_t>(N.K));
    W.vu64(N.I ? denseInstrKey(N.I) + 1 : 0);
    W.vu32(N.M ? N.M->id() + 1 : 0);
    W.vu32(N.Part);
    W.vu32(N.Ctx);
  }

  W.vu64(Edges.size());
  for (const SDGEdge &E : Edges) {
    W.vu32(E.From);
    W.vu32(E.To);
    W.u8(static_cast<uint8_t>(E.K));
    W.vu64(E.Site ? denseInstrKey(E.Site) + 1 : 0);
  }
}

std::unique_ptr<SDG> SDG::decode(ByteReader &R, const Program &P) {
  std::unique_ptr<SDG> G(new SDG(P));
  G->Report = getReport(R);

  const uint64_t NumNodes = R.vu64();
  // Each node record is at least 5 bytes, so the payload size bounds
  // the count; reject before reserving against a hostile header.
  if (NumNodes > R.remaining())
    throw SerializeError("SDG node count exceeds payload");
  G->Nodes.reserve(NumNodes);
  std::vector<std::tuple<uint8_t, uint64_t, unsigned, unsigned>> HeapIds;
  for (uint64_t N = 0; N != NumNodes; ++N) {
    uint8_t K = R.u8();
    if (K > static_cast<uint8_t>(SDGNodeKind::HeapHub))
      throw SerializeError("unknown SDG node kind");
    uint64_t IKey = R.vu64();
    uint32_t MId = R.vu32();
    unsigned Part = R.vu32();
    unsigned Ctx = R.vu32();
    const Instr *I = IKey ? instrForKey(P, IKey - 1) : nullptr;
    const Method *M = MId ? methodForId(P, MId - 1) : nullptr;
    if (static_cast<SDGNodeKind>(K) == SDGNodeKind::Stmt) {
      if (!I || !M)
        throw SerializeError("statement node without anchor");
      if (I->parent()->parent() != M)
        throw SerializeError("statement node outside its method");
      if (Part)
        throw SerializeError("statement node with partition");
      G->addStmtRun(static_cast<unsigned>(N), M->id(), I->id());
    } else {
      HeapIds.emplace_back(K, heapAnchorKey(I, M), Part, Ctx);
    }
    G->Nodes.push_back({static_cast<SDGNodeKind>(K), I, M, Part, Ctx,
                        static_cast<unsigned>(N)});
  }
  std::sort(HeapIds.begin(), HeapIds.end());
  if (std::adjacent_find(HeapIds.begin(), HeapIds.end()) != HeapIds.end())
    throw SerializeError("duplicate SDG node identity");

  const uint64_t NumEdges = R.vu64();
  if (NumEdges > R.remaining())
    throw SerializeError("SDG edge count exceeds payload");
  G->reserve(NumNodes, NumEdges);
  for (uint64_t E = 0; E != NumEdges; ++E) {
    unsigned From = R.vu32();
    unsigned To = R.vu32();
    uint8_t K = R.u8();
    uint64_t SKey = R.vu64();
    if (From >= NumNodes || To >= NumNodes ||
        K > static_cast<uint8_t>(SDGEdgeKind::ParamOut))
      throw SerializeError("malformed SDG edge");
    const CallInstr *Site = nullptr;
    if (SKey) {
      Site = dyn_cast<CallInstr>(instrForKey(P, SKey - 1));
      if (!Site)
        throw SerializeError("SDG edge site is not a call");
    }
    G->addEdge(From, To, static_cast<SDGEdgeKind>(K), Site);
  }

  // A built graph has no repeated edge, so a payload that repeats one
  // was not written by encode().
  G->seal();
  if (G->countRepeatedEdges() != 0)
    throw SerializeError("duplicate SDG edge");
  // Statement identity is (instruction, context): the clones of one
  // instruction must differ in context. Contexts are first renamed to
  // dense slots (a clone's statements are contiguous, so the hash
  // lookup runs about once per clone); then a per-slot stamp holding
  // the instruction's rank + 1 finds a repeat in one pass.
  std::unordered_map<unsigned, unsigned> SlotOfCtx;
  std::vector<unsigned> Slot(G->Nodes.size());
  const SDGNode *Prev = nullptr;
  for (const SDGNode &N : G->Nodes) {
    if (!N.isStmt())
      continue;
    if (Prev && Prev->Ctx == N.Ctx)
      Slot[N.Id] = Slot[Prev->Id];
    else
      Slot[N.Id] =
          SlotOfCtx.emplace(N.Ctx, static_cast<unsigned>(SlotOfCtx.size()))
              .first->second;
    Prev = &N;
  }
  std::vector<unsigned> Stamp(SlotOfCtx.size(), 0);
  for (std::size_t Rank = 0; Rank + 1 < G->StmtCloneOff.size(); ++Rank)
    for (unsigned C = G->StmtCloneOff[Rank]; C != G->StmtCloneOff[Rank + 1];
         ++C) {
      unsigned &S = Stamp[Slot[G->StmtClones[C]]];
      if (S == Rank + 1)
        throw SerializeError("duplicate SDG node identity");
      S = static_cast<unsigned>(Rank + 1);
    }
  return G;
}
