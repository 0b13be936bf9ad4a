//===-- SDG.cpp - System dependence graph ------------------------------------==//

#include "sdg/SDG.h"

#include "ir/ProgramIO.h"
#include "support/Casting.h"

#include <algorithm>
#include <cstring>
#include <tuple>

using namespace tsl;

namespace {

/// Dense anchor of one heap node identity: the call site's
/// denseInstrKey, or a method sentinel key for formal nodes (the low
/// word 0xFFFFFFFF is never a renumbered instruction id), or 0 for
/// the anchorless global HeapHub. Per node kind exactly one of the
/// three shapes occurs, so the encodings cannot collide within one
/// identity tuple.
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
  const uint64_t Key = denseInstrKey(I);
  auto It = std::lower_bound(StmtKeys.begin(), StmtKeys.end(), Key);
  if (It == StmtKeys.end() || *It != Key)
    return {};
  std::size_t Idx = static_cast<std::size_t>(It - StmtKeys.begin());
  return {StmtClones.data() + StmtCloneOff[Idx],
          StmtClones.data() + StmtCloneOff[Idx + 1]};
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
  // both directions. Within one (node, kind) segment edges keep
  // ascending edge-id order, so the layout is deterministic.
  InOff.assign(Slots + 1, 0);
  OutOff.assign(Slots + 1, 0);
  for (const SDGEdge &E : Edges) {
    ++InOff[std::size_t(E.To) * NK + sdgKindSlot(E.K) + 1];
    ++OutOff[std::size_t(E.From) * NK + sdgKindSlot(E.K) + 1];
  }
  for (std::size_t I = 1; I <= Slots; ++I) {
    InOff[I] += InOff[I - 1];
    OutOff[I] += OutOff[I - 1];
  }
  InNbr.resize(Edges.size());
  InEdgeId.resize(Edges.size());
  OutNbr.resize(Edges.size());
  OutEdgeId.resize(Edges.size());
  // Scatter using the offset arrays themselves as cursors (classic
  // counting-sort trick: after the scatter InOff[s] is the END of
  // segment s, i.e. the start of s+1, so shifting restores offsets
  // without a cursor copy).
  for (std::size_t EdgeId = 0; EdgeId != Edges.size(); ++EdgeId) {
    const SDGEdge &E = Edges[EdgeId];
    unsigned InPos = InOff[std::size_t(E.To) * NK + sdgKindSlot(E.K)]++;
    InNbr[InPos] = E.From;
    InEdgeId[InPos] = static_cast<unsigned>(EdgeId);
    unsigned OutPos = OutOff[std::size_t(E.From) * NK + sdgKindSlot(E.K)]++;
    OutNbr[OutPos] = E.To;
    OutEdgeId[OutPos] = static_cast<unsigned>(EdgeId);
  }
  for (std::size_t I = Slots; I != 0; --I) {
    InOff[I] = InOff[I - 1];
    OutOff[I] = OutOff[I - 1];
  }
  InOff[0] = 0;
  OutOff[0] = 0;
}

std::size_t SDG::seal() {
  // Edge identity is (From, To, kind, call site). Sorting the keys
  // with the edge id as the last component puts each edge's first
  // occurrence at the head of its run of repeats.
  struct EdgeKey {
    uint64_t Ends;
    uint64_t Site;
    unsigned K;
    unsigned Id;
  };
  std::vector<EdgeKey> Keys;
  Keys.reserve(Edges.size());
  for (std::size_t Id = 0; Id != Edges.size(); ++Id) {
    const SDGEdge &E = Edges[Id];
    Keys.push_back({(static_cast<uint64_t>(E.From) << 32) | E.To,
                    E.Site ? denseInstrKey(E.Site) : 0,
                    static_cast<unsigned>(E.K), static_cast<unsigned>(Id)});
  }
  auto Identity = [](const EdgeKey &A) {
    return std::tie(A.Ends, A.Site, A.K);
  };
  std::sort(Keys.begin(), Keys.end(), [](const EdgeKey &A, const EdgeKey &B) {
    return std::tie(A.Ends, A.Site, A.K, A.Id) <
           std::tie(B.Ends, B.Site, B.K, B.Id);
  });
  std::vector<bool> Repeat(Edges.size());
  for (std::size_t I = 1; I < Keys.size(); ++I)
    Repeat[Keys[I].Id] = Identity(Keys[I]) == Identity(Keys[I - 1]);
  std::size_t Kept = 0;
  for (std::size_t Id = 0; Id != Edges.size(); ++Id)
    if (!Repeat[Id])
      Edges[Kept++] = Edges[Id];
  const std::size_t Dropped = Edges.size() - Kept;
  Edges.resize(Kept);
  buildCSR();

  // Sorted statement index. The sort is stable by key, so the clones
  // of one instruction stay in id (= context insertion) order and
  // nodeFor() returns the first clone.
  std::vector<std::pair<uint64_t, unsigned>> StmtPairs;
  NumStmts = 0;
  for (const SDGNode &N : Nodes) {
    NumStmts += N.isSourceStmt();
    if (N.isStmt())
      StmtPairs.emplace_back(denseInstrKey(N.I), N.Id);
  }
  std::stable_sort(
      StmtPairs.begin(), StmtPairs.end(),
      [](const auto &A, const auto &B) { return A.first < B.first; });
  StmtKeys.reserve(StmtPairs.size());
  StmtClones.reserve(StmtPairs.size());
  StmtCloneOff.push_back(0);
  for (std::size_t I = 0, J = 0; I != StmtPairs.size(); I = J) {
    StmtKeys.push_back(StmtPairs[I].first);
    for (; J != StmtPairs.size() && StmtPairs[J].first == StmtPairs[I].first;
         ++J)
      StmtClones.push_back(StmtPairs[J].second);
    StmtCloneOff.push_back(static_cast<unsigned>(StmtClones.size()));
  }
  return Dropped;
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
      if (Part)
        throw SerializeError("statement node with partition");
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
  G->Edges.reserve(NumEdges);
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
    G->Edges.push_back({From, To, static_cast<SDGEdgeKind>(K), Site});
  }

  // A cold build never emits an edge twice, so sealing must keep them
  // all.
  if (G->seal() != 0)
    throw SerializeError("duplicate SDG edge");
  // Statement identity is (instruction, context): the clones of one
  // instruction, adjacent in the sealed index, must differ in context.
  for (std::size_t Key = 0; Key != G->StmtKeys.size(); ++Key)
    for (unsigned A = G->StmtCloneOff[Key]; A != G->StmtCloneOff[Key + 1]; ++A)
      for (unsigned B = A + 1; B != G->StmtCloneOff[Key + 1]; ++B)
        if (G->Nodes[G->StmtClones[A]].Ctx == G->Nodes[G->StmtClones[B]].Ctx)
          throw SerializeError("duplicate SDG node identity");
  return G;
}
