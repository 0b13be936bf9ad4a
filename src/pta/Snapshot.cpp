//===-- Snapshot.cpp - Serialized points-to artifact ---------------------------==//

#include "pta/Snapshot.h"

#include "ir/ProgramIO.h"
#include "support/Casting.h"

#include <algorithm>
#include <map>
#include <unordered_set>
#include <utility>

using namespace tsl;

namespace {

//===----------------------------------------------------------------------===//
// SnapshotPointsToResult
//===----------------------------------------------------------------------===//

/// A decoded points-to result: pure lookup tables keyed by dense ids,
/// answering every PointsToResult query identically to the result the
/// encoder walked. applyIncrementalUpdate keeps the base class's
/// declining implementation — after a warm start, the first edit
/// triggers a sound cold points-to rebuild.
class SnapshotPointsToResult : public PointsToResult {
public:
  const std::vector<AbstractObject> &objects() const override {
    return Objects;
  }

  unsigned contextObject(unsigned Ctx) const override {
    return Ctx < CtxObj.size() ? CtxObj[Ctx] : ~0u;
  }

  const SparseBitSet &pointsTo(const Local *L) const override {
    auto It = Merged.find(denseLocalKey(L));
    return It == Merged.end() ? Empty : It->second;
  }

  const SparseBitSet &pointsTo(const Local *L, unsigned Ctx) const override {
    auto It = PerCtx.find({denseLocalKey(L), Ctx});
    return It == PerCtx.end() ? Empty : It->second;
  }

  const CallGraph &callGraph() const override { return CG; }
  const ClassHierarchy &hierarchy() const override { return *CH; }

  bool castCannotFail(const CastInstr *Cast) const override {
    return CastOK.count(denseInstrKey(Cast)) != 0;
  }

  unsigned numConstraintNodes() const override { return NumConstraintNodes; }
  const SolverStats &stats() const override { return Stats; }
  const StageReport &report() const override { return Report; }

  std::vector<AbstractObject> Objects;
  std::vector<unsigned> CtxObj; ///< Defining object per context id.
  std::unordered_map<uint64_t, SparseBitSet> Merged;
  std::map<std::pair<uint64_t, unsigned>, SparseBitSet> PerCtx;
  CallGraph CG;
  std::unique_ptr<ClassHierarchy> CH;
  std::unordered_set<uint64_t> CastOK;
  SolverStats Stats;
  StageReport Report{"pta", StageStatus::Complete, "", "", 0, 0};
  unsigned NumConstraintNodes = 0;
  SparseBitSet Empty;
};

void putStats(ByteWriter &W, const SolverStats &S) {
  W.vu32(S.NumNodes);
  W.vu32(S.NumRepNodes);
  W.vu32(S.NumCopyEdges);
  W.vu32(S.NumConstraints);
  W.vu32(S.NumObjects);
  W.vu64(S.WorklistPops);
  W.vu64(S.Propagations);
  W.vu64(S.NoChangePropagations);
  W.vu64(S.DeltaBitsMoved);
  W.vu64(S.ConstraintEvals);
  W.vu32(S.CyclesCollapsed);
  W.vu32(S.NodesMerged);
  putDouble(W, S.SolveSeconds);
  putDouble(W, S.FinalizeSeconds);
}

SolverStats getStats(ByteReader &R) {
  SolverStats S;
  S.NumNodes = R.vu32();
  S.NumRepNodes = R.vu32();
  S.NumCopyEdges = R.vu32();
  S.NumConstraints = R.vu32();
  S.NumObjects = R.vu32();
  S.WorklistPops = R.vu64();
  S.Propagations = R.vu64();
  S.NoChangePropagations = R.vu64();
  S.DeltaBitsMoved = R.vu64();
  S.ConstraintEvals = R.vu64();
  S.CyclesCollapsed = R.vu32();
  S.NodesMerged = R.vu32();
  S.SolveSeconds = getDouble(R);
  S.FinalizeSeconds = getDouble(R);
  return S;
}

/// Bits in a decoded points-to row are abstract object ids; reject
/// any id past the decoded object table.
void checkRow(const SparseBitSet &Row, std::size_t NumObjects) {
  unsigned Max = 0;
  Row.forEach([&](unsigned Id) { Max = Id; }); // Ascending: last wins.
  if (Row.count() && Max >= NumObjects)
    throw SerializeError("points-to row references unknown object");
}

} // namespace

void tsl::encodePointsTo(const PointsToResult &PTA, const Program &P,
                         ByteWriter &W) {
  putReport(W, PTA.report());
  putStats(W, PTA.stats());
  W.vu32(PTA.numConstraintNodes());

  // Object table, in id order. Sites and types are dense references.
  const std::vector<AbstractObject> &Objects = PTA.objects();
  W.vu64(Objects.size());
  for (const AbstractObject &Obj : Objects) {
    W.vu64(Obj.Site ? denseInstrKey(Obj.Site) + 1 : 0);
    W.vu32(Obj.AllocCtx);
    encodeType(Obj.Ty, W);
    W.vu32(Obj.CtxDepth);
  }

  const CallGraph &CG = PTA.callGraph();

  // Context chain. The interface has no context count, but every
  // context id a query can name appears as a call graph node context
  // or an object's allocation context (context-defining objects are
  // in the table, so chains are covered transitively).
  unsigned NumCtx = 1;
  for (const AbstractObject &Obj : Objects)
    NumCtx = std::max(NumCtx, Obj.AllocCtx + 1);
  for (const MethodCtx &N : CG.nodes())
    NumCtx = std::max(NumCtx, N.Ctx + 1);
  W.vu32(NumCtx);
  for (unsigned Ctx = 1; Ctx != NumCtx; ++Ctx)
    W.vu32(PTA.contextObject(Ctx));

  // Call graph: nodes then edges, in creation order, so decode-side
  // replay through getOrCreateNode/addEdge reproduces every id.
  W.vu64(CG.nodes().size());
  for (const MethodCtx &N : CG.nodes()) {
    W.vu32(N.M->id());
    W.vu32(N.Ctx);
  }
  W.vu64(CG.edges().size());
  for (const CallEdge &E : CG.edges()) {
    W.vu32(E.CallerNode);
    W.vu64(denseInstrKey(E.Site));
    W.vu32(E.CalleeNode);
  }

  // Points-to rows, enumerated in method-id/local-id order (canonical
  // regardless of the solver's internal table layout). Empty rows are
  // elided: absent keys already answer with the empty set.
  std::vector<std::pair<uint64_t, const SparseBitSet *>> MergedRows;
  std::vector<std::pair<std::pair<uint64_t, unsigned>, const SparseBitSet *>>
      CtxRows;
  for (const auto &M : P.methods()) {
    const std::vector<unsigned> &Nodes = CG.nodesOf(M.get());
    std::vector<unsigned> Ctxs;
    Ctxs.reserve(Nodes.size());
    for (unsigned NId : Nodes)
      Ctxs.push_back(CG.node(NId).Ctx);
    std::sort(Ctxs.begin(), Ctxs.end());
    Ctxs.erase(std::unique(Ctxs.begin(), Ctxs.end()), Ctxs.end());
    for (const auto &L : M->locals()) {
      const SparseBitSet &Row = PTA.pointsTo(L.get());
      if (Row.count())
        MergedRows.emplace_back(denseLocalKey(L.get()), &Row);
      for (unsigned Ctx : Ctxs) {
        const SparseBitSet &CtxRow = PTA.pointsTo(L.get(), Ctx);
        if (CtxRow.count())
          CtxRows.push_back({{denseLocalKey(L.get()), Ctx}, &CtxRow});
      }
    }
  }
  W.vu64(MergedRows.size());
  for (const auto &[Key, Row] : MergedRows) {
    W.vu64(Key);
    W.bitset(*Row);
  }
  W.vu64(CtxRows.size());
  for (const auto &[Key, Row] : CtxRows) {
    W.vu64(Key.first);
    W.vu32(Key.second);
    W.bitset(*Row);
  }

  // Proven-safe casts, by dense key, over every cast in the program
  // (the verdict for unreachable casts round-trips too).
  std::vector<uint64_t> OKCasts;
  for (const auto &M : P.methods())
    for (const Instr *I : M->instrs())
      if (const auto *Cast = dyn_cast<CastInstr>(I))
        if (PTA.castCannotFail(Cast))
          OKCasts.push_back(denseInstrKey(Cast));
  W.vu64(OKCasts.size());
  for (uint64_t Key : OKCasts)
    W.vu64(Key);
}

std::unique_ptr<PointsToResult> tsl::decodePointsTo(ByteReader &R,
                                                    const Program &P) {
  auto Res = std::make_unique<SnapshotPointsToResult>();
  Res->Report = getReport(R);
  Res->Stats = getStats(R);
  Res->NumConstraintNodes = R.vu32();

  const uint64_t NumObjects = R.vu64();
  Res->Objects.reserve(NumObjects);
  for (uint64_t I = 0; I != NumObjects; ++I) {
    const uint64_t SiteRef = R.vu64();
    const Instr *Site = SiteRef ? instrForKey(P, SiteRef - 1) : nullptr;
    const unsigned AllocCtx = R.vu32();
    const Type *Ty = decodeType(R, P);
    const unsigned CtxDepth = R.vu32();
    Res->Objects.push_back(
        {Site, AllocCtx, Ty, CtxDepth, static_cast<unsigned>(I)});
  }

  const unsigned NumCtx = R.vu32();
  Res->CtxObj.assign(NumCtx, ~0u);
  for (unsigned Ctx = 1; Ctx < NumCtx; ++Ctx) {
    const unsigned Obj = R.vu32();
    if (Obj >= NumObjects)
      throw SerializeError("context defined by unknown object");
    Res->CtxObj[Ctx] = Obj;
  }
  for (const AbstractObject &Obj : Res->Objects)
    if (Obj.AllocCtx >= NumCtx)
      throw SerializeError("object in unknown context");

  const uint64_t NumNodes = R.vu64();
  for (uint64_t I = 0; I != NumNodes; ++I) {
    Method *M = methodForId(P, R.vu32());
    const unsigned Ctx = R.vu32();
    if (Ctx >= NumCtx)
      throw SerializeError("call graph node in unknown context");
    if (Res->CG.getOrCreateNode(M, Ctx) != I)
      throw SerializeError("duplicate call graph node");
  }
  const uint64_t NumEdges = R.vu64();
  for (uint64_t I = 0; I != NumEdges; ++I) {
    const unsigned Caller = R.vu32();
    const uint64_t SiteKey = R.vu64();
    const unsigned Callee = R.vu32();
    if (Caller >= NumNodes || Callee >= NumNodes)
      throw SerializeError("call edge endpoint out of range");
    const auto *Site = dyn_cast<CallInstr>(instrForKey(P, SiteKey));
    if (!Site)
      throw SerializeError("call edge site is not a call");
    if (!Res->CG.addEdge(Caller, Site, Callee))
      throw SerializeError("duplicate call edge");
  }

  const uint64_t NumMerged = R.vu64();
  if (NumMerged > R.remaining())
    throw SerializeError("points-to row count exceeds payload");
  Res->Merged.reserve(NumMerged);
  for (uint64_t I = 0; I != NumMerged; ++I) {
    const uint64_t Key = R.vu64();
    (void)localForKey(P, Key); // Range check.
    SparseBitSet Row = R.bitset();
    checkRow(Row, NumObjects);
    if (!Res->Merged.emplace(Key, std::move(Row)).second)
      throw SerializeError("duplicate points-to row");
  }
  const uint64_t NumCtxRows = R.vu64();
  for (uint64_t I = 0; I != NumCtxRows; ++I) {
    const uint64_t Key = R.vu64();
    (void)localForKey(P, Key);
    const unsigned Ctx = R.vu32();
    if (Ctx >= NumCtx)
      throw SerializeError("points-to row in unknown context");
    SparseBitSet Row = R.bitset();
    checkRow(Row, NumObjects);
    if (!Res->PerCtx.emplace(std::make_pair(Key, Ctx), std::move(Row))
             .second)
      throw SerializeError("duplicate per-context points-to row");
  }

  const uint64_t NumCasts = R.vu64();
  if (NumCasts > R.remaining())
    throw SerializeError("cast verdict count exceeds payload");
  Res->CastOK.reserve(NumCasts);
  for (uint64_t I = 0; I != NumCasts; ++I) {
    const uint64_t Key = R.vu64();
    if (!isa<CastInstr>(instrForKey(P, Key)))
      throw SerializeError("cast verdict on a non-cast instruction");
    if (!Res->CastOK.insert(Key).second)
      throw SerializeError("duplicate cast verdict");
  }

  Res->CH = std::make_unique<ClassHierarchy>(P);
  return Res;
}
