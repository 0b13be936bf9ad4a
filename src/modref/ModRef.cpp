//===-- ModRef.cpp - Interprocedural mod-ref analysis --------------------------==//

#include "modref/ModRef.h"

#include "ir/ProgramIO.h"

#include <algorithm>
#include <map>

using namespace tsl;

static uint64_t partKey(HeapPartition::Kind K, unsigned Obj, const Field *F) {
  uint64_t Tag = static_cast<uint64_t>(K) << 60;
  uint64_t FieldBits = F ? (static_cast<uint64_t>(F->id()) << 28) : 0;
  return Tag | FieldBits | Obj;
}

unsigned ModRefResult::getPartition(HeapPartition::Kind K, unsigned Obj,
                                    const Field *F) {
  auto [It, New] = PartIndex.emplace(partKey(K, Obj, F), 0);
  if (New) {
    It->second = static_cast<unsigned>(Partitions.size());
    Partitions.push_back({K, Obj, F, It->second});
  }
  return It->second;
}

BitSet ModRefResult::partitionsOf(const Instr *I) const {
  // Note: const_cast-free requires partitions to exist already; this
  // query is used after construction, when every reachable access has
  // been interned.
  BitSet Out;
  auto Lookup = [&](HeapPartition::Kind K, unsigned Obj, const Field *F) {
    auto It = PartIndex.find(partKey(K, Obj, F));
    if (It != PartIndex.end())
      Out.insert(It->second);
  };
  switch (I->kind()) {
  case InstrKind::Load: {
    const auto *L = cast<LoadInstr>(I);
    if (L->isStaticAccess())
      Lookup(HeapPartition::Kind::Static, 0, L->field());
    else
      PTA.pointsTo(L->base()).forEach([&](unsigned Obj) {
        Lookup(HeapPartition::Kind::Field, Obj, L->field());
      });
    break;
  }
  case InstrKind::Store: {
    const auto *S = cast<StoreInstr>(I);
    if (S->isStaticAccess())
      Lookup(HeapPartition::Kind::Static, 0, S->field());
    else
      PTA.pointsTo(S->base()).forEach([&](unsigned Obj) {
        Lookup(HeapPartition::Kind::Field, Obj, S->field());
      });
    break;
  }
  case InstrKind::ArrayLoad:
    PTA.pointsTo(cast<ArrayLoadInstr>(I)->array()).forEach([&](unsigned Obj) {
      Lookup(HeapPartition::Kind::ArrayElem, Obj, nullptr);
    });
    break;
  case InstrKind::ArrayStore:
    PTA.pointsTo(cast<ArrayStoreInstr>(I)->array()).forEach([&](unsigned Obj) {
      Lookup(HeapPartition::Kind::ArrayElem, Obj, nullptr);
    });
    break;
  default:
    break;
  }
  return Out;
}

void ModRefResult::collectDirect(const Method *M, const PointsToResult &PTA,
                                 BitSet &Mod, BitSet &Ref) {
  if (!M->entry())
    return;
  for (const auto &BB : M->blocks()) {
    for (const auto &I : BB->instrs()) {
      switch (I->kind()) {
      case InstrKind::Load: {
        const auto *L = cast<LoadInstr>(I.get());
        if (L->isStaticAccess()) {
          Ref.insert(getPartition(HeapPartition::Kind::Static, 0, L->field()));
        } else {
          PTA.pointsTo(L->base()).forEach([&](unsigned Obj) {
            Ref.insert(
                getPartition(HeapPartition::Kind::Field, Obj, L->field()));
          });
        }
        break;
      }
      case InstrKind::Store: {
        const auto *S = cast<StoreInstr>(I.get());
        if (S->isStaticAccess()) {
          Mod.insert(getPartition(HeapPartition::Kind::Static, 0, S->field()));
        } else {
          PTA.pointsTo(S->base()).forEach([&](unsigned Obj) {
            Mod.insert(
                getPartition(HeapPartition::Kind::Field, Obj, S->field()));
          });
        }
        break;
      }
      case InstrKind::ArrayLoad:
        PTA.pointsTo(cast<ArrayLoadInstr>(I.get())->array())
            .forEach([&](unsigned Obj) {
              Ref.insert(
                  getPartition(HeapPartition::Kind::ArrayElem, Obj, nullptr));
            });
        break;
      case InstrKind::ArrayStore:
        PTA.pointsTo(cast<ArrayStoreInstr>(I.get())->array())
            .forEach([&](unsigned Obj) {
              Mod.insert(
                  getPartition(HeapPartition::Kind::ArrayElem, Obj, nullptr));
            });
        break;
      default:
        break;
      }
    }
  }
}

ModRefResult::ModRefResult(const Program &P, const PointsToResult &PTAIn,
                           const AnalysisBudget *Budget)
    : PTA(PTAIn) {
  (void)P;
  auto T0 = std::chrono::steady_clock::now();
  const CallGraph &CG = PTA.callGraph();
  std::vector<Method *> Reachable = CG.reachableMethods();
  const unsigned NumM = static_cast<unsigned>(Reachable.size());

  // Direct effects, sequential in method order: getPartition interns
  // partition ids in first-seen order, so this scan fixes the id
  // space every downstream consumer (and every serialized artifact)
  // depends on. The per-method copies feed the incremental path.
  std::vector<BitSet> DirectMod(NumM), DirectRef(NumM);
  for (unsigned I = 0; I != NumM; ++I) {
    collectDirect(Reachable[I], PTA, DirectMod[I], DirectRef[I]);
    DirectModM[Reachable[I]->id()] = DirectMod[I];
    DirectRefM[Reachable[I]->id()] = DirectRef[I];
  }

  BudgetGate Gate(Budget, "modref.closure",
                  Budget ? Budget->MaxModRefSteps : 0);
  closeOverCallGraph(Reachable, DirectMod, DirectRef, Gate);

  if (Gate.exhausted()) {
    // Sound fallback: every reachable method may read and write every
    // partition interned by the direct-effect scan (the closure never
    // creates new partitions, it only unions existing ones).
    BitSet AllParts;
    for (unsigned Id = 0, E = numPartitions(); Id != E; ++Id)
      AllParts.insert(Id);
    for (Method *M : Reachable) {
      Mod[M->id()] = AllParts;
      Ref[M->id()] = AllParts;
    }
    Report.Status = StageStatus::Degraded;
    Report.Reason = Gate.reason();
    Report.Fallback = "all-partitions mod/ref";
  }
  Report.StepsUsed = Gate.used();
  Report.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
}

bool ModRefResult::updateIncremental(
    const std::vector<Method *> &AffectedMethods) {
  if (Report.Status != StageStatus::Complete)
    return false;
  auto T0 = std::chrono::steady_clock::now();
  const CallGraph &CG = PTA.callGraph();
  std::vector<Method *> Reachable = CG.reachableMethods();
  const unsigned NumM = static_cast<unsigned>(Reachable.size());
  std::unordered_set<const Method *> Dirty(AffectedMethods.begin(),
                                           AffectedMethods.end());

  // The gate carries no budget (the incremental path is only taken
  // for unbudgeted sessions) but surfaces "modref.update" faults for
  // the chaos harness.
  BudgetGate Gate(nullptr, "modref.update", 0);

  // Re-scan direct effects for affected and newly reachable methods;
  // everything else reuses its cached set. The scan stays in method
  // order so newly interned partition ids are deterministic.
  std::vector<BitSet> DirectMod(NumM), DirectRef(NumM);
  for (unsigned I = 0; I != NumM; ++I) {
    Method *M = Reachable[I];
    auto HaveMod = DirectModM.find(M->id());
    if (HaveMod == DirectModM.end() || Dirty.count(M)) {
      if (Gate.spend())
        return false; // Injected fault: caller rebuilds cold.
      BitSet DM, DR;
      collectDirect(M, PTA, DM, DR);
      DirectModM[M->id()] = DM;
      DirectRefM[M->id()] = DR;
      DirectMod[I] = std::move(DM);
      DirectRef[I] = std::move(DR);
    } else {
      DirectMod[I] = HaveMod->second;
      DirectRef[I] = DirectRefM[M->id()];
    }
  }

  closeOverCallGraph(Reachable, DirectMod, DirectRef, Gate);
  if (Gate.exhausted())
    return false; // Injected fault: caller rebuilds cold.

  Report.StepsUsed += Gate.used();
  Report.Seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  return true;
}

void ModRefResult::closeOverCallGraph(const std::vector<Method *> &Reachable,
                                      const std::vector<BitSet> &DirectMod,
                                      const std::vector<BitSet> &DirectRef,
                                      BudgetGate &Gate) {
  const CallGraph &CG = PTA.callGraph();
  const unsigned NumM = static_cast<unsigned>(Reachable.size());
  std::unordered_map<const Method *, unsigned> Idx;
  Idx.reserve(NumM);
  for (unsigned I = 0; I != NumM; ++I)
    Idx.emplace(Reachable[I], I);

  // Method-level callee adjacency, deduplicated and sorted so the
  // condensation below is deterministic.
  std::vector<std::vector<unsigned>> Callees(NumM);
  for (const CallEdge &E : CG.edges()) {
    auto Caller = Idx.find(CG.node(E.CallerNode).M);
    auto Callee = Idx.find(CG.node(E.CalleeNode).M);
    if (Caller == Idx.end() || Callee == Idx.end() ||
        Caller->second == Callee->second)
      continue;
    Callees[Caller->second].push_back(Callee->second);
  }
  for (std::vector<unsigned> &C : Callees) {
    std::sort(C.begin(), C.end());
    C.erase(std::unique(C.begin(), C.end()), C.end());
  }

  // SCC condensation (iterative Tarjan). Component ids are pop order:
  // for every cross-component call edge caller -> callee,
  // Comp[callee] < Comp[caller], so increasing id is bottom-up
  // (callees-first) topological order.
  std::vector<unsigned> Comp(NumM, 0);
  unsigned NumComps = 0;
  {
    std::vector<unsigned> Index(NumM, 0), Low(NumM, 0);
    std::vector<char> OnStack(NumM, 0);
    std::vector<unsigned> Stack;
    struct Frame {
      unsigned Node;
      std::size_t SuccIdx;
    };
    std::vector<Frame> DFS;
    unsigned Counter = 0;
    auto Open = [&](unsigned V) {
      Index[V] = Low[V] = ++Counter;
      Stack.push_back(V);
      OnStack[V] = 1;
      DFS.push_back({V, 0});
    };
    for (unsigned Root = 0; Root != NumM; ++Root) {
      if (Index[Root])
        continue;
      Open(Root);
      while (!DFS.empty()) {
        Frame &F = DFS.back();
        if (F.SuccIdx < Callees[F.Node].size()) {
          unsigned W = Callees[F.Node][F.SuccIdx++];
          if (!Index[W])
            Open(W); // Invalidates F; re-fetched next iteration.
          else if (OnStack[W] && Index[W] < Low[F.Node])
            Low[F.Node] = Index[W];
          continue;
        }
        const unsigned V = F.Node;
        const unsigned Lv = Low[V];
        DFS.pop_back();
        if (!DFS.empty() && Lv < Low[DFS.back().Node])
          Low[DFS.back().Node] = Lv;
        if (Lv == Index[V]) {
          const unsigned Id = NumComps++;
          while (true) {
            unsigned X = Stack.back();
            Stack.pop_back();
            OnStack[X] = 0;
            Comp[X] = Id;
            if (X == V)
              break;
          }
        }
      }
    }
  }

  // Per-SCC member lists (counting sort) and deduplicated cross-SCC
  // callee lists.
  std::vector<unsigned> MemberOff(NumComps + 1, 0), Members(NumM);
  for (unsigned M = 0; M != NumM; ++M)
    ++MemberOff[Comp[M] + 1];
  for (unsigned S = 1; S <= NumComps; ++S)
    MemberOff[S] += MemberOff[S - 1];
  {
    std::vector<unsigned> Cur(MemberOff.begin(), MemberOff.end() - 1);
    for (unsigned M = 0; M != NumM; ++M)
      Members[Cur[Comp[M]]++] = M;
  }
  std::vector<std::vector<unsigned>> SccCallees(NumComps);
  for (unsigned M = 0; M != NumM; ++M)
    for (unsigned C : Callees[M])
      if (Comp[C] != Comp[M])
        SccCallees[Comp[M]].push_back(Comp[C]);
  for (std::vector<unsigned> &C : SccCallees) {
    std::sort(C.begin(), C.end());
    C.erase(std::unique(C.begin(), C.end()), C.end());
  }

  // All members of an SCC call each other transitively, so they share
  // one transitive mod/ref set: the union of the members' direct
  // effects and the callee SCCs' sets. Callee SCCs have smaller ids,
  // so one pass in increasing id order computes the least fixpoint,
  // with each union performed exactly once. Each SCC spends one gate
  // step before its unions.
  std::vector<BitSet> SccMod(NumComps), SccRef(NumComps);
  for (unsigned S = 0; S != NumComps; ++S) {
    if (Gate.spend())
      break; // Budget exhausted; degrade below.
    BitSet &SMod = SccMod[S], &SRef = SccRef[S];
    for (unsigned I = MemberOff[S]; I != MemberOff[S + 1]; ++I) {
      SMod.unionWith(DirectMod[Members[I]]);
      SRef.unionWith(DirectRef[Members[I]]);
    }
    for (unsigned C : SccCallees[S]) {
      SMod.unionWith(SccMod[C]);
      SRef.unionWith(SccRef[C]);
    }
  }

  if (!Gate.exhausted()) {
    Mod.clear();
    Ref.clear();
    for (unsigned M = 0; M != NumM; ++M) {
      Mod[Reachable[M]->id()] = SccMod[Comp[M]];
      Ref[Reachable[M]->id()] = SccRef[Comp[M]];
    }
  }
}

const BitSet &ModRefResult::modOf(const Method *M) const {
  auto It = Mod.find(M->id());
  return It == Mod.end() ? EmptySet : It->second;
}

const BitSet &ModRefResult::refOf(const Method *M) const {
  auto It = Ref.find(M->id());
  return It == Ref.end() ? EmptySet : It->second;
}

//===----------------------------------------------------------------------===//
// Snapshot codec
//===----------------------------------------------------------------------===//

namespace {

/// Per-method rows in ascending method-id order so the encoding is
/// canonical regardless of unordered_map iteration order.
void putRows(tsl::ByteWriter &W,
             const std::unordered_map<uint32_t, tsl::BitSet> &Rows) {
  std::map<uint32_t, const tsl::BitSet *> Sorted;
  for (const auto &[MId, Bits] : Rows)
    Sorted.emplace(MId, &Bits);
  W.vu64(Sorted.size());
  for (const auto &[MId, Bits] : Sorted) {
    W.vu32(MId);
    W.bitset(*Bits);
  }
}

void getRows(tsl::ByteReader &R, const tsl::Program &P,
             std::unordered_map<uint32_t, tsl::BitSet> &Rows) {
  const uint64_t N = R.vu64();
  for (uint64_t I = 0; I != N; ++I) {
    const uint32_t MId = R.vu32();
    (void)tsl::methodForId(P, MId); // Range check.
    if (!Rows.emplace(MId, R.bitset()).second)
      throw tsl::SerializeError("duplicate mod/ref row");
  }
}

} // namespace

void ModRefResult::encode(ByteWriter &W) const {
  putReport(W, Report);
  W.vu64(Partitions.size());
  for (const HeapPartition &Part : Partitions) {
    W.u8(static_cast<uint8_t>(Part.K));
    W.vu32(Part.Obj);
    W.vu32(Part.F ? Part.F->id() + 1 : 0);
  }
  putRows(W, Mod);
  putRows(W, Ref);
  putRows(W, DirectModM);
  putRows(W, DirectRefM);
}

std::unique_ptr<ModRefResult>
ModRefResult::decode(ByteReader &R, const Program &P,
                     const PointsToResult &PTA) {
  std::unique_ptr<ModRefResult> MR(new ModRefResult(DecodeTag{}, PTA));
  MR->Report = getReport(R);
  const uint64_t NumParts = R.vu64();
  for (uint64_t I = 0; I != NumParts; ++I) {
    const uint8_t K = R.u8();
    if (K > static_cast<uint8_t>(HeapPartition::Kind::Static))
      throw SerializeError("unknown partition kind");
    const auto Kind = static_cast<HeapPartition::Kind>(K);
    const unsigned Obj = R.vu32();
    const uint32_t FRef = R.vu32();
    const Field *F = FRef ? fieldForId(P, FRef - 1) : nullptr;
    if ((Kind == HeapPartition::Kind::ArrayElem) != (F == nullptr))
      throw SerializeError("partition kind/field mismatch");
    const unsigned Id = static_cast<unsigned>(MR->Partitions.size());
    if (!MR->PartIndex.emplace(partKey(Kind, Obj, F), Id).second)
      throw SerializeError("duplicate heap partition");
    MR->Partitions.push_back({Kind, Obj, F, Id});
  }
  getRows(R, P, MR->Mod);
  getRows(R, P, MR->Ref);
  getRows(R, P, MR->DirectModM);
  getRows(R, P, MR->DirectRefM);
  return MR;
}

std::string ModRefResult::partitionName(unsigned Id, const Program &P) const {
  const HeapPartition &Part = Partitions[Id];
  switch (Part.K) {
  case HeapPartition::Kind::Field:
    return "obj" + std::to_string(Part.Obj) + "." +
           P.strings().str(Part.F->name());
  case HeapPartition::Kind::ArrayElem:
    return "obj" + std::to_string(Part.Obj) + "[*]";
  case HeapPartition::Kind::Static:
    return P.strings().str(Part.F->owner()->name()) + "." +
           P.strings().str(Part.F->name());
  }
  return "?";
}
