//===-- Engine.cpp - The slice-query engine ---------------------------------==//

#include "slicer/Engine.h"

#include "slicer/Expansion.h"
#include "slicer/Report.h"
#include "support/BitSet.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <thread>

using namespace tsl;

//===----------------------------------------------------------------------===//
// SCC condensation of the mode-masked subgraph
//===----------------------------------------------------------------------===//

namespace tsl {

/// Condensation of the masked SDG subgraph. Component ids are Tarjan
/// pop order, which gives the key invariant: for every cross-component
/// edge From -> To, Comp[To] < Comp[From]. A sweep over components in
/// increasing id therefore sees each edge's To side fully propagated
/// before its From side — backward reachability for a whole chunk of
/// queries is one linear pass.
struct BatchCondensation {
  std::vector<unsigned> Comp;      ///< Node -> component id.
  std::vector<unsigned> MemberOff; ///< Component -> members offset.
  std::vector<unsigned> Members;   ///< Node ids grouped by component.
  unsigned NumComps = 0;
};

} // namespace tsl

namespace {

/// Iterative Tarjan over the masked out-adjacency (explicit DFS stack;
/// the masked neighbor list of a frame is resumable via neighbor-run
/// pointers, one run per contiguous slot interval of the mask).
BatchCondensation condense(const SDG &G, const EdgeKindRuns &Runs) {
  const unsigned NN = G.numNodes();
  BatchCondensation C;
  C.Comp.assign(NN, 0);
  std::vector<unsigned> Index(NN, 0), Low(NN, 0);
  std::vector<char> OnStack(NN, 0);
  std::vector<unsigned> Stack;
  struct Frame {
    unsigned Node;
    unsigned Run;
    const unsigned *Pos, *End;
  };
  std::vector<Frame> DFS;
  unsigned Counter = 0;
  auto Open = [&](unsigned V) {
    Index[V] = Low[V] = ++Counter;
    Stack.push_back(V);
    OnStack[V] = 1;
    DFS.push_back({V, 0, nullptr, nullptr});
  };
  for (unsigned Root = 0; Root != NN; ++Root) {
    if (Index[Root])
      continue;
    Open(Root);
    while (!DFS.empty()) {
      Frame &F = DFS.back();
      unsigned Next = 0;
      bool Have = false;
      while (true) {
        if (F.Pos == F.End) {
          if (F.Run == Runs.NumRuns)
            break;
          IdRange R = G.outNeighborRun(F.Node, Runs.Runs[F.Run].Begin,
                                       Runs.Runs[F.Run].End);
          F.Pos = R.begin();
          F.End = R.end();
          ++F.Run;
          continue;
        }
        Next = *F.Pos++;
        Have = true;
        break;
      }
      if (Have) {
        if (!Index[Next])
          Open(Next); // Invalidates F; re-fetched next iteration.
        else if (OnStack[Next] && Index[Next] < Low[F.Node])
          Low[F.Node] = Index[Next];
        continue;
      }
      const unsigned V = F.Node;
      const unsigned Lv = Low[V];
      DFS.pop_back();
      if (!DFS.empty() && Lv < Low[DFS.back().Node])
        Low[DFS.back().Node] = Lv;
      if (Lv == Index[V]) {
        const unsigned Id = C.NumComps++;
        while (true) {
          unsigned X = Stack.back();
          Stack.pop_back();
          OnStack[X] = 0;
          C.Comp[X] = Id;
          if (X == V)
            break;
        }
      }
    }
  }
  // Member lists by counting sort.
  C.MemberOff.assign(C.NumComps + 1, 0);
  for (unsigned V = 0; V != NN; ++V)
    ++C.MemberOff[C.Comp[V] + 1];
  for (unsigned I = 1; I <= C.NumComps; ++I)
    C.MemberOff[I] += C.MemberOff[I - 1];
  C.Members.resize(NN);
  std::vector<unsigned> Cur(C.MemberOff.begin(), C.MemberOff.end() - 1);
  for (unsigned V = 0; V != NN; ++V)
    C.Members[Cur[C.Comp[V]]++] = V;
  return C;
}

/// One deduplicated query: the seed's expanded node set plus a
/// representative instruction (used by the tabulation path, which
/// seeds by instruction; seeds sharing a node set produce identical
/// slices either way).
struct UniqueQuery {
  std::vector<unsigned> Nodes;
  const Instr *Seed;
};

/// Queries per bit-parallel chunk: one label bit per query.
constexpr unsigned LanesPerChunk = 64;

} // namespace

//===----------------------------------------------------------------------===//
// SliceQuery and SliceEngine
//===----------------------------------------------------------------------===//

std::string SliceQuery::label() const {
  if (ChopSink)
    return "chop";
  if (Forward)
    return "forward slice";
  if (Expand)
    return "fully expanded thin slice";
  if (AliasDepth)
    return "thin slice (+" + std::to_string(AliasDepth) + " aliasing levels)";
  return sliceKindName(Mode, ContextSensitive);
}

std::pair<const char *, const char *>
SliceQuery::conflict(const SliceQuery &Shape, bool Chop) {
  const bool Forward = Shape.Forward, Expand = Shape.Expand;
  // A refinement is a context-insensitive backward thin slice.
  const char *Refinement =
      Expand ? "expand" : Shape.AliasDepth ? "alias-depth" : nullptr;
  if (Chop && Forward)
    return {"chop", "forward"};
  if (Expand && Shape.AliasDepth)
    return {"expand", "alias-depth"};
  if (Refinement && (Chop || Forward || Shape.ContextSensitive))
    return {Chop ? "chop" : Forward ? "forward" : "context-sensitive",
            Refinement};
  return {nullptr, nullptr};
}

SliceEngine::SliceEngine(const SDG &G, ThreadPool *Pool) : G(G), Pool(Pool) {}

SliceEngine::~SliceEngine() = default;

std::shared_ptr<const BatchCondensation>
SliceEngine::condensationFor(EdgeKindMask Mask, bool &Reused) const {
  // Held across the build: concurrent batches on one mask wait for
  // the first one's condensation instead of building their own.
  std::lock_guard<std::mutex> L(CondMu);
  auto It = CondCache.find(Mask);
  Reused = It != CondCache.end();
  if (Reused)
    return It->second;
  auto C = std::make_shared<const BatchCondensation>(
      condense(G, edgeKindRuns(Mask)));
  CondCache.emplace(Mask, C);
  return C;
}

SliceAnswer SliceEngine::run(const SliceQuery &Q,
                             const PointsToResult *PTA) const {
  if (auto [A, B] = Q.conflict(); A)
    throw std::invalid_argument(std::string("slice query combines ") + A +
                                " with " + B);
  if ((Q.ChopSink || Q.Forward || Q.Expand || Q.AliasDepth) &&
      Q.Seeds.size() != 1)
    throw std::invalid_argument(Q.label() + " takes exactly one seed");
  if ((Q.Expand || Q.AliasDepth) && !PTA)
    throw std::invalid_argument(Q.label() + " needs the points-to result");
  if (Q.Seeds.size() != 1)
    return batch(Q.Seeds, Q);

  SliceAnswer A;
  A.Stats = {/*Queries=*/1, /*UniqueQueries=*/1, /*Workers=*/1};
  const Instr *Seed = Q.Seeds.front();
  std::vector<SliceResult> &Out = A.Results;
  if (Q.ChopSink) {
    SliceResult Fwd = sliceForward(G, Seed, Q.Mode, Q.Budget);
    SliceResult Bwd = sliceBackward(G, Q.ChopSink, Q.Mode, Q.Budget);
    BitSet Nodes = Fwd.nodeSet();
    Nodes.intersectWith(Bwd.nodeSet());
    // Degraded if either side is: a subset of the full chop still.
    Out.emplace_back(&G, std::move(Nodes));
    if (!Fwd.complete())
      Out.back().markDegraded(Fwd.degradedReason());
    if (!Bwd.complete())
      Out.back().markDegraded(Bwd.degradedReason());
  } else if (Q.Forward) {
    Out.push_back(sliceForward(G, Seed, Q.Mode, Q.Budget));
  } else if (Q.Expand || Q.AliasDepth) {
    ThinExpansion Exp(G, *PTA, Q.Budget);
    Out.push_back(Q.Expand ? Exp.expandToTraditional(Seed)
                           : Exp.thinSliceWithAliasDepth(Seed, Q.AliasDepth));
  } else if (Q.ContextSensitive) {
    TabulationSlicer Tab(G, Q.Mode, Q.Budget, Q.Summaries);
    A.Stats.SummariesReused = Tab.summariesFromCache();
    Out.push_back(Tab.slice(Seed));
  } else {
    Out.push_back(sliceBackward(G, Seed, Q.Mode, Q.Budget));
  }
  return A;
}

std::vector<SliceResult>
SliceEngine::sliceBackwardBatch(const std::vector<const Instr *> &Seeds,
                                const BatchOptions &Opts) const {
  return batch(Seeds, Opts).Results;
}

SliceAnswer SliceEngine::batch(const std::vector<const Instr *> &Seeds,
                               const BatchOptions &Opts) const {
  SliceAnswer A;
  BatchStats &Stats = A.Stats;
  Stats.Queries = static_cast<unsigned>(Seeds.size());

  // Deduplicate seeds by their expanded node set: textually different
  // seeds on the same statement (or several misses) collapse to one
  // query each.
  std::vector<UniqueQuery> Unique;
  std::vector<unsigned> QueryOf(Seeds.size());
  std::map<std::vector<unsigned>, unsigned> Index;
  for (std::size_t I = 0; I != Seeds.size(); ++I) {
    std::vector<unsigned> Nodes;
    for (unsigned Node : G.nodesFor(Seeds[I]))
      Nodes.push_back(Node);
    auto [It, New] =
        Index.emplace(Nodes, static_cast<unsigned>(Unique.size()));
    if (New)
      Unique.push_back({std::move(Nodes), Seeds[I]});
    QueryOf[I] = It->second;
  }
  Stats.UniqueQueries = static_cast<unsigned>(Unique.size());

  // Everything that reaches process globals happens here, before
  // workers exist: the batch-wide gate, the condensation cache, and
  // (context-sensitive mode) the summary computation.
  SharedBudgetGate Gate(Opts.Budget, "slice.pop",
                        Opts.Budget ? Opts.Budget->MaxSlicePops : 0);
  std::vector<std::optional<SliceResult>> UniqueResults(Unique.size());

  // Crash isolation: nothing in this batch throws across the engine
  // boundary. A query (or the shared summary computation) that dies —
  // an injected Throw fault, an internal error — comes back as an
  // *empty degraded* result tagged "exception:<what>", and the shared
  // gate is cancelled so sibling queries stop burning work for a
  // batch that already failed.
  auto FailAll = [&](const std::string &Why) {
    A.Results.reserve(Seeds.size());
    for (std::size_t I = 0; I != Seeds.size(); ++I) {
      A.Results.emplace_back(&G, BitSet(G.numNodes()));
      A.Results.back().markDegraded(Why);
    }
    return A;
  };

  std::optional<TabulationSlicer> Tab;
  std::shared_ptr<const BatchCondensation> Cond;
  try {
    if (Opts.ContextSensitive) {
      Tab.emplace(G, Opts.Mode, Opts.Budget, Opts.Summaries);
      Stats.SummariesReused = Tab->summariesFromCache();
    } else {
      Cond = condensationFor(sliceEdgeMask(Opts.Mode),
                             Stats.CondensationReused);
    }
  } catch (const std::exception &E) {
    return FailAll(std::string("exception:") + E.what());
  }

  // Work items: unique queries in CS mode, 64-query chunks in CI mode.
  const unsigned NumChunks =
      (static_cast<unsigned>(Unique.size()) + LanesPerChunk - 1) /
      LanesPerChunk;
  const std::size_t NumItems = Tab ? Unique.size() : NumChunks;

  // The engine never creates threads: no pool, one worker.
  const unsigned Jobs =
      Opts.Jobs ? Opts.Jobs : std::thread::hardware_concurrency();
  const unsigned Workers =
      std::max(1u, std::min({Jobs, Pool ? Pool->concurrency() : 1u,
                             static_cast<unsigned>(NumItems)}));
  Stats.Workers = Workers;

  // CI chunk: plant each lane's seed nodes, sweep the components in
  // topological id order (all of a component's dependents finish
  // first), then emit per-lane node sets. Every member of a component
  // carries the same label — mutually reachable nodes belong to
  // exactly the same slices.
  auto RunChunk = [&](unsigned Chunk) {
    const unsigned C0 = Chunk * LanesPerChunk;
    const unsigned Lanes = std::min(
        LanesPerChunk, static_cast<unsigned>(Unique.size()) - C0);
    const EdgeKindRuns Runs = edgeKindRuns(sliceEdgeMask(Opts.Mode));
    std::vector<uint64_t> Label(G.numNodes(), 0);
    for (unsigned L = 0; L != Lanes; ++L)
      for (unsigned Node : Unique[C0 + L].Nodes)
        Label[Node] |= uint64_t(1) << L;
    std::vector<BitSet> Out;
    Out.reserve(Lanes);
    for (unsigned L = 0; L != Lanes; ++L)
      Out.emplace_back(G.numNodes());
    const std::vector<unsigned> &MemberOff = Cond->MemberOff;
    const std::vector<unsigned> &Members = Cond->Members;
    for (unsigned Cp = 0; Cp != Cond->NumComps; ++Cp) {
      uint64_t Lb = 0;
      const unsigned B = MemberOff[Cp], E = MemberOff[Cp + 1];
      for (unsigned I = B; I != E; ++I)
        Lb |= Label[Members[I]];
      if (!Lb)
        continue;
      // One spend per labeled component — the batch analogue of the
      // single-seed slicer's per-pop poll.
      if (Gate.spend())
        break;
      for (unsigned I = B; I != E; ++I) {
        const unsigned X = Members[I];
        Label[X] = Lb;
        G.forEachInNeighbor(X, Runs,
                            [&](unsigned Y) { Label[Y] |= Lb; });
      }
      uint64_t T = Lb;
      while (T) {
        const unsigned L = static_cast<unsigned>(__builtin_ctzll(T));
        T &= T - 1;
        BitSet &R = Out[L];
        for (unsigned I = B; I != E; ++I)
          R.insert(Members[I]);
      }
    }
    const bool Degraded = Gate.exhausted();
    for (unsigned L = 0; L != Lanes; ++L) {
      UniqueResults[C0 + L].emplace(&G, std::move(Out[L]));
      if (Degraded)
        UniqueResults[C0 + L]->markDegraded(Gate.reason());
    }
  };

  // A failed work item (exception escaping a query) yields empty
  // degraded results for every lane it covers, so the batch contract
  // — one SliceResult per seed, throwing never — holds regardless.
  auto FailItem = [&](unsigned Item, const std::string &Why) {
    const unsigned C0 = Tab ? Item : Item * LanesPerChunk;
    const unsigned Lanes =
        Tab ? 1
            : std::min(LanesPerChunk,
                       static_cast<unsigned>(Unique.size()) - C0);
    for (unsigned L = 0; L != Lanes; ++L) {
      UniqueResults[C0 + L].emplace(&G, BitSet(G.numNodes()));
      UniqueResults[C0 + L]->markDegraded(Why);
    }
  };

  auto RunItem = [&](unsigned Item) {
    try {
      if (Tab)
        UniqueResults[Item].emplace(Tab->slice(
            std::vector<const Instr *>{Unique[Item].Seed}, &Gate));
      else
        RunChunk(Item);
    } catch (const std::exception &E) {
      std::string Why = std::string("exception:") + E.what();
      Gate.cancel(Why); // Sibling queries stop at their next spend.
      FailItem(Item, Why);
    }
  };

  if (Workers <= 1) {
    // Single-worker batches run inline: the pool is not consulted, no
    // task is queued.
    for (unsigned I = 0; I != NumItems; ++I)
      RunItem(I);
  } else {
    // Every item must produce a SliceResult (degraded once the gate
    // trips), so cancellation happens inside RunItem, never by
    // skipping items.
    Pool->parallelFor(
        NumItems,
        [&](std::size_t I) { RunItem(static_cast<unsigned>(I)); }, Workers);
  }

  A.Results.reserve(Seeds.size());
  for (std::size_t I = 0; I != Seeds.size(); ++I)
    A.Results.push_back(*UniqueResults[QueryOf[I]]);
  return A;
}
