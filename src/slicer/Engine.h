//===-- Engine.h - Batched slice-query engine -------------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one slice-query executor over one SDG. SliceEngine::run(query)
/// dispatches every shape: one backward seed to sliceBackward or
/// TabulationSlicer, several to a batch (N seeds in, N results out in
/// seed order), forward to sliceForward, a chop to forward ∩ backward,
/// expand / alias depth to ThinExpansion. A batch deduplicates seeds
/// that expand to the same SDG node set and fans work out across a
/// worker pool.
///
/// Context-insensitive batches run as SCC-condensed bit-parallel
/// label propagation: the mode-masked subgraph is condensed once
/// (cached per edge mask: the SDG is immutable, so repeated batches
/// reuse it and it never goes stale), queries are packed 64 per
/// machine word, and one linear sweep over the components in
/// topological order answers a whole chunk —
/// all members of a strongly connected component provably belong to
/// exactly the same slices. Workers fan out across chunks.
///
/// Context-sensitive batches run the tabulation slicer per unique
/// query (workers fan out across queries), computing the summary set
/// once per batch and optionally reusing it across batches through a
/// SummaryCache.
///
/// Threading model: the engine is reentrant. The SDG is immutable and
/// read concurrently without locking; run() keeps its statistics in
/// the answer it returns, and the only engine state it changes is the
/// mutex-guarded condensation cache, so any number of threads may call
/// run() on one engine at once (the daemon does, one engine per warm
/// graph). Within one call, everything that touches process globals
/// (TabulationSlicer construction, SharedBudgetGate construction —
/// both reach the FaultInjector) and the condensation cache happens
/// on the calling thread before workers start. Workers share one
/// SharedBudgetGate, so an AnalysisBudget passed to a batch governs
/// the batch's *total* slicing work; per-query results are otherwise
/// identical to the single-seed entry points.
///
/// The engine never creates threads. Work fans out on the ThreadPool
/// handed in at construction (see support/ThreadPool.h; the session
/// threads its pool through); without one, or for a single work item,
/// a batch runs inline on the calling thread.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SLICER_ENGINE_H
#define THINSLICER_SLICER_ENGINE_H

#include "slicer/Slicer.h"
#include "slicer/Tabulation.h"

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

namespace tsl {

class PointsToResult;
class ThreadPool;

/// Configuration of one batched slice run.
struct BatchOptions {
  SliceMode Mode = SliceMode::Thin;
  /// Use the context-sensitive tabulation slicer (the SDG must have
  /// been built with SDGOptions::ContextSensitive).
  bool ContextSensitive = false;
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  /// Clamped to the number of work items and to the engine's pool
  /// (no pool: 1); 1 runs inline.
  unsigned Jobs = 0;
  /// Optional batch-wide budget (MaxSlicePops caps the *total* pops
  /// across all queries of the batch; see SharedBudgetGate).
  const AnalysisBudget *Budget = nullptr;
  /// Optional cross-batch summary cache for context-sensitive mode.
  SummaryCache *Summaries = nullptr;
};

/// One slice query: BatchOptions (mode, context sensitivity, jobs,
/// budget, summaries) plus the shape. Without ChopSink / Forward /
/// AliasDepth / Expand it is backward, one result per seed; the other
/// shapes take exactly one seed.
struct SliceQuery : BatchOptions {
  std::vector<const Instr *> Seeds;
  const Instr *ChopSink = nullptr; ///< Chop from Seeds[0] to this sink.
  bool Forward = false;
  unsigned AliasDepth = 0; ///< Levels of aliasing explanation (§4.1).
  bool Expand = false;     ///< Expand to the fixpoint (= traditional).

  /// A backward query: one result per seed.
  static SliceQuery backward(std::vector<const Instr *> Seeds, SliceMode Mode,
                             bool ContextSensitive = false) {
    SliceQuery Q;
    Q.Seeds = std::move(Seeds);
    Q.Mode = Mode;
    Q.ContextSensitive = ContextSensitive;
    return Q;
  }

  /// The report label of the answer ("thin slice", "chop", ...).
  std::string label() const;

  /// The first two shape fields that cannot be combined, named like
  /// the CLI flags ("chop", "forward", "context-sensitive", "expand",
  /// "alias-depth"), or nulls. The static form takes \p Chop for a
  /// sink not resolved yet.
  std::pair<const char *, const char *> conflict() const {
    return conflict(*this, ChopSink);
  }
  static std::pair<const char *, const char *> conflict(const SliceQuery &Shape,
                                                        bool Chop);

  /// Memo key: the fields that determine the answer.
  using Key = std::tuple<std::vector<const Instr *>, const Instr *, bool,
                         SliceMode, bool, unsigned, bool>;
  Key key() const {
    return {Seeds, ChopSink, Forward, Mode, ContextSensitive, AliasDepth,
            Expand};
  }
};

/// What one query did, for reporting and tests.
struct BatchStats {
  unsigned Queries = 0;       ///< Seeds requested.
  unsigned UniqueQueries = 0; ///< Distinct seed node sets actually run.
  unsigned Workers = 0;       ///< Worker threads used (1 = inline).
  bool SummariesReused = false; ///< CS summary set came from the cache.
  bool CondensationReused = false; ///< CI condensation came from the cache.
};

/// One query's answer: a SliceResult per seed (one for the other
/// shapes) and the statistics of the run that produced it.
struct SliceAnswer {
  std::vector<SliceResult> Results;
  BatchStats Stats;
};

/// The SCC condensation of one mode-masked SDG subgraph (defined in
/// Engine.cpp); cached per edge mask inside the engine.
struct BatchCondensation;

/// Slice-query engine over one SDG. Reentrant: see the file comment.
/// The condensation cache carries over between calls.
class SliceEngine {
public:
  /// \p Pool, when non-null, is the shared worker pool batches fan
  /// out on (not owned; must outlive the engine). With a null pool
  /// every batch runs inline.
  explicit SliceEngine(const SDG &G, ThreadPool *Pool = nullptr);
  ~SliceEngine();

  /// The pool batches fan out on, or null.
  const ThreadPool *pool() const { return Pool; }

  /// Answers \p Q (\p PTA is needed by the expansion shapes only). A
  /// single seed throws where its primitive throws; a batch never does.
  /// An ill-formed query throws std::invalid_argument.
  SliceAnswer run(const SliceQuery &Q,
                  const PointsToResult *PTA = nullptr) const;

  /// Backward-slices every seed, returning results in seed order.
  /// Results are identical to calling sliceBackward() /
  /// TabulationSlicer::slice() per seed (modulo batch-wide budget
  /// accounting, see BatchOptions::Budget).
  std::vector<SliceResult>
  sliceBackwardBatch(const std::vector<const Instr *> &Seeds,
                     const BatchOptions &Opts = {}) const;

private:
  /// The batch behind run() and sliceBackwardBatch().
  SliceAnswer batch(const std::vector<const Instr *> &Seeds,
                    const BatchOptions &Opts) const;

  /// Condensation for \p Mask, building and caching it on a miss;
  /// \p Reused reports a hit.
  std::shared_ptr<const BatchCondensation>
  condensationFor(EdgeKindMask Mask, bool &Reused) const;

  const SDG &G;
  ThreadPool *Pool = nullptr;
  mutable std::mutex CondMu;
  mutable std::map<EdgeKindMask, std::shared_ptr<const BatchCondensation>>
      CondCache;
};

} // namespace tsl

#endif // THINSLICER_SLICER_ENGINE_H
