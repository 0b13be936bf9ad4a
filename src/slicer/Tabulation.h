//===-- Tabulation.h - Context-sensitive slicing ----------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Context-sensitive backward slicing as a partially balanced
/// parentheses problem (paper Section 5.3, following Reps [20] and
/// Horwitz-Reps-Binkley [11]): summary edges are computed by a
/// tabulation-style worklist algorithm, then a slice is two phases of
/// reachability — phase 1 ascends into callers (never follows
/// param-out), phase 2 descends into callees (never follows param-in).
///
/// Use with an SDG built with SDGOptions::ContextSensitive; on a
/// context-insensitive graph the direct interprocedural heap edges
/// would bypass the parenthesis matching.
///
/// Summary computation is the dominant cost and depends only on
/// (graph, mode) — not on the seed — so a SummaryCache can share one
/// summary set across every query of a batch and across batches (an
/// SDG never changes once built).
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SLICER_TABULATION_H
#define THINSLICER_SLICER_TABULATION_H

#include "slicer/Slicer.h"

#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

namespace tsl {

/// Cross-query cache of tabulation summary sets, keyed by (graph
/// identity, slice mode). An SDG is immutable, so an entry stays valid
/// for the graph's lifetime; whoever frees a graph clears the cache,
/// so a later graph at the same address is never served stale
/// summaries (AnalysisSession does this whenever it drops an SDG).
/// Only complete (non-degraded) summary sets are cached — a partial
/// set is an artifact of one query's budget, not of the graph.
/// Thread-safe.
class SummaryCache {
public:
  /// One cached summary set: the summary adjacency (for each
  /// actual-out node, its summary sources) plus its statistics.
  struct Entry {
    std::unordered_map<unsigned, std::vector<unsigned>> SummaryIn;
    unsigned NumSummaries = 0;
    bool Partial = false;
    std::string PartialReason;
  };

  /// Returns the cached entry for (\p G, \p Mode) or null on a miss.
  std::shared_ptr<const Entry> lookup(const SDG &G, SliceMode Mode);

  /// Publishes \p E for (\p G, \p Mode). Partial entries are ignored.
  void store(const SDG &G, SliceMode Mode, std::shared_ptr<const Entry> E);

  uint64_t hits() const;
  uint64_t misses() const;
  std::size_t size() const;
  void clear();

private:
  using Key = std::pair<const SDG *, SliceMode>;

  mutable std::mutex Mu;
  std::map<Key, std::shared_ptr<const Entry>> Map;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

/// Context-sensitive slicer with cached summary edges for one SDG and
/// slice mode. Summary computation runs once in the constructor —
/// or is reused from a SummaryCache hit — mirroring the paper's
/// observation that the heap-parameter SDG (not the traversal) is the
/// scalability bottleneck. A constructed slicer is immutable; slice()
/// is const and safe to call from multiple threads concurrently (each
/// call charging a SharedBudgetGate instead of a local gate).
class TabulationSlicer {
public:
  /// Computes summary edges eagerly, consulting \p Cache first when
  /// given (and publishing the result to it). When \p Budget is
  /// exhausted mid-computation, the summary set stays partial — slices
  /// are then subsets of the full context-sensitive slice and are
  /// marked Degraded.
  TabulationSlicer(const SDG &G, SliceMode Mode,
                   const AnalysisBudget *Budget = nullptr,
                   SummaryCache *Cache = nullptr);

  /// Two-phase backward slice from \p Seed.
  SliceResult slice(const Instr *Seed) const {
    return slice(std::vector<const Instr *>{Seed});
  }

  /// With \p Shared set (the batch engine's workers), polls that
  /// batch-wide gate and constructs no local BudgetGate (see
  /// sliceBackwardNodes).
  SliceResult slice(const std::vector<const Instr *> &Seeds,
                    SharedBudgetGate *Shared = nullptr) const;

  /// Number of summary edges discovered (a cost statistic).
  unsigned numSummaryEdges() const { return S->NumSummaries; }

  /// True when summary computation ran to its fixed point.
  bool summariesComplete() const { return !S->Partial; }

  /// True when the summary set was served from the cache instead of
  /// recomputed.
  bool summariesFromCache() const { return FromCache; }

private:
  /// Intraprocedural (same-level) edge kinds for this mode.
  EdgeKindMask intraMask() const {
    EdgeKindMask Mask = edgeKindMask(SDGEdgeKind::Flow);
    if (Mode == SliceMode::Traditional)
      Mask |= edgeKindMask(SDGEdgeKind::BaseFlow) |
              edgeKindMask(SDGEdgeKind::Control);
    return Mask;
  }

  static std::shared_ptr<const SummaryCache::Entry>
  computeSummaries(const SDG &G, SliceMode Mode, const AnalysisBudget *B);

  const SDG &G;
  SliceMode Mode;
  const AnalysisBudget *B;
  std::shared_ptr<const SummaryCache::Entry> S;
  bool FromCache = false;
};

} // namespace tsl

#endif // THINSLICER_SLICER_TABULATION_H
