//===-- Registry.h - Warm AnalysisSession registry --------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's registry of warm AnalysisSessions, keyed by workload
/// digest (source text + session flavor). Two clients loading the same
/// program share one warm session — the whole point of the serving
/// shape: the expensive analysis is built once and amortized across
/// every query that arrives while it is warm (SymPas makes the same
/// amortization argument for batch slicing).
///
/// Concurrency model: an AnalysisSession is single-threaded by
/// contract, so each registry entry carries a reader/writer lock plus
/// a set of *warm pointers* (Program, SliceEngine) captured after
/// warm-up and after every edit.
///
///  - Mutating requests (load, edit, stats — anything that touches
///    session accessors, which memoize) hold the entry's lock
///    exclusively.
///  - Slice requests hold it shared and never call into the session:
///    they read the warm pointers and run the session's own engine,
///    which is reentrant over an immutable SDG (see slicer/Engine.h),
///    so its condensation cache serves every reader until the next
///    edit drops the engine. Context-sensitive queries go through the
///    session's SummaryCache, which is itself thread-safe.
///
/// This is what lets N clients slice one warm session in parallel
/// while an edit waits for exclusivity — and byte-identical answers
/// fall out, because the very same query executor runs over the very
/// same artifacts as an in-process session.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SERVICE_REGISTRY_H
#define THINSLICER_SERVICE_REGISTRY_H

#include "pipeline/Session.h"
#include "support/Status.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

namespace tsl {

/// One warm session plus its concurrency control and warm pointers.
struct WarmSession {
  /// Slices hold this shared; load/edit/stats hold it exclusive.
  std::shared_mutex Mu;

  /// The session. Only touched under an exclusive lock.
  std::unique_ptr<AnalysisSession> S;

  std::string Id;          ///< Workload digest, the wire session id.
  uint32_t LineOffset = 0; ///< Runtime-prefix lines for rendering.
  bool ContextSensitive = false;

  /// Warm pointers, captured under the exclusive lock that built (or
  /// edited) the session; readers use ONLY these. Null Prog means the
  /// source does not compile (CompileErrors carries the rendered
  /// diagnostics). Engine is the session's engine over its SDG.
  Program *Prog = nullptr;
  SliceEngine *Engine = nullptr;
  std::string CompileErrors;
  /// Non-empty when the program compiled but a downstream stage
  /// failed (crashed and exhausted its retries): the lastError() text
  /// slice requests report as Internal.
  std::string StageError;

  /// LRU tick, bumped on every request that resolves the entry.
  std::atomic<uint64_t> LastUsed{0};
};

/// Registry of warm sessions with LRU retention. Thread-safe; the map
/// lock is never held across a warm-up (entries are inserted first and
/// warmed under their own exclusive lock, so concurrent requests for
/// the same workload block on the entry, not the registry).
class SessionRegistry {
public:
  struct Options {
    std::size_t MaxSessions = 8; ///< Warm sessions kept (LRU beyond).
    unsigned AnalysisThreads = 1; ///< Per-session analysis pool size.
    std::string CacheDir; ///< Snapshot cache for cross-restart warmth.
  };

  explicit SessionRegistry(Options O) : O(std::move(O)) {}

  /// Gets or creates the warm session for (\p Source, \p CS,
  /// \p LineOffset). A fresh session is warmed end-to-end — compile
  /// through the SDG — trying the snapshot cache dir (and then
  /// \p SnapshotPath, when non-empty) for a warm start first. A cached
  /// entry gets incremental edits turned on when \p Incremental asks
  /// for them; a load never turns them off. \p Note receives "cached", "cold", or "warm:<how>" plus any
  /// fallback reason. Always returns an entry; a compile failure is
  /// recorded in the entry, not an absence.
  std::shared_ptr<WarmSession> acquire(const std::string &Source, bool CS,
                                       uint32_t LineOffset, bool Incremental,
                                       const std::string &SnapshotPath,
                                       std::string &Note);

  /// The entry for \p Id, or null.
  std::shared_ptr<WarmSession> find(const std::string &Id);

  /// Re-captures an entry's warm pointers after a mutation. Caller
  /// must hold the entry's lock exclusively.
  static void refreshWarmPointers(WarmSession &E);

  /// The workload digest used as the wire session id.
  static std::string workloadDigest(const std::string &Source, bool CS,
                                    uint32_t LineOffset);

  std::size_t size() const;

private:
  void evictOverCap(const std::string &Keep);

  Options O;
  mutable std::mutex MapMu;
  std::map<std::string, std::shared_ptr<WarmSession>> Map;
  std::atomic<uint64_t> Tick{0};
};

} // namespace tsl

#endif // THINSLICER_SERVICE_REGISTRY_H
