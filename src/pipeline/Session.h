//===-- Session.h - Memoized analysis pipeline sessions ---------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AnalysisSession: the long-lived facade over the whole analysis
/// stage graph
///
///   source -> AST -> IR/SSA -> call graph + points-to -> mod-ref
///          -> SDG -> SliceEngine -> slices
///
/// The paper's workflow is session-shaped — a developer holds one
/// program open and issues many slice queries, expansions, and
/// re-queries against the same underlying analyses — so every
/// artifact is computed lazily and memoized. Each stage holds exactly
/// one artifact, built for the current source and options:
///
///  - Requesting an artifact computes exactly its missing ancestors;
///    repeated requests return the identical object.
///  - Changing a stage's options drops that stage and its downstream
///    cone only (a CI -> CS switch keeps the program and the points-to
///    result, same pointers). Nothing else is retained: switching back
///    rebuilds the dropped stages. A caller that needs two option
///    variants alive at once holds one session per variant, as the
///    eval drivers do.
///  - Replacing the source (or the budget) drops the affected cone.
///    Every drop is counted per stage (CacheInvalidated), and
///    per-stage epoch counters record every input change, so clients
///    can assert exactly which artifacts a change discarded.
///
/// Governance is threaded through unchanged: the session's
/// AnalysisBudget is installed into every stage's options at compute
/// time, so a budgeted session degrades byte-for-byte like the
/// one-shot pipeline (see tests/session_test.cpp). A cached artifact
/// embeds the budget outcome it was computed under, so changing the
/// budget drops every analysis artifact.
///
/// Threading: a session is confined to one thread. The SliceEngine it
/// hands out is reentrant and fans batches across the session's pool
/// over the immutable SDG, so other threads may query it while the
/// session is left alone (the daemon's readers do); that reuse is
/// exercised under TSan by the `pipeline` ctest label.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_PIPELINE_SESSION_H
#define THINSLICER_PIPELINE_SESSION_H

#include "lang/Incremental.h"
#include "lang/Lower.h"
#include "modref/ModRef.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"
#include "slicer/Engine.h"
#include "slicer/Slicer.h"
#include "slicer/Tabulation.h"
#include "support/Budget.h"
#include "support/Diagnostics.h"
#include "support/Serialize.h"
#include "support/Status.h"
#include "support/ThreadPool.h"

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace tsl {

/// The memoized stages, in dependence order. Compile covers
/// parse + lower + SSA (one artifact: the Program).
enum class SessionStage : unsigned {
  Compile = 0,
  PTA,
  ModRef,
  SDGBuild,
  Engine,
  Slice,
};

constexpr unsigned NumSessionStages = 6;

/// Short printable stage name ("compile", "pta", ...).
const char *sessionStageName(SessionStage S);

/// A memoized, invalidation-aware analysis pipeline over one source
/// program. See the file comment for the caching model.
class AnalysisSession {
public:
  AnalysisSession();
  explicit AnalysisSession(std::string Source);
  ~AnalysisSession();

  AnalysisSession(const AnalysisSession &) = delete;
  AnalysisSession &operator=(const AnalysisSession &) = delete;

  //===------------------------------------------------------------------===//
  // Inputs. Each setter invalidates exactly its downstream cone.
  //===------------------------------------------------------------------===//

  /// Replaces the program source. By default every cached artifact is
  /// destroyed and every stage epoch bumps. With setIncremental(true)
  /// the session first attempts the function-granular fast path: diff
  /// the sources, relower only changed bodies, retract-and-replay the
  /// points-to facts, and re-scan mod-ref for affected methods —
  /// falling back to the cold path (per stage or entirely) whenever an
  /// update declines. The SDG is never patched: the next sdg() builds
  /// it from the updated points-to, reusing the method shapes of every
  /// body the edit left alone (sdgShapes()). Either way the resulting
  /// artifacts answer every query as a cold rebuild of the new source
  /// would (see DESIGN.md section 13).
  void setSource(std::string Source);

  /// Enables/disables the incremental setSource() fast path. Off by
  /// default. Ignored (transparent cold fallback) for budgeted
  /// sessions — cached artifacts embed budget outcomes, which
  /// retraction cannot reproduce.
  void setIncremental(bool On) { IncrementalEnabled = On; }
  bool incremental() const { return IncrementalEnabled; }

  /// Telemetry of the incremental fast path, printed by statsString().
  struct IncrementalStats {
    uint64_t Attempts = 0; ///< Incremental setSource() attempts.
    uint64_t Applied = 0;  ///< Attempts where the compile fast path applied.
    uint64_t FunctionsReused = 0;      ///< Bodies reused verbatim.
    uint64_t FunctionsRecompiled = 0;  ///< Bodies relowered.
    uint64_t PtaUpdates = 0;    ///< Points-to artifacts updated in place.
    uint64_t ModRefUpdates = 0; ///< Mod-ref artifacts updated in place.
    uint64_t ColdFallbacks = 0; ///< Attempts that fell back entirely.
    uint64_t StageFallbacks = 0; ///< Stage updates that declined mid-chain.
    std::string LastFallbackReason;
  };
  const IncrementalStats &incrementalStats() const { return IncStats; }

  /// Changes the pointer-analysis options: drops PTA and everything
  /// below it (mod-ref, SDG, engine, slices); the program survives.
  /// The Budget field of \p O is ignored — the session's own budget is
  /// threaded in at compute time. A no-op when the options are
  /// unchanged.
  void setPTAOptions(const PTAOptions &O);

  /// Changes the SDG options: drops the SDG, engine, and slices; the
  /// program, points-to and mod-ref survive. The Budget field of \p O
  /// is ignored, as in setPTAOptions.
  void setSDGOptions(const SDGOptions &O);

  /// Installs (or clears) the resource budget threaded into every
  /// analysis stage. Cached analysis artifacts embed the budget
  /// outcome they were computed under, so this drops the PTA cone
  /// (the compiled program survives: compilation is ungoverned).
  void setBudget(const AnalysisBudget *B);

  /// Sets the slice-batch concurrency: the total number of threads
  /// (including the calling one) the shared pool offers to the
  /// SliceEngine's batch fan-out. Points-to, mod-ref and the SDG build
  /// sequentially. 0 means hardware concurrency; 1 runs batches inline
  /// with no pool at all. Unlike the option setters this drops
  /// NOTHING — batch answers are byte-identical for every thread
  /// count, so a cached artifact stays valid across setThreads calls
  /// (asserted by the determinism tests). Pools already handed to
  /// cached engines stay alive until the session dies.
  void setThreads(unsigned N) { Threads = N; }
  unsigned threads() const { return Threads; }

  /// Resolved thread count (hardware concurrency substituted for 0).
  unsigned threadsResolved() const;

  /// The shared pool sized to threadsResolved(), created lazily; null
  /// when the session is effectively single-threaded.
  ThreadPool *pool();

  const SDGOptions &sdgOptions() const { return CurSdg; }
  const AnalysisBudget *budget() const { return Budget; }

  //===------------------------------------------------------------------===//
  // Artifacts, computed on demand. All return pointers owned by the
  // session, valid until the owning cache entry is invalidated. Every
  // accessor returns null when the source does not compile (the
  // compile stage memoizes failure, too — see diagnostics()).
  //===------------------------------------------------------------------===//

  Program *program();
  PointsToResult *pointsTo();
  ModRefResult *modRef();
  SDG *sdg();
  SliceEngine *engine();

  //===------------------------------------------------------------------===//
  // Failure isolation. A stage that *crashes* (an exception escaping
  // it — injected Throw fault or internal error) is caught here at the
  // boundary: the computation is retried up to a small bound (with
  // backoff; a transient fault disarms on firing, so the retry runs
  // clean), and if every attempt fails the session records the Status,
  // caches NOTHING, and stays fully queryable — the next request for
  // the artifact retries from scratch. A stage that soundly *degrades*
  // because a fault tripped its gate produces a valid artifact, which
  // is served now but marked tainted: the next request evicts it (and
  // its downstream cone, which holds references into it) and
  // recomputes, so the session converges back to the fault-free
  // answer once the fault clears. Every governed compute additionally
  // runs under a Watchdog enforcing the budget's wall-clock deadline
  // preemptively (see support/Watchdog.h).
  //===------------------------------------------------------------------===//

  /// Status of the most recent artifact request: Ok after success
  /// (including sound degradation — that is a usable result), the
  /// failure Status after a null return.
  const Status &lastError() const { return LastErr; }

  /// Failure-isolation telemetry: stage computations that exhausted
  /// their retries, and individual retry attempts performed.
  uint64_t stageFailures() const { return StageFailures; }
  uint64_t stageRetries() const { return StageRetries; }

  /// Diagnostics of the most recent compile (empty before the first
  /// program() call).
  const DiagnosticEngine &diagnostics() const { return *Diag; }

  /// The session-owned cross-batch summary cache for context-
  /// sensitive slicing (keyed internally by graph and mode; cleared
  /// whenever the session drops an SDG).
  SummaryCache &summaries() { return Summaries; }

  /// The method shapes the session's SDG builds share (sdg/SDG.h):
  /// kept across edits and option switches, forgotten per relowered
  /// body and whenever the program is replaced. Its counters tell how
  /// many shapes the builds derived and reused.
  const SDGShapeCache &sdgShapes() const { return SdgShapes; }

  //===------------------------------------------------------------------===//
  // Memoized whole-query slicing
  //===------------------------------------------------------------------===//

  /// Answers \p Q with SliceEngine::run, memoized per query,
  /// under the session's budget, threads and summary cache; \p Q's
  /// context sensitivity must match the SDG options. Null (see
  /// lastError()) when a stage failed or \p Q is ill-formed.
  const SliceAnswer *slice(const SliceQuery &Q);

  /// slice() of one backward seed under the current SDG options.
  const SliceResult *sliceBackwardCached(const Instr *Seed, SliceMode Mode);

  //===------------------------------------------------------------------===//
  // Persistent snapshots (DESIGN.md section 14). A snapshot is the
  // pointer-free serialization of the program and the SDG, keyed by
  // (source digest, option digests, format version). A session
  // warm-started by loadSnapshot() answers every query byte-identically
  // to a cold rebuild, and composes with everything the session
  // supports: points-to and mod-ref are not in the file, so the first
  // query that reads them (an expansion, a CS graph build, an edit)
  // computes them cold from the decoded program.
  //===------------------------------------------------------------------===//

  /// Snapshot/cache-dir telemetry, rendered as the `snapshot:` line
  /// of statsString().
  struct SnapshotStats {
    uint64_t Saves = 0;     ///< Snapshots written.
    uint64_t Loads = 0;     ///< Successful warm starts.
    uint64_t Fallbacks = 0; ///< Load attempts declined to cold rebuild.
    uint64_t CacheHits = 0;   ///< Cache-dir lookups that found a file.
    uint64_t CacheMisses = 0; ///< Cache-dir lookups that did not.
    uint64_t CacheEvictions = 0; ///< Cache-dir files evicted by LRU.
    std::string LastFallbackReason;
  };
  const SnapshotStats &snapshotStats() const { return SnapStats; }

  /// Serializes the program and the SDG to \p Path, building whichever
  /// is missing first (sdg() computes the upstream stages it needs).
  /// Declines — returning the reason, writing nothing — for budgeted
  /// sessions and for a degraded points-to, mod-ref or SDG the session
  /// holds: their facts embed a budget outcome a warm start could not
  /// reproduce.
  Status saveSnapshot(const std::string &Path);

  /// Warm-starts the session from \p Path: verifies magic, format
  /// version, per-section CRCs, and that the snapshot's source and
  /// option digests match the session's current inputs, then decodes
  /// the program and the SDG into temporaries and installs them, and
  /// nothing else, only on full success. Every slice runs on the SDG
  /// alone; pointsTo() and modRef() compute cold from the decoded
  /// program when first asked, as after a source change.
  /// ANY failure — unreadable file, version mismatch, stale digest,
  /// corruption, an injected "snapshot.load" fault — leaves the
  /// session untouched and still fully functional (the next accessor
  /// computes cold), records the fallback reason in snapshotStats(),
  /// and returns a non-ok Status. Never throws.
  Status loadSnapshot(const std::string &Path);

  /// Enables content-addressed snapshot caching under \p Dir (empty
  /// disables). The directory is created on first save.
  void setCacheDir(std::string Dir) { CacheDir = std::move(Dir); }

  /// Cache-dir lookup for the current (source, options, version) key:
  /// true when a cached snapshot existed AND loaded. A hit refreshes
  /// the file's modification time, so eviction is least recently used.
  /// A miss, or a hit that fails to load, returns false with the
  /// session untouched. No-op (false) when no cache dir is set.
  bool tryLoadFromCacheDir();

  /// Saves the current pipeline into the cache dir under its content
  /// key, then evicts the least recently saved or loaded entries
  /// beyond the retention cap.
  /// No-op when no cache dir is set.
  Status saveToCacheDir();

  /// Cache-dir retention cap (entries kept after a save).
  static constexpr std::size_t MaxCacheDirEntries = 32;

  //===------------------------------------------------------------------===//
  // Epochs, governance, telemetry
  //===------------------------------------------------------------------===//

  /// Invalidation epoch of \p S: bumped every time an input change
  /// invalidates the stage's current artifact.
  uint64_t epoch(SessionStage S) const {
    return Epochs[static_cast<unsigned>(S)];
  }

  /// Per-stage budget reports of the artifacts computed for the
  /// *current* options, in pipeline order (pta, modref if computed,
  /// sdg) — the same sequence the one-shot pipeline assembles by hand.
  PipelineStatus status();

  /// Per-stage memoization telemetry as StageReports: CacheHits /
  /// CacheMisses / CacheInvalidated counts plus total Seconds spent
  /// computing misses. One report per SessionStage, in stage order.
  std::vector<StageReport> stageReports() const;

  /// Human-readable rendering of stageReports() plus the parallelism,
  /// incremental, and snapshot telemetry lines — the block `thinslice
  /// --stats` and the interactive `stats` command print.
  std::string statsString() const;

private:
  struct StageCounters {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Invalidated = 0;
    double Seconds = 0;
  };

  StageCounters &counters(SessionStage S) {
    return Counters[static_cast<unsigned>(S)];
  }
  void bumpFrom(SessionStage S);

  /// Drops the artifact of stage \p S and of every stage below it,
  /// bottom-up (downstream artifacts hold references into upstream
  /// ones), counting each dropped artifact as invalidated. Dropping
  /// PTA also discards the retired bodies; dropping Compile forgets
  /// the compile attempt and the SDG method shapes. The one
  /// invalidation path: input changes, taint healing, incremental
  /// fallbacks and snapshot loads all go through it.
  void drop(SessionStage S);

  /// The incremental setSource() fast path. Returns true when the
  /// edit was absorbed (program patched in place, stage updates
  /// applied or individually dropped); false means the caller must
  /// run the cold path — including when a mid-apply failure left the
  /// program mutated, which the cold path's drop then discards.
  bool trySetSourceIncremental(const std::string &NewSource);

  /// Drops every fault-tainted artifact (with its downstream cone)
  /// so the request about to run recomputes them clean. Runs ONLY at
  /// the outermost public accessor of a request (see RequestScope):
  /// a nested stage call (sdg -> modRef -> pointsTo) must never free
  /// an artifact an outer frame of the same request still references.
  void healTainted();
  struct RequestScope;
  unsigned RequestDepth = 0;

  /// Content-addressed cache file name: source digest + a hash of the
  /// option digests and the snapshot format version.
  std::string snapshotCacheKey() const;

  // --- inputs
  std::string Source;
  uint64_t SourceDigest = 0;
  PTAOptions CurPta;
  SDGOptions CurSdg;
  const AnalysisBudget *Budget = nullptr;
  unsigned Threads = 1;

  // --- shared worker pools. Declared before the artifacts:
  // cached SliceEngines hold a pointer to the pool they were built
  // with, so pools must be destroyed after them. setThreads never
  // destroys a pool mid-session — a resize just makes the next pool()
  // call append a fresh one, and retired pools idle until teardown.
  std::vector<std::unique_ptr<ThreadPool>> Pools;

  // --- artifacts, one per stage. Declaration order is lifetime
  // order: every downstream artifact holds references into its
  // upstream (ModRef into PTA, SDG into the Program, SliceEngine into
  // its SDG), so the members are destroyed bottom-up (reverse
  // declaration order) and drop() clears them in the same order.
  std::unique_ptr<DiagnosticEngine> Diag;
  /// Bodies detached by incremental recompiles. Retained analysis
  /// artifacts still hold the old Instr*/Local* addresses (e.g. the
  /// PTA object table's allocation sites), so the storage must outlive
  /// them: declared above the artifacts, cleared only when PTA drops.
  /// Never dereferenced after retraction — only compared as keys.
  std::vector<Method::DetachedBody> RetiredBodyStore;
  std::unique_ptr<Program> Prog;
  bool CompileAttempted = false;
  std::unique_ptr<PointsToResult> Pta;
  std::unique_ptr<ModRefResult> MR;
  /// Per-method SDG facts of the current program, beside it rather
  /// than in the SDG stage: they outlive every graph built from them.
  /// Never keyed by the Program address, which a later program can
  /// reuse; cleared explicitly wherever the program is replaced.
  SDGShapeCache SdgShapes;
  std::unique_ptr<SDG> Graph;
  std::unique_ptr<SliceEngine> Engine;
  /// Answers of the current SDG. The seed pointers are stable while
  /// the program lives, which outlives every answer.
  std::map<SliceQuery::Key, SliceAnswer> SliceCache;
  SummaryCache Summaries;

  // --- failure isolation. A tainted artifact was computed while an
  // injected fault fired: still sound (served for the request that
  // computed it) but dropped and recomputed on the next request, so a
  // cleared fault heals the session.
  bool PtaTainted = false;
  bool ModRefTainted = false;
  bool SdgTainted = false;
  std::set<SliceQuery::Key> TaintedSlices;
  Status LastErr;

  // --- telemetry
  StageCounters Counters[NumSessionStages];
  uint64_t Epochs[NumSessionStages] = {};
  uint64_t StageFailures = 0;
  uint64_t StageRetries = 0;
  bool IncrementalEnabled = false;
  IncrementalStats IncStats;
  std::string CacheDir;
  SnapshotStats SnapStats;
  /// Scan memo for the incremental differ: the previous source's token
  /// stream, so each edit lexes only its changed lines.
  ScanCache IncScanCache;
};

} // namespace tsl

#endif // THINSLICER_PIPELINE_SESSION_H
