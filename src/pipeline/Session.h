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
/// artifact is computed lazily, memoized, and keyed by
/// (source digest, upstream artifact, per-stage options):
///
///  - Requesting an artifact computes exactly its missing ancestors;
///    repeated requests return the identical object.
///  - Changing a stage's options re-keys that stage and its downstream
///    cone only (a CI -> CS switch reuses the IR and the points-to
///    result), and the previous variant stays warm: switching back is
///    a cache hit, which is what lets one session serve an eval
///    workload's thin/traditional/NoObjSens/CS-ablation tables from
///    one compile + one PTA per option set.
///  - Replacing the source (or the compile options, or the budget)
///    destroys the affected cone; per-stage epoch counters record
///    every such invalidation, so clients can assert exactly which
///    artifacts a change discarded.
///
/// Governance is threaded through unchanged: the session's
/// AnalysisBudget is installed into every stage's options at compute
/// time, so a budgeted session degrades byte-for-byte like the
/// one-shot pipeline (see tests/session_test.cpp). Because a cached
/// artifact embeds the budget outcome it was computed under, changing
/// the budget is a destructive invalidation rather than a re-key.
///
/// Threading: a session is confined to one thread. The SliceEngine it
/// hands out fans batches across its own worker pool over the
/// immutable finalized SDG; that reuse is exercised under TSan by the
/// `pipeline` ctest label.
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
#include <tuple>
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
  explicit AnalysisSession(std::string Source, CompileOptions CO = {});
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
  /// it cold from the updated points-to. Either way the resulting
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

  /// Changes the compile options: same cone as setSource.
  void setCompileOptions(const CompileOptions &O);

  /// Changes the pointer-analysis options: re-keys PTA and everything
  /// below it (mod-ref, SDG, engine, slices). The Budget field of \p O
  /// is ignored — the session's own budget is threaded in at compute
  /// time. A no-op when the options are unchanged.
  void setPTAOptions(const PTAOptions &O);

  /// Changes the SDG options: re-keys the SDG, engine, and slices.
  /// The Budget field of \p O is ignored, as in setPTAOptions.
  void setSDGOptions(const SDGOptions &O);

  /// Installs (or clears) the resource budget threaded into every
  /// analysis stage. Cached analysis artifacts embed the budget
  /// outcome they were computed under, so this destroys the PTA cone
  /// (the compiled program survives: compilation is ungoverned).
  void setBudget(const AnalysisBudget *B);

  /// Sets the slice-batch concurrency: the total number of threads
  /// (including the calling one) the shared pool offers to the
  /// SliceEngine's batch fan-out. Points-to, mod-ref and the SDG build
  /// sequentially. 0 means hardware concurrency; 1 runs batches inline
  /// with no pool at all. Unlike the option setters this re-keys
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

  const PTAOptions &ptaOptions() const { return CurPta; }
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

  /// Status-returning boundary accessors: the artifact, or the Status
  /// explaining the null. Same memoization as the raw accessors.
  Expected<Program *> programChecked();
  Expected<PointsToResult *> pointsToChecked();
  Expected<ModRefResult *> modRefChecked();
  Expected<SDG *> sdgChecked();
  Expected<SliceEngine *> engineChecked();
  Expected<const SliceResult *> sliceBackwardChecked(const Instr *Seed,
                                                     SliceMode Mode);

  /// Failure-isolation telemetry: stage computations that exhausted
  /// their retries, and individual retry attempts performed.
  uint64_t stageFailures() const { return StageFailures; }
  uint64_t stageRetries() const { return StageRetries; }

  /// Diagnostics of the most recent compile (empty before the first
  /// program() call).
  const DiagnosticEngine &diagnostics() const { return *Diag; }

  /// The session-owned cross-batch summary cache for context-
  /// sensitive slicing (keyed internally by graph epoch and mode).
  SummaryCache &summaries() { return Summaries; }

  //===------------------------------------------------------------------===//
  // Memoized whole-query slicing
  //===------------------------------------------------------------------===//

  /// Backward slice from \p Seed under the current SDG options
  /// (context-sensitive tabulation when sdgOptions().ContextSensitive,
  /// the batch engine otherwise), memoized per (graph, seed, mode).
  /// Null when the source does not compile or \p Seed is null.
  const SliceResult *sliceBackwardCached(const Instr *Seed, SliceMode Mode);

  //===------------------------------------------------------------------===//
  // Persistent snapshots (DESIGN.md section 14). A snapshot is the
  // pointer-free serialization of the whole warm pipeline — program,
  // points-to, mod-ref, SDG — keyed by (source digest, option
  // digests, format version). loadSnapshot() is byte-identical to a
  // cold rebuild for every query, and composes with everything the
  // session supports: an incremental edit after a warm start answers
  // exactly like cold-then-edit (stages whose in-place update
  // declines rebuild cold, which is always sound).
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

  /// Serializes the current pipeline to \p Path. Computes any missing
  /// artifact first (program, points-to, mod-ref, SDG). Declines —
  /// returning the reason, writing nothing — for budgeted sessions
  /// and degraded artifacts: their facts embed a budget outcome a
  /// warm start could not reproduce.
  Status saveSnapshot(const std::string &Path);

  /// Warm-starts the session from \p Path: verifies magic, format
  /// version, per-section CRCs, and that the snapshot's source and
  /// option digests match the session's current inputs, then decodes
  /// the program and the SDG into temporaries and installs them only
  /// on full success. The points-to and mod-ref payloads — already
  /// CRC-verified — are kept undecoded and materialize on the first
  /// query that needs them, so the common warm-start query (a slice,
  /// which runs on the SDG alone) skips their decode cost entirely.
  /// ANY failure — unreadable file, version mismatch, stale digest,
  /// corruption, an injected "snapshot.load" fault — leaves the
  /// session untouched and still fully functional (the next accessor
  /// computes cold), records the fallback reason in snapshotStats(),
  /// and returns a non-ok Status; a CRC-valid but structurally
  /// malformed deferred payload does the same at first access.
  /// Never throws.
  Status loadSnapshot(const std::string &Path);

  /// Enables content-addressed snapshot caching under \p Dir (empty
  /// disables). The directory is created on first save.
  void setCacheDir(std::string Dir) { CacheDir = std::move(Dir); }
  const std::string &cacheDir() const { return CacheDir; }

  /// Cache-dir lookup for the current (source, options, version) key:
  /// true when a cached snapshot existed AND loaded. A miss, or a hit
  /// that fails to load, returns false with the session untouched.
  /// No-op (false) when no cache dir is set.
  bool tryLoadFromCacheDir();

  /// Saves the current pipeline into the cache dir under its content
  /// key, then evicts the oldest entries beyond the retention cap.
  /// No-op when no cache dir is set.
  Status saveToCacheDir();

  /// Cache-dir retention cap (entries kept after a save).
  static constexpr std::size_t MaxCacheDirEntries = 32;

  //===------------------------------------------------------------------===//
  // Epochs, governance, telemetry
  //===------------------------------------------------------------------===//

  /// Invalidation epoch of \p S: bumped every time an input change
  /// invalidates (destroys or re-keys) the stage's current artifact.
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

  /// Memo key of a whole slice query. The SDG key pins the upstream
  /// cone (source digest, PTA options, SDG options); the seed pointer
  /// is stable while the program artifact lives, which the key's SDG
  /// entry guarantees.
  using SliceKey = std::tuple<std::string, const Instr *, SliceMode>;

  StageCounters &counters(SessionStage S) {
    return Counters[static_cast<unsigned>(S)];
  }
  void bumpFrom(SessionStage S);
  void purgeAnalyses(); ///< Destroys PTA..Slice entries (not the program).
  void purgeAll();      ///< Destroys everything including the program.

  /// The incremental setSource() fast path. Returns true when the
  /// edit was absorbed (program patched in place, artifact caches
  /// re-keyed, stage updates applied or individually dropped); false
  /// means the caller must run the cold path — including when a
  /// mid-apply failure left the program mutated, which the cold
  /// path's purge then discards.
  bool trySetSourceIncremental(const std::string &NewSource);

  /// Tainted-artifact eviction (retry-on-next-request). Downstream
  /// artifacts hold references into upstream ones, so eviction always
  /// cascades down the cone, bottom-up.
  void evictPtaCone(const std::string &Key);    ///< PTA + everything below.
  void evictModRefEntry(const std::string &Key);///< ModRef + SDG cone below.
  void evictSdgCone(const std::string &Key);    ///< SDG/engine/slices.

  /// Evicts every fault-tainted artifact (with its downstream cone)
  /// so the request about to run recomputes them clean. Runs ONLY at
  /// the outermost public accessor of a request (see RequestScope):
  /// a nested stage call (sdg -> modRef -> pointsTo) must never free
  /// an artifact an outer frame of the same request still references.
  void healTainted();
  struct RequestScope;
  unsigned RequestDepth = 0;

  std::string ptaKey() const;
  std::string sdgKey() const;

  /// Content-addressed cache file name: source digest + a hash of the
  /// option digests and the snapshot format version.
  std::string snapshotCacheKey() const;

  // --- inputs
  std::string Source;
  uint64_t SourceDigest = 0;
  CompileOptions CurCompile;
  PTAOptions CurPta;
  SDGOptions CurSdg;
  const AnalysisBudget *Budget = nullptr;
  unsigned Threads = 1;

  // --- shared worker pools. Declared before the artifact stores:
  // cached SliceEngines hold a pointer to the pool they were built
  // with, so pools must be destroyed after them. setThreads never
  // destroys a pool mid-session — a resize just makes the next pool()
  // call append a fresh one, and retired pools idle until teardown.
  std::vector<std::unique_ptr<ThreadPool>> Pools;

  // --- artifact stores. Declaration order is lifetime order: every
  // downstream artifact holds references into its upstream (ModRef
  // into PTA, SDG into the Program, SliceEngine into its SDG), so the
  // members are destroyed bottom-up (reverse declaration order) and
  // the purge helpers clear them in the same bottom-up order.
  std::unique_ptr<DiagnosticEngine> Diag;
  /// Bodies detached by incremental recompiles. Retained analysis
  /// artifacts still hold the old Instr*/Local* addresses (e.g. the
  /// PTA object table's allocation sites), so the storage must outlive
  /// them: declared above the artifact stores, cleared only when the
  /// analyses purge. Never dereferenced after retraction — only
  /// compared as keys.
  std::vector<Method::DetachedBody> RetiredBodyStore;
  std::unique_ptr<Program> Prog;
  bool CompileAttempted = false;
  std::map<std::string, std::unique_ptr<PointsToResult>> PtaCache;
  std::map<std::string, std::unique_ptr<ModRefResult>> ModRefCache;
  std::map<std::string, std::unique_ptr<SDG>> SdgCache;
  std::map<std::string, std::unique_ptr<SliceEngine>> EngineCache;
  std::map<SliceKey, SliceResult> SliceCache;
  SummaryCache Summaries;

  // --- deferred snapshot layers. A warm start installs the decoded
  // program and SDG eagerly (the first slice query needs them) but
  // stashes the CRC-verified points-to and mod-ref section payloads
  // here undecoded; pointsTo()/modRef() decode on first demand and
  // fall back to the cold computation if a payload is structurally
  // malformed. PendingLayerKey pins the bytes to the ptaKey() at
  // load time, so any source or option change strands them and the
  // purge helpers discard them.
  std::vector<uint8_t> PendingPtaBytes;
  std::vector<uint8_t> PendingMrBytes;
  std::string PendingLayerKey;

  // --- failure isolation. Tainted keys name cached artifacts that
  // were computed while an injected fault fired: still sound (served
  // for the request that computed them) but evicted and recomputed on
  // the next request, so a cleared fault heals the session.
  std::set<std::string> TaintedPta;
  std::set<std::string> TaintedModRef;
  std::set<std::string> TaintedSdg;
  std::set<SliceKey> TaintedSlices;
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
