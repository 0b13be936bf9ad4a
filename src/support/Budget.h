//===-- Budget.h - Analysis budgets and sound degradation -------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Resource governance for the analysis pipeline. Every long-running
/// fixed-point loop (Andersen solver, ModRef closure, SDG
/// construction, slicing, expansion, interpretation) polls a
/// BudgetGate cooperatively; when the caller-supplied AnalysisBudget
/// is exhausted the stage stops early and falls back to a *sound*
/// over- or under-approximation tagged StageStatus::Degraded, instead
/// of hanging or exhausting memory. See DESIGN.md section 8 for the
/// per-stage fallbacks and their soundness arguments.
///
/// On top of the cooperative polling sits *preemptive* cancellation:
/// AnalysisBudget carries an atomic cancel flag a Watchdog (see
/// support/Watchdog.h) sets when the wall-clock deadline passes. Every
/// gate poll and every SharedBudgetGate spend observes the flag, so a
/// stage that miscounts its steps — or stalls without reading the
/// clock — is still stopped at its next poll and degrades through the
/// same sound-fallback path, tagged "watchdog".
///
/// A deterministic FaultInjector rides along: named fault points
/// (one per gated loop) can be armed via TSL_FAULT or `thinslice
/// --fault` to force each failure branch in tests, rather than
/// hoping a workload happens to exhaust a real budget. Faults come in
/// three kinds — Degrade (the gate trips, forcing the stage's sound
/// fallback), Throw (the gate raises FaultInjectedError, simulating a
/// stage crash the session must isolate and retry), and Stall (the
/// gate stops making progress, simulating a stuck stage the watchdog
/// must rescue) — can be transient (disarm after firing once, so a
/// retry succeeds), and can be armed wholesale from a seeded
/// probabilistic schedule ("rand:<seed>") replayed by the chaos suite.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SUPPORT_BUDGET_H
#define THINSLICER_SUPPORT_BUDGET_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace tsl {

/// Resource limits shared by every stage of one pipeline run. A zero
/// field means "unlimited"; a default-constructed budget (or a null
/// budget pointer, the default everywhere) imposes no limits at all,
/// keeping the unbudgeted path byte-identical to previous releases.
struct AnalysisBudget {
  /// Wall-clock deadline for the whole pipeline, from start().
  uint64_t BudgetMs = 0;

  uint64_t MaxPtaPropagations = 0; ///< Andersen propagation cap.
  uint64_t MaxModRefSteps = 0;     ///< ModRef closure worklist pops.
  uint64_t MaxSdgNodes = 0;        ///< SDG statement-node cap.
  /// Precise heap-wiring work cap (fault point sdg.heap). The CI SDG
  /// spends one step per object-index entry plus one per candidate
  /// store -> load edge; the CS SDG one per heap access and call pair.
  uint64_t MaxSdgEdges = 0;
  uint64_t MaxSlicePops = 0;       ///< Slice/tabulation worklist pops.
  uint64_t MaxExpansionRounds = 0; ///< Thin-expansion fixpoint rounds.

  AnalysisBudget() = default;
  /// Copies carry the limits and the current cancel state (the flag
  /// is atomic, which deletes the defaulted copy operations).
  AnalysisBudget(const AnalysisBudget &O) { *this = O; }
  AnalysisBudget &operator=(const AnalysisBudget &O);

  /// Starts the wall clock. Until this is called the deadline never
  /// expires; step caps apply regardless. Also clears a previous
  /// watchdog cancellation, so one budget can govern several runs.
  void start() {
    Start = std::chrono::steady_clock::now();
    Started = true;
    CancelFlag.store(false, std::memory_order_release);
  }

  bool deadlineExpired() const;
  double elapsedSeconds() const;

  /// Preemptive cancellation (the watchdog path): sets a flag every
  /// gate poll and every SharedBudgetGate spend observes. Safe from any
  /// thread; const because cancellation is an observer-side signal,
  /// not a change to the limits.
  void cancel() const { CancelFlag.store(true, std::memory_order_release); }
  bool cancelled() const {
    return CancelFlag.load(std::memory_order_relaxed);
  }

  std::chrono::steady_clock::time_point Start{};
  bool Started = false;
  mutable std::atomic<bool> CancelFlag{false};
};

/// Outcome of one pipeline stage.
enum class StageStatus {
  Complete, ///< Ran to its natural fixed point.
  Degraded, ///< Budget exhausted; result is a sound fallback.
};

/// Status report of one stage, the pipeline-level sibling of the
/// solver-level SolverStats counters.
struct StageReport {
  std::string Stage;    ///< "pta", "modref", "sdg", "slice", "interp".
  StageStatus Status = StageStatus::Complete;
  std::string Reason;   ///< Why it degraded: "deadline", "step-cap",
                        ///< "watchdog", "fault:<p>", "exception:<what>".
  std::string Fallback; ///< The sound fallback the stage switched to.
  uint64_t StepsUsed = 0; ///< Work units consumed (stage-specific).
  double Seconds = 0;     ///< Wall time spent in the stage.

  /// Session memoization telemetry (see pipeline/Session.h): how often
  /// this stage's artifact was served from the session cache, computed
  /// fresh, or purged by an invalidation. All zero outside a session;
  /// not rendered by str() (governed one-shot output is byte-stable) —
  /// AnalysisSession::statsString() formats them.
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t CacheInvalidated = 0;

  bool degraded() const { return Status == StageStatus::Degraded; }
  std::string str() const;
};

/// Per-stage reports of one pipeline run, in execution order.
struct PipelineStatus {
  std::vector<StageReport> Stages;

  void add(StageReport R) { Stages.push_back(std::move(R)); }
  bool complete() const;
  const StageReport *find(const std::string &Stage) const;
  std::string str() const;
};

/// Raised by a gate whose fault point is armed with FaultKind::Throw:
/// the deterministic stand-in for "this stage crashed" in the chaos
/// suite. It must never escape a stage boundary — the AnalysisSession
/// (and the SliceEngine's per-query isolation) convert it to a Status
/// / degraded result and keep the process alive.
class FaultInjectedError : public std::runtime_error {
public:
  explicit FaultInjectedError(const std::string &Point)
      : std::runtime_error("injected fault at " + Point), Pt(Point) {}
  const std::string &point() const { return Pt; }

private:
  std::string Pt;
};

/// How an armed fault manifests when it fires.
enum class FaultKind : unsigned char {
  Degrade, ///< Gate trips -> the stage takes its sound-fallback path.
  Throw,   ///< Gate raises FaultInjectedError -> stage "crashes".
  Stall,   ///< Gate stops progressing -> the watchdog must rescue.
};

/// Deterministic fault injection: each BudgetGate names a fault
/// point; arming a point (via TSL_FAULT or armFromSpec) makes the
/// gate report exhaustion at a chosen poll, forcing the stage down
/// its degradation path. A spec is a comma-separated list of points,
/// each optionally suffixed `:N` (fire at the Nth poll, default 1),
/// `:throw` / `:stall` (fault kind), and/or `:once` (transient:
/// disarm after firing, so a retry succeeds); the word `all` arms
/// every point; `rand:<seed>` arms a seeded probabilistic schedule
/// over all points (the chaos-suite format — identical seed, identical
/// schedule, on every platform). All members are guarded by one
/// mutex: gates are constructed on stage-calling threads while
/// workers of another stage may be recording fired points.
class FaultInjector {
public:
  static FaultInjector &instance();

  /// Every fault point compiled into the pipeline; tests assert each
  /// one fires at least once across the suite.
  static const std::vector<std::string> &knownPoints();

  /// What query() hands a constructing gate: fire-at poll (0 = not
  /// armed) plus the armed kind.
  struct ArmedFault {
    uint64_t AtPoll = 0;
    FaultKind Kind = FaultKind::Degrade;
  };

  /// Disarms all points and clears coverage counters.
  void reset();

  /// Arms \p Point to fire at poll number \p AtPoll (1 = first poll)
  /// with kind \p Kind; \p Transient disarms the point when it fires.
  void arm(const std::string &Point, uint64_t AtPoll = 1,
           FaultKind Kind = FaultKind::Degrade, bool Transient = false);

  /// Parses and arms a spec: "slice.pop,pta.solve:100",
  /// "pta.solve:throw:once", "sdg.clones:stall", "all", or
  /// "rand:<seed>". Returns false (arming nothing further) on an
  /// unknown point name or malformed suffix.
  bool armFromSpec(const std::string &Spec);

  /// Arms a deterministic pseudo-random schedule derived from \p Seed:
  /// each known point is independently armed with probability ~1/3,
  /// with pseudo-random fire-at poll, kind, and transience. The chaos
  /// suite replays thousands of these.
  void armRandomSchedule(uint64_t Seed);

  /// Stall faults busy-wait (checking the budget's cancel flag) for at
  /// most this long before giving up and tripping; tests shrink it so
  /// un-rescued stalls stay fast. Default 100.
  void setStallCapMs(uint64_t Ms);
  uint64_t stallCapMs() const;

  /// Called once per BudgetGate at construction: records that the
  /// point was reached and returns the armed fault (AtPoll 0 = not
  /// armed).
  ArmedFault query(const std::string &Point);

  /// Called by the gate when an armed point actually fires. Transient
  /// faults are disarmed here — the next gate on this point runs
  /// clean, which is what the session's bounded retry relies on.
  void recordFired(const std::string &Point);

  std::set<std::string> reached() const;
  std::set<std::string> fired() const;
  /// Total number of fault firings, monotonically increasing — unlike
  /// fired(), it grows when the SAME point fires again, which is what
  /// the session's taint detection samples around each stage compute.
  uint64_t firedCount() const;
  bool anyArmed() const;

private:
  FaultInjector(); ///< Arms from the TSL_FAULT environment variable.

  struct Arming {
    uint64_t AtPoll = 1;
    FaultKind Kind = FaultKind::Degrade;
    bool Transient = false;
  };

  mutable std::mutex Mu;
  std::map<std::string, Arming> Armed;
  std::set<std::string> Reached;
  std::set<std::string> Fired;
  uint64_t FireCount = 0;
  uint64_t StallCapMs = 100;
};

/// Poll point of one gated loop. The loop calls spend()/poll() with
/// its work counter; once the gate trips — step cap exceeded,
/// deadline expired, watchdog cancellation observed, or armed fault
/// fired — it stays exhausted and the stage must stop and degrade.
/// With a null budget and no armed fault a poll is a few arithmetic
/// instructions. A Throw-kind fault makes poll() raise
/// FaultInjectedError instead of returning.
class BudgetGate {
public:
  /// \p StepCap is this stage's cap from the budget (0 = uncapped);
  /// \p Point names the fault point for this loop.
  BudgetGate(const AnalysisBudget *Budget, const char *Point,
             uint64_t StepCap)
      : B(Budget), Point(Point), StepCap(StepCap),
        Fault(FaultInjector::instance().query(Point)) {}

  /// Polls with the stage's own work counter; returns true once the
  /// stage must stop (sticky).
  bool poll(uint64_t StepsUsed) {
    if (Exhausted)
      return true;
    Used = StepsUsed;
    ++Polls;
    if (Fault.AtPoll && Polls >= Fault.AtPoll) {
      fire();
    } else if (StepCap && StepsUsed > StepCap) {
      trip("step-cap");
    } else if (B && B->cancelled()) {
      trip("watchdog");
    } else if (B && B->BudgetMs && (Polls & DeadlinePollMask) == 0 &&
               B->deadlineExpired()) {
      trip("deadline");
    }
    return Exhausted;
  }

  /// Convenience for loops without their own counter: counts \p N
  /// steps and polls.
  bool spend(uint64_t N = 1) { return poll(Used + N); }

  bool exhausted() const { return Exhausted; }
  const std::string &reason() const { return Reason; }
  uint64_t used() const { return Used; }

private:
  void fire(); ///< The armed fault fires: degrade, throw, or stall.
  void trip(std::string Why) {
    Exhausted = true;
    Reason = std::move(Why);
  }

  /// The deadline is checked every 64 polls so a hot loop does not
  /// read the clock on every iteration.
  static constexpr uint64_t DeadlinePollMask = 63;

  const AnalysisBudget *B;
  const char *Point;
  uint64_t StepCap;
  FaultInjector::ArmedFault Fault;
  uint64_t Used = 0;
  uint64_t Polls = 0;
  bool Exhausted = false;
  std::string Reason;
};

/// Thread-safe sibling of BudgetGate for worker pools: one gate is
/// shared by every worker of a batch, so the step cap (and armed
/// fault) governs the batch's *total* work rather than each query's.
/// Construction — which registers the fault point with the injector —
/// must happen before workers start; spend() is safe from any thread
/// (an atomic add plus occasional deadline reads). For an armed fault
/// the gate fires once the batch-wide step count reaches the
/// configured poll number; a Throw-kind fault raises
/// FaultInjectedError in whichever worker crossed the threshold
/// (the batch engine's per-item crash isolation contains it).
class SharedBudgetGate {
public:
  SharedBudgetGate(const AnalysisBudget *Budget, const char *Point,
                   uint64_t StepCap)
      : B(Budget), Point(Point), StepCap(StepCap),
        Fault(FaultInjector::instance().query(Point)) {}

  /// Counts \p N steps against the shared pool; returns true once the
  /// batch must stop (sticky).
  bool spend(uint64_t N = 1) {
    if (Tripped.load(std::memory_order_relaxed))
      return true;
    uint64_t U = Used.fetch_add(N, std::memory_order_relaxed) + N;
    if (Fault.AtPoll && U >= Fault.AtPoll)
      fire();
    else if (StepCap && U > StepCap)
      trip("step-cap", false);
    else if (B && B->cancelled())
      trip("watchdog", false);
    else if (B && B->BudgetMs && (U & DeadlineCheckMask) == 0 &&
             B->deadlineExpired())
      trip("deadline", false);
    return Tripped.load(std::memory_order_relaxed);
  }

  /// External cancellation: trips the gate with \p Why so every worker
  /// polling it stops at its next spend. Used by the batch engine when
  /// one work item throws (its siblings degrade instead of burning
  /// work) and available to any stage that must abandon a batch.
  void cancel(const std::string &Why) { trip(Why, false); }

  bool exhausted() const { return Tripped.load(std::memory_order_acquire); }
  std::string reason() const {
    std::lock_guard<std::mutex> L(Mu);
    return Reason;
  }
  uint64_t used() const { return Used.load(std::memory_order_relaxed); }

private:
  void fire(); ///< The armed fault fires: degrade, throw, or stall.
  void trip(std::string Why, bool RecordFault);

  /// The deadline is read every 64 steps so hot loops do not hit the
  /// clock on every pop.
  static constexpr uint64_t DeadlineCheckMask = 63;

  const AnalysisBudget *B;
  const char *Point;
  uint64_t StepCap;
  FaultInjector::ArmedFault Fault;
  std::atomic<uint64_t> Used{0};
  std::atomic<bool> Tripped{false};
  mutable std::mutex Mu;
  std::string Reason;
};

} // namespace tsl

#endif // THINSLICER_SUPPORT_BUDGET_H
