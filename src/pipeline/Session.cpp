//===-- Session.cpp - Memoized analysis pipeline sessions -----------------------==//

#include "pipeline/Session.h"

#include "ir/ProgramIO.h"
#include "lang/Incremental.h"
#include "pta/Snapshot.h"
#include "support/Watchdog.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

using namespace tsl;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Runs one stage computation inside the session's failure-isolation
/// harness: a Watchdog enforces the budget's wall-clock deadline
/// preemptively, and an exception escaping the stage (injected Throw
/// fault, internal error) is caught at this boundary and retried up to
/// a small bound with backoff — a transient fault disarms when it
/// fires, so the retry runs clean. Returns nullopt (with \p Err set)
/// when every attempt failed; \p FaultFired reports whether an armed
/// fault fired during the *successful* attempt, which is what marks
/// the produced artifact tainted.
template <typename Fn>
auto computeStage(const char *Stage, const AnalysisBudget *B, Status &Err,
                  uint64_t &Failures, uint64_t &Retries, bool &FaultFired,
                  Fn &&Compute) -> std::optional<decltype(Compute())> {
  constexpr int MaxAttempts = 3;
  for (int Attempt = 1;; ++Attempt) {
    uint64_t FiredBefore = FaultInjector::instance().firedCount();
    try {
      Watchdog WD(B);
      auto R = Compute();
      Err = Status::ok();
      FaultFired =
          FaultInjector::instance().firedCount() != FiredBefore;
      return R;
    } catch (const FaultInjectedError &E) {
      Err = Status(StatusCode::FaultInjected,
                   std::string(Stage) + ": " + E.what());
    } catch (const std::exception &E) {
      Err = Status(StatusCode::Internal,
                   std::string(Stage) + ": " + E.what());
    } catch (...) {
      Err = Status(StatusCode::Internal,
                   std::string(Stage) + ": unknown exception");
    }
    if (Attempt == MaxAttempts) {
      ++Failures;
      FaultFired = true;
      return std::nullopt;
    }
    ++Retries;
    // Tiny exponential backoff: enough for a transient cause to
    // clear, short enough to stay interactive.
    std::this_thread::sleep_for(std::chrono::milliseconds(1 << (Attempt - 1)));
  }
}

/// 64-bit digest over the source text: the cheap, stable identity
/// every cache key is prefixed with. FNV-1a mixing applied to
/// little-endian 8-byte blocks (byte-wise tail) rather than single
/// bytes: the classic form is one serially-dependent multiply per
/// byte, which on ~100KB sources was a measurable slice of the
/// warm-start constructor.
uint64_t fnv1a(const std::string &S) {
  const unsigned char *P = reinterpret_cast<const unsigned char *>(S.data());
  std::size_t N = S.size();
  uint64_t H = 1469598103934665603ull;
  for (; N >= 8; P += 8, N -= 8) {
    uint64_t W = 0;
    for (int I = 0; I != 8; ++I)
      W |= static_cast<uint64_t>(P[I]) << (8 * I);
    H ^= W;
    H *= 1099511628211ull;
  }
  for (std::size_t I = 0; I != N; ++I) {
    H ^= P[I];
    H *= 1099511628211ull;
  }
  return H;
}

/// Option fingerprints. Budget pointers are deliberately excluded:
/// the session threads its own budget in at compute time and treats
/// budget changes as destructive invalidations instead.
std::string digest(const CompileOptions &O) {
  std::string D = "ssa=";
  D += O.BuildSSA ? '1' : '0';
  D += ";main=";
  D += O.RequireMain ? '1' : '0';
  return D;
}

std::string digest(const PTAOptions &O) {
  std::ostringstream OS;
  OS << "objsens=" << O.ObjSensContainers << ";depth=" << O.MaxObjSensDepth
     << ";containers=";
  for (const std::string &C : O.ContainerClasses)
    OS << C << ',';
  return OS.str();
}

std::string digest(const SDGOptions &O) {
  std::string D = "cs=";
  D += O.ContextSensitive ? '1' : '0';
  D += ";unreach=";
  D += O.IncludeUnreachable ? '1' : '0';
  return D;
}

} // namespace

const char *tsl::sessionStageName(SessionStage S) {
  switch (S) {
  case SessionStage::Compile:
    return "compile";
  case SessionStage::PTA:
    return "pta";
  case SessionStage::ModRef:
    return "modref";
  case SessionStage::SDGBuild:
    return "sdg";
  case SessionStage::Engine:
    return "engine";
  case SessionStage::Slice:
    return "slice";
  }
  return "?";
}

AnalysisSession::AnalysisSession()
    : Diag(std::make_unique<DiagnosticEngine>()) {}

AnalysisSession::AnalysisSession(std::string Source, CompileOptions CO)
    : AnalysisSession() {
  CurCompile = CO;
  setSource(std::move(Source));
}

AnalysisSession::~AnalysisSession() = default;

unsigned AnalysisSession::threadsResolved() const {
  if (Threads)
    return Threads;
  unsigned HW = std::thread::hardware_concurrency();
  return HW ? HW : 1;
}

ThreadPool *AnalysisSession::pool() {
  unsigned N = threadsResolved();
  if (N <= 1)
    return nullptr;
  if (Pools.empty() || Pools.back()->concurrency() != N)
    Pools.push_back(std::make_unique<ThreadPool>(N));
  return Pools.back().get();
}

//===----------------------------------------------------------------------===//
// Invalidation
//===----------------------------------------------------------------------===//

void AnalysisSession::bumpFrom(SessionStage S) {
  for (unsigned I = static_cast<unsigned>(S); I != NumSessionStages; ++I)
    ++Epochs[I];
}

void AnalysisSession::purgeAnalyses() {
  counters(SessionStage::Slice).Invalidated += SliceCache.size();
  counters(SessionStage::Engine).Invalidated += EngineCache.size();
  counters(SessionStage::SDGBuild).Invalidated += SdgCache.size();
  counters(SessionStage::ModRef).Invalidated += ModRefCache.size();
  counters(SessionStage::PTA).Invalidated += PtaCache.size();
  // Bottom-up: engines reference SDGs, mod-ref references PTA.
  SliceCache.clear();
  EngineCache.clear();
  SdgCache.clear();
  ModRefCache.clear();
  PtaCache.clear();
  TaintedPta.clear();
  TaintedModRef.clear();
  TaintedSdg.clear();
  TaintedSlices.clear();
  PendingPtaBytes.clear();
  PendingMrBytes.clear();
  PendingLayerKey.clear();
  // No artifact holds retired-body pointers anymore.
  RetiredBodyStore.clear();
}

//===----------------------------------------------------------------------===//
// Tainted-artifact eviction (retry-on-next-request)
//===----------------------------------------------------------------------===//

void AnalysisSession::evictSdgCone(const std::string &Key) {
  for (auto It = SliceCache.begin(); It != SliceCache.end();) {
    if (std::get<0>(It->first) == Key) {
      ++counters(SessionStage::Slice).Invalidated;
      TaintedSlices.erase(It->first);
      It = SliceCache.erase(It);
    } else {
      ++It;
    }
  }
  counters(SessionStage::Engine).Invalidated += EngineCache.erase(Key);
  counters(SessionStage::SDGBuild).Invalidated += SdgCache.erase(Key);
  TaintedSdg.erase(Key);
  // Summaries are keyed by SDG identity; a recomputed graph may reuse
  // the evicted one's address, so drop them wholesale. Only runs on
  // fault-tainted paths — the clean hot path never gets here.
  Summaries.clear();
}

void AnalysisSession::evictModRefEntry(const std::string &Key) {
  // Context-sensitive SDGs hold references into the mod-ref artifact:
  // every SDG of this PTA cone goes too.
  for (auto It = SdgCache.begin(); It != SdgCache.end();) {
    if (It->first.compare(0, Key.size(), Key) == 0) {
      std::string SdgK = It->first;
      ++It;
      evictSdgCone(SdgK);
    } else {
      ++It;
    }
  }
  counters(SessionStage::ModRef).Invalidated += ModRefCache.erase(Key);
  TaintedModRef.erase(Key);
}

void AnalysisSession::evictPtaCone(const std::string &Key) {
  evictModRefEntry(Key);
  counters(SessionStage::PTA).Invalidated += PtaCache.erase(Key);
  TaintedPta.erase(Key);
}

void AnalysisSession::healTainted() {
  // Bottom-up over the cones; each evict erases its own taint mark,
  // so the loops drain.
  while (!TaintedPta.empty())
    evictPtaCone(*TaintedPta.begin());
  while (!TaintedModRef.empty())
    evictModRefEntry(*TaintedModRef.begin());
  while (!TaintedSdg.empty())
    evictSdgCone(*TaintedSdg.begin());
  if (!TaintedSlices.empty()) {
    for (const SliceKey &K : TaintedSlices)
      if (SliceCache.erase(K))
        ++counters(SessionStage::Slice).Invalidated;
    TaintedSlices.clear();
    // Summaries may embed the same fault: they go too.
    Summaries.clear();
  }
}

/// RAII re-entrancy guard on the public accessors: fault-tainted
/// artifacts heal exactly once, when the OUTERMOST accessor of a
/// request enters — before any raw artifact pointer is handed out.
/// An eviction from a nested call would free memory the outer frames
/// of the same request still dereference (use-after-free caught by
/// the ASan chaos run). Artifacts tainted DURING the request stay
/// served until its end — downstream artifacts hold references into
/// them — and heal at the next request.
struct AnalysisSession::RequestScope {
  explicit RequestScope(AnalysisSession &S) : S(S) {
    if (S.RequestDepth++ == 0)
      S.healTainted();
  }
  ~RequestScope() { --S.RequestDepth; }
  AnalysisSession &S;
};

void AnalysisSession::purgeAll() {
  purgeAnalyses();
  if (CompileAttempted)
    ++counters(SessionStage::Compile).Invalidated;
  Prog.reset();
  CompileAttempted = false;
}

void AnalysisSession::setSource(std::string NewSource) {
  if (IncrementalEnabled && trySetSourceIncremental(NewSource))
    return;
  Source = std::move(NewSource);
  SourceDigest = fnv1a(Source);
  purgeAll();
  bumpFrom(SessionStage::Compile);
}

bool AnalysisSession::trySetSourceIncremental(const std::string &NewSource) {
  ++IncStats.Attempts;
  auto Cold = [&](std::string Why) {
    ++IncStats.ColdFallbacks;
    IncStats.LastFallbackReason = std::move(Why);
    return false;
  };
  if (!Prog || !CompileAttempted)
    return Cold("no compiled program to update");
  if (Budget)
    return Cold("budgeted session");
  if (!CurCompile.BuildSSA)
    return Cold("incremental path requires SSA compiles");

  SourceDiff D = diffThinJSource(Source, NewSource, &IncScanCache);
  if (!D.Eligible)
    return Cold(D.Reason);

  auto T0 = std::chrono::steady_clock::now();
  StageCounters &CC = counters(SessionStage::Compile);
  IncrementalCompileResult CR = applyIncrementalCompile(*Prog, D, CurCompile);
  if (!CR.Applied)
    // A mid-apply failure (CR.RetiredBodies non-empty) left the
    // program mutated; the cold path's purge discards it.
    return Cold(CR.Reason);
  ++CC.Misses;
  CC.Seconds += secondsSince(T0);
  ++IncStats.Applied;
  IncStats.FunctionsRecompiled += CR.DirtyMethods.size();
  IncStats.FunctionsReused +=
      D.TotalFunctions - std::min<std::size_t>(D.TotalFunctions,
                                               CR.DirtyMethods.size());

  // Keys straddle the digest change: extract under the old, re-insert
  // under the new.
  const std::string OldPtaKey = ptaKey();
  Source = NewSource;
  SourceDigest = fnv1a(Source);
  const std::string NewPtaKey = ptaKey();

  // Keep the dead IR alive: retained artifacts still reference the
  // retired instructions (the PTA object table's allocation sites) as
  // never-dereferenced keys. Enumerate the dead key sets first.
  const std::size_t FirstRetired = RetiredBodyStore.size();
  for (auto &B : CR.RetiredBodies)
    RetiredBodyStore.push_back(std::move(B));
  PTAUpdateRequest Req;
  Req.DirtyMethods = CR.DirtyMethods;
  for (std::size_t I = FirstRetired; I != RetiredBodyStore.size(); ++I) {
    const Method::DetachedBody &B = RetiredBodyStore[I];
    for (const auto &BB : B.Blocks)
      for (const auto &In : BB->instrs())
        Req.DeadInstrs.insert(In.get());
    for (const auto &L : B.Locals)
      Req.DeadLocals.insert(L.get());
  }

  // Extract the current-option artifacts (tainted ones stay behind
  // and die with the purge below — carrying a fault-tainted artifact
  // through an in-place update would lose the heal-on-next-request
  // guarantee).
  std::unique_ptr<PointsToResult> Pta;
  std::unique_ptr<ModRefResult> MR;
  if (auto It = PtaCache.find(OldPtaKey);
      It != PtaCache.end() && !TaintedPta.count(OldPtaKey)) {
    Pta = std::move(It->second);
    PtaCache.erase(It);
  }
  if (auto It = ModRefCache.find(OldPtaKey);
      It != ModRefCache.end() && !TaintedModRef.count(OldPtaKey)) {
    MR = std::move(It->second);
    ModRefCache.erase(It);
  }
  // Everything else — other option variants, every SDG, engines,
  // slices, summaries — is stale against the new source. The SDG is
  // never updated in place: the next sdg() builds it cold from the
  // updated points-to (and mod-ref).
  counters(SessionStage::Slice).Invalidated += SliceCache.size();
  SliceCache.clear();
  TaintedSlices.clear();
  counters(SessionStage::Engine).Invalidated += EngineCache.size();
  EngineCache.clear();
  counters(SessionStage::SDGBuild).Invalidated += SdgCache.size();
  SdgCache.clear();
  TaintedSdg.clear();
  counters(SessionStage::ModRef).Invalidated += ModRefCache.size();
  ModRefCache.clear();
  TaintedModRef.clear();
  counters(SessionStage::PTA).Invalidated += PtaCache.size();
  PtaCache.clear();
  TaintedPta.clear();
  Summaries.clear();

  // Stage updates, each with transparent per-stage cold fallback: a
  // declined/faulted update drops that artifact and its dependents,
  // and the next accessor recomputes them cold. No-edit reloads
  // (zero dirty bodies) re-key points-to and mod-ref verbatim.
  const bool NeedUpdates = !CR.DirtyMethods.empty();
  std::vector<Method *> Affected;
  PointsToResult *LivePta = nullptr;
  auto StageFallback = [&](const char *Stage, const std::string &Why,
                           SessionStage S) {
    ++IncStats.StageFallbacks;
    IncStats.LastFallbackReason = std::string(Stage) + ": " + Why;
    ++counters(S).Invalidated;
  };
  // Deferred snapshot payloads carry across a no-edit reload by
  // re-keying (their facts are unchanged); a real edit cannot patch
  // serialized bytes, so they drop and the next accessor rebuilds
  // cold — the same outcome as a decoded snapshot layer declining
  // its in-place update.
  if (PendingLayerKey == OldPtaKey &&
      (!PendingPtaBytes.empty() || !PendingMrBytes.empty())) {
    if (!NeedUpdates) {
      PendingLayerKey = NewPtaKey;
    } else {
      PendingPtaBytes.clear();
      PendingMrBytes.clear();
      PendingLayerKey.clear();
      StageFallback("pta", "snapshot layer predates the edit",
                    SessionStage::PTA);
    }
  }
  if (Pta) {
    bool Keep = true;
    if (NeedUpdates) {
      StageCounters &PC = counters(SessionStage::PTA);
      auto TP = std::chrono::steady_clock::now();
      try {
        PTAUpdateResult U = Pta->applyIncrementalUpdate(Req);
        PC.Seconds += secondsSince(TP);
        if (U.Applied) {
          Affected = std::move(U.AffectedMethods);
        } else {
          StageFallback("pta", U.Reason, SessionStage::PTA);
          Keep = false;
        }
      } catch (const std::exception &E) {
        PC.Seconds += secondsSince(TP);
        StageFallback("pta", E.what(), SessionStage::PTA);
        Keep = false;
      }
    }
    if (Keep) {
      ++IncStats.PtaUpdates;
      ++counters(SessionStage::PTA).Hits;
      LivePta = Pta.get();
      PtaCache.emplace(NewPtaKey, std::move(Pta));
    } else {
      Pta.reset();
    }
  }
  if (MR) {
    bool Keep = LivePta != nullptr; // Mod-ref references the PTA result.
    if (!Keep) {
      ++counters(SessionStage::ModRef).Invalidated;
    } else if (NeedUpdates) {
      StageCounters &MC = counters(SessionStage::ModRef);
      auto TM = std::chrono::steady_clock::now();
      try {
        if (!MR->updateIncremental(Affected)) {
          StageFallback("modref", "update declined", SessionStage::ModRef);
          Keep = false;
        }
        MC.Seconds += secondsSince(TM);
      } catch (const std::exception &E) {
        MC.Seconds += secondsSince(TM);
        StageFallback("modref", E.what(), SessionStage::ModRef);
        Keep = false;
      }
    }
    if (Keep) {
      ++IncStats.ModRefUpdates;
      ++counters(SessionStage::ModRef).Hits;
      ModRefCache.emplace(NewPtaKey, std::move(MR));
    } else {
      MR.reset();
    }
  }
  bumpFrom(SessionStage::Compile);
  return true;
}

void AnalysisSession::setCompileOptions(const CompileOptions &O) {
  if (digest(O) == digest(CurCompile))
    return;
  CurCompile = O;
  purgeAll();
  bumpFrom(SessionStage::Compile);
}

void AnalysisSession::setPTAOptions(const PTAOptions &O) {
  if (digest(O) == digest(CurPta))
    return;
  CurPta = O;
  bumpFrom(SessionStage::PTA);
}

void AnalysisSession::setSDGOptions(const SDGOptions &O) {
  if (digest(O) == digest(CurSdg))
    return;
  CurSdg = O;
  bumpFrom(SessionStage::SDGBuild);
}

void AnalysisSession::setBudget(const AnalysisBudget *B) {
  if (B == Budget)
    return;
  Budget = B;
  purgeAnalyses();
  bumpFrom(SessionStage::PTA);
}

//===----------------------------------------------------------------------===//
// Keys
//===----------------------------------------------------------------------===//

std::string AnalysisSession::ptaKey() const {
  char Buf[32];
  snprintf(Buf, sizeof(Buf), "%016llx|",
           static_cast<unsigned long long>(SourceDigest));
  return Buf + digest(CurPta);
}

std::string AnalysisSession::sdgKey() const {
  return ptaKey() + "|" + digest(CurSdg);
}

std::string AnalysisSession::snapshotCacheKey() const {
  const uint64_t OptDigest =
      fnv1a(digest(CurCompile) + "|" + digest(CurPta) + "|" + digest(CurSdg) +
            "|v" + std::to_string(TSL_SNAPSHOT_VERSION));
  char Buf[64];
  snprintf(Buf, sizeof(Buf), "%016llx-%016llx.tslsnap",
           static_cast<unsigned long long>(SourceDigest),
           static_cast<unsigned long long>(OptDigest));
  return Buf;
}

//===----------------------------------------------------------------------===//
// Persistent snapshots
//===----------------------------------------------------------------------===//

Status AnalysisSession::saveSnapshot(const std::string &Path) {
  if (Budget)
    return Status(StatusCode::ResourceExhausted,
                  "snapshot: budgeted sessions are not serializable");
  Program *P = program();
  if (!P)
    return LastErr;
  PointsToResult *PTA = pointsTo();
  ModRefResult *MR = PTA ? modRef() : nullptr;
  SDG *G = MR ? sdg() : nullptr;
  if (!PTA || !MR || !G)
    return LastErr;
  // Degraded facts embed a budget/fault outcome a warm start could
  // not attribute; decline rather than persist them.
  for (const StageReport *Rep :
       {&PTA->report(), &MR->report(), &G->report()})
    if (Rep->Status != StageStatus::Complete)
      return Status(StatusCode::ResourceExhausted,
                    "snapshot: degraded " + Rep->Stage +
                        " artifact is not serializable");

  ByteWriter W;
  W.u32(TSL_SNAPSHOT_MAGIC);
  W.u32(TSL_SNAPSHOT_VERSION);
  W.beginSection(SnapshotSection::Meta);
  W.u64(SourceDigest);
  W.str(digest(CurCompile));
  W.str(digest(CurPta));
  W.str(digest(CurSdg));
  W.endSection();
  W.beginSection(SnapshotSection::Program);
  encodeProgram(*P, W);
  W.endSection();
  W.beginSection(SnapshotSection::Pta);
  encodePointsTo(*PTA, *P, W);
  W.endSection();
  W.beginSection(SnapshotSection::ModRef);
  MR->encode(W);
  W.endSection();
  W.beginSection(SnapshotSection::Sdg);
  G->encode(W);
  W.endSection();

  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (Out)
    Out.write(reinterpret_cast<const char *>(W.buffer().data()),
              static_cast<std::streamsize>(W.size()));
  if (!Out || !Out.flush())
    return Status(StatusCode::Internal, "snapshot: cannot write " + Path);
  ++SnapStats.Saves;
  return Status::ok();
}

Status AnalysisSession::loadSnapshot(const std::string &Path) {
  auto Fallback = [&](StatusCode Code, std::string Why) {
    ++SnapStats.Fallbacks;
    SnapStats.LastFallbackReason = std::move(Why);
    return Status(Code, "snapshot: " + SnapStats.LastFallbackReason +
                            " (cold rebuild)");
  };

  // One bulk read sized by the file, not an istreambuf byte pump:
  // warm-start latency is the product being sold here.
  std::ifstream In(Path, std::ios::binary | std::ios::ate);
  if (!In)
    return Fallback(StatusCode::NotFound, "cannot read " + Path);
  const std::streamoff Size = In.tellg();
  if (Size < 0)
    return Fallback(StatusCode::NotFound, "cannot read " + Path);
  std::vector<uint8_t> Bytes(static_cast<std::size_t>(Size));
  In.seekg(0);
  if (Size && !In.read(reinterpret_cast<char *>(Bytes.data()), Size))
    return Fallback(StatusCode::NotFound, "cannot read " + Path);

  try {
    // Chaos fault point: an armed "snapshot.load" degrades (decline)
    // or throws (caught below) — either way the session stays intact
    // and the caller rebuilds cold.
    BudgetGate Gate(nullptr, "snapshot.load", 0);
    if (Gate.spend())
      return Fallback(StatusCode::FaultInjected,
                      "injected fault at snapshot.load");

    ByteReader R(Bytes);
    if (R.u32() != TSL_SNAPSHOT_MAGIC)
      return Fallback(StatusCode::InvalidArgument, "not a snapshot file");
    const uint32_t Version = R.u32();
    if (Version != TSL_SNAPSHOT_VERSION)
      return Fallback(StatusCode::InvalidArgument,
                      "format version " + std::to_string(Version) +
                          " != " + std::to_string(TSL_SNAPSHOT_VERSION));

    ByteReader Meta = R.section(SnapshotSection::Meta);
    if (Meta.u64() != SourceDigest)
      return Fallback(StatusCode::InvalidArgument, "source digest mismatch");
    if (Meta.str() != digest(CurCompile) || Meta.str() != digest(CurPta) ||
        Meta.str() != digest(CurSdg))
      return Fallback(StatusCode::InvalidArgument, "option digest mismatch");

    // Decode the program and SDG into temporaries; the session is
    // only touched after they validated. The points-to and mod-ref
    // sections are framed and CRC-checked here too, but their
    // payloads are stashed undecoded: the first slice query after a
    // warm start runs on the SDG alone, so deferring the other two
    // layers takes their decode off the load-to-slice path.
    // pointsTo()/modRef() materialize them on demand and rebuild
    // cold if a payload is structurally malformed.
    ByteReader ProgR = R.section(SnapshotSection::Program);
    std::unique_ptr<Program> NewProg = decodeProgram(ProgR);
    ByteReader PtaR = R.section(SnapshotSection::Pta);
    std::vector<uint8_t> PtaBytes = PtaR.take();
    ByteReader MrR = R.section(SnapshotSection::ModRef);
    std::vector<uint8_t> MrBytes = MrR.take();
    ByteReader SdgR = R.section(SnapshotSection::Sdg);
    std::unique_ptr<SDG> NewSdg = SDG::decode(SdgR, *NewProg);
    if (!R.atEnd())
      throw SerializeError("trailing bytes after last section");

    purgeAll();
    Diag = std::make_unique<DiagnosticEngine>();
    Prog = std::move(NewProg);
    CompileAttempted = true;
    SdgCache.emplace(sdgKey(), std::move(NewSdg));
    PendingPtaBytes = std::move(PtaBytes);
    PendingMrBytes = std::move(MrBytes);
    PendingLayerKey = ptaKey();
    bumpFrom(SessionStage::Compile);
    ++SnapStats.Loads;
    LastErr = Status::ok();
    return Status::ok();
  } catch (const FaultInjectedError &E) {
    return Fallback(StatusCode::FaultInjected, E.what());
  } catch (const std::exception &E) {
    return Fallback(StatusCode::InvalidArgument, E.what());
  }
}

bool AnalysisSession::tryLoadFromCacheDir() {
  if (CacheDir.empty())
    return false;
  namespace fs = std::filesystem;
  std::error_code EC;
  const fs::path File = fs::path(CacheDir) / snapshotCacheKey();
  if (!fs::exists(File, EC) || EC) {
    ++SnapStats.CacheMisses;
    return false;
  }
  ++SnapStats.CacheHits;
  return loadSnapshot(File.string()).isOk();
}

Status AnalysisSession::saveToCacheDir() {
  if (CacheDir.empty())
    return Status::ok();
  namespace fs = std::filesystem;
  std::error_code EC;
  fs::create_directories(CacheDir, EC);
  Status S = saveSnapshot((fs::path(CacheDir) / snapshotCacheKey()).string());
  if (!S.isOk())
    return S;
  // LRU retention: keep the newest MaxCacheDirEntries snapshots.
  std::vector<std::pair<fs::file_time_type, fs::path>> Entries;
  for (const auto &E : fs::directory_iterator(CacheDir, EC)) {
    if (E.path().extension() != ".tslsnap")
      continue;
    std::error_code TimeEC;
    auto T = fs::last_write_time(E.path(), TimeEC);
    if (!TimeEC)
      Entries.emplace_back(T, E.path());
  }
  std::sort(Entries.begin(), Entries.end());
  for (std::size_t I = 0;
       I + MaxCacheDirEntries < Entries.size(); ++I)
    if (fs::remove(Entries[I].second, EC))
      ++SnapStats.CacheEvictions;
  return Status::ok();
}

//===----------------------------------------------------------------------===//
// Artifacts
//===----------------------------------------------------------------------===//

Program *AnalysisSession::program() {
  RequestScope Scope(*this);
  StageCounters &C = counters(SessionStage::Compile);
  if (CompileAttempted) {
    ++C.Hits;
    if (!Prog && LastErr.isOk())
      LastErr = Status(StatusCode::ParseError, "source does not compile");
    return Prog.get();
  }
  ++C.Misses;
  auto T0 = std::chrono::steady_clock::now();
  Diag = std::make_unique<DiagnosticEngine>();
  Expected<std::unique_ptr<Program>> R =
      compileThinJChecked(Source, *Diag, CurCompile);
  if (R.ok()) {
    Prog = std::move(*R);
    LastErr = Status::ok();
  } else {
    Prog = nullptr;
    LastErr = R.status();
  }
  CompileAttempted = true;
  C.Seconds += secondsSince(T0);
  return Prog.get();
}

PointsToResult *AnalysisSession::pointsTo() {
  RequestScope Scope(*this);
  Program *P = program();
  if (!P)
    return nullptr;
  StageCounters &C = counters(SessionStage::PTA);
  std::string Key = ptaKey();
  auto It = PtaCache.find(Key);
  if (It != PtaCache.end()) {
    ++C.Hits;
    return It->second.get();
  }
  // Deferred snapshot layer: CRC-verified at load, decoded only now
  // that a query needs points-to facts. Counted as a hit — the warm
  // start provided the artifact; this is just when it materializes.
  if (!PendingPtaBytes.empty() && PendingLayerKey == Key) {
    std::vector<uint8_t> Bytes = std::move(PendingPtaBytes);
    PendingPtaBytes.clear();
    try {
      ByteReader Rd(Bytes);
      std::unique_ptr<PointsToResult> Dec = decodePointsTo(Rd, *P);
      if (!Rd.atEnd())
        throw SerializeError("trailing bytes in points-to section");
      ++C.Hits;
      return PtaCache.emplace(Key, std::move(Dec)).first->second.get();
    } catch (const std::exception &E) {
      ++SnapStats.Fallbacks;
      SnapStats.LastFallbackReason =
          std::string("deferred points-to decode: ") + E.what();
    }
  }
  ++C.Misses;
  auto T0 = std::chrono::steady_clock::now();
  PTAOptions Opts = CurPta;
  Opts.Budget = Budget;
  bool Tainted = false;
  auto R = computeStage("pta", Budget, LastErr, StageFailures, StageRetries,
                        Tainted, [&] { return runPointsTo(*P, Opts); });
  C.Seconds += secondsSince(T0);
  if (!R)
    return nullptr; // Failure recorded in lastError(); nothing cached.
  PointsToResult *Out =
      PtaCache.emplace(Key, std::move(*R)).first->second.get();
  if (Tainted)
    TaintedPta.insert(Key);
  return Out;
}

ModRefResult *AnalysisSession::modRef() {
  RequestScope Scope(*this);
  PointsToResult *PTA = pointsTo();
  if (!PTA)
    return nullptr;
  StageCounters &C = counters(SessionStage::ModRef);
  std::string Key = ptaKey();
  auto It = ModRefCache.find(Key);
  if (It != ModRefCache.end()) {
    ++C.Hits;
    return It->second.get();
  }
  // Deferred snapshot layer, same contract as the points-to one.
  if (!PendingMrBytes.empty() && PendingLayerKey == Key) {
    std::vector<uint8_t> Bytes = std::move(PendingMrBytes);
    PendingMrBytes.clear();
    try {
      ByteReader Rd(Bytes);
      std::unique_ptr<ModRefResult> Dec =
          ModRefResult::decode(Rd, *Prog, *PTA);
      if (!Rd.atEnd())
        throw SerializeError("trailing bytes in mod-ref section");
      ++C.Hits;
      return ModRefCache.emplace(Key, std::move(Dec)).first->second.get();
    } catch (const std::exception &E) {
      ++SnapStats.Fallbacks;
      SnapStats.LastFallbackReason =
          std::string("deferred mod-ref decode: ") + E.what();
    }
  }
  ++C.Misses;
  auto T0 = std::chrono::steady_clock::now();
  bool Tainted = false;
  auto R = computeStage("modref", Budget, LastErr, StageFailures,
                        StageRetries, Tainted, [&] {
                          return std::make_unique<ModRefResult>(
                              *Prog, *PTA, Budget);
                        });
  C.Seconds += secondsSince(T0);
  if (!R)
    return nullptr;
  ModRefResult *Out =
      ModRefCache.emplace(Key, std::move(*R)).first->second.get();
  if (Tainted)
    TaintedModRef.insert(Key);
  return Out;
}

SDG *AnalysisSession::sdg() {
  RequestScope Scope(*this);
  // Cache first, upstream second: a cached graph (in particular a
  // warm-started one) answers without forcing the points-to layer
  // to materialize.
  if (!program())
    return nullptr;
  StageCounters &C = counters(SessionStage::SDGBuild);
  std::string Key = sdgKey();
  auto It = SdgCache.find(Key);
  if (It != SdgCache.end()) {
    ++C.Hits;
    return It->second.get();
  }
  PointsToResult *PTA = pointsTo();
  if (!PTA)
    return nullptr;
  // The context-sensitive representation needs mod-ref; computing it
  // through the session keeps it cached for the next CS graph of the
  // same PTA cone.
  ModRefResult *MR = CurSdg.ContextSensitive ? modRef() : nullptr;
  if (CurSdg.ContextSensitive && !MR)
    return nullptr; // Mod-ref failed; lastError() explains.
  ++C.Misses;
  auto T0 = std::chrono::steady_clock::now();
  SDGOptions Opts = CurSdg;
  Opts.Budget = Budget;
  bool Tainted = false;
  auto R = computeStage("sdg", Budget, LastErr, StageFailures, StageRetries,
                        Tainted, [&] { return buildSDG(*Prog, *PTA, MR, Opts); });
  C.Seconds += secondsSince(T0);
  if (!R)
    return nullptr;
  SDG *Out = SdgCache.emplace(Key, std::move(*R)).first->second.get();
  if (Tainted)
    TaintedSdg.insert(Key);
  return Out;
}

SliceEngine *AnalysisSession::engine() {
  RequestScope Scope(*this);
  SDG *G = sdg();
  if (!G)
    return nullptr;
  StageCounters &C = counters(SessionStage::Engine);
  auto It = EngineCache.find(sdgKey());
  if (It != EngineCache.end()) {
    ++C.Hits;
    return It->second.get();
  }
  ++C.Misses;
  auto T0 = std::chrono::steady_clock::now();
  bool Tainted = false;
  auto R = computeStage("engine", Budget, LastErr, StageFailures,
                        StageRetries, Tainted,
                        [&] { return std::make_unique<SliceEngine>(*G, pool()); });
  C.Seconds += secondsSince(T0);
  if (!R)
    return nullptr;
  // Engine construction has no fault points — no taint tracking here.
  return EngineCache.emplace(sdgKey(), std::move(*R)).first->second.get();
}

const SliceResult *AnalysisSession::sliceBackwardCached(const Instr *Seed,
                                                        SliceMode Mode) {
  if (!Seed) {
    LastErr = Status(StatusCode::InvalidArgument, "null slice seed");
    return nullptr;
  }
  RequestScope Scope(*this);
  SliceEngine *E = engine();
  if (!E)
    return nullptr;
  StageCounters &C = counters(SessionStage::Slice);
  SliceKey Key{sdgKey(), Seed, Mode};
  auto It = SliceCache.find(Key);
  if (It != SliceCache.end()) {
    ++C.Hits;
    return &It->second;
  }
  ++C.Misses;
  auto T0 = std::chrono::steady_clock::now();
  BatchOptions BO;
  BO.Mode = Mode;
  BO.ContextSensitive = CurSdg.ContextSensitive;
  BO.Jobs = threadsResolved();
  BO.Budget = Budget;
  BO.Summaries = CurSdg.ContextSensitive ? &Summaries : nullptr;
  bool Tainted = false;
  auto R = computeStage("slice", Budget, LastErr, StageFailures, StageRetries,
                        Tainted,
                        [&] { return E->sliceBackwardBatch({Seed}, BO).front(); });
  C.Seconds += secondsSince(T0);
  if (!R)
    return nullptr;
  const SliceResult *Out =
      &SliceCache.emplace(Key, std::move(*R)).first->second;
  if (Tainted)
    TaintedSlices.insert(Key);
  return Out;
}

//===----------------------------------------------------------------------===//
// Status-returning boundary accessors
//===----------------------------------------------------------------------===//

namespace {

/// Null artifact -> the session's recorded Status (never Ok: fall back
/// to a generic Internal if a path forgot to record one).
Status errorOr(const Status &Err, const char *What) {
  if (!Err.isOk())
    return Err;
  return Status(StatusCode::Internal, std::string(What) + " unavailable");
}

} // namespace

Expected<Program *> AnalysisSession::programChecked() {
  if (Program *P = program())
    return P;
  return errorOr(LastErr, "program");
}

Expected<PointsToResult *> AnalysisSession::pointsToChecked() {
  if (PointsToResult *R = pointsTo())
    return R;
  return errorOr(LastErr, "points-to");
}

Expected<ModRefResult *> AnalysisSession::modRefChecked() {
  if (ModRefResult *R = modRef())
    return R;
  return errorOr(LastErr, "mod-ref");
}

Expected<SDG *> AnalysisSession::sdgChecked() {
  if (SDG *G = sdg())
    return G;
  return errorOr(LastErr, "sdg");
}

Expected<SliceEngine *> AnalysisSession::engineChecked() {
  if (SliceEngine *E = engine())
    return E;
  return errorOr(LastErr, "engine");
}

Expected<const SliceResult *>
AnalysisSession::sliceBackwardChecked(const Instr *Seed, SliceMode Mode) {
  if (const SliceResult *R = sliceBackwardCached(Seed, Mode))
    return R;
  return errorOr(LastErr, "slice");
}

//===----------------------------------------------------------------------===//
// Governance and telemetry
//===----------------------------------------------------------------------===//

PipelineStatus AnalysisSession::status() {
  PipelineStatus Status;
  auto PtaIt = PtaCache.find(ptaKey());
  if (PtaIt != PtaCache.end())
    Status.add(PtaIt->second->report());
  auto MrIt = ModRefCache.find(ptaKey());
  if (MrIt != ModRefCache.end() && CurSdg.ContextSensitive)
    Status.add(MrIt->second->report());
  auto SdgIt = SdgCache.find(sdgKey());
  if (SdgIt != SdgCache.end())
    Status.add(SdgIt->second->report());
  return Status;
}

std::vector<StageReport> AnalysisSession::stageReports() const {
  std::vector<StageReport> Out;
  for (unsigned I = 0; I != NumSessionStages; ++I) {
    StageReport R;
    R.Stage = sessionStageName(static_cast<SessionStage>(I));
    R.Seconds = Counters[I].Seconds;
    R.CacheHits = Counters[I].Hits;
    R.CacheMisses = Counters[I].Misses;
    R.CacheInvalidated = Counters[I].Invalidated;
    Out.push_back(std::move(R));
  }
  return Out;
}

std::string AnalysisSession::statsString() const {
  std::string Out = "session stages (memoization):\n";
  char Buf[160];
  for (const StageReport &R : stageReports()) {
    snprintf(Buf, sizeof(Buf),
             "  %s: hits=%llu misses=%llu invalidated=%llu ms=%.1f\n",
             R.Stage.c_str(), static_cast<unsigned long long>(R.CacheHits),
             static_cast<unsigned long long>(R.CacheMisses),
             static_cast<unsigned long long>(R.CacheInvalidated),
             R.Seconds * 1000.0);
    Out += Buf;
  }
  uint64_t Executed = 0, Stolen = 0;
  for (const auto &P : Pools) {
    Executed += P->tasksExecuted();
    Stolen += P->tasksStolen();
  }
  snprintf(Buf, sizeof(Buf),
           "parallelism: threads=%u pool_workers=%u tasks=%llu stolen=%llu\n",
           threadsResolved(),
           Pools.empty() ? 0 : Pools.back()->numWorkers(),
           static_cast<unsigned long long>(Executed),
           static_cast<unsigned long long>(Stolen));
  Out += Buf;
  if (StageFailures || StageRetries) {
    snprintf(Buf, sizeof(Buf),
             "failure isolation: stage_failures=%llu retries=%llu\n",
             static_cast<unsigned long long>(StageFailures),
             static_cast<unsigned long long>(StageRetries));
    Out += Buf;
  }
  if (IncStats.Attempts) {
    char IBuf[288];
    snprintf(IBuf, sizeof(IBuf),
             "incremental: attempts=%llu applied=%llu fn_reused=%llu "
             "fn_recompiled=%llu pta_updates=%llu modref_updates=%llu "
             "cold_fallbacks=%llu stage_fallbacks=%llu\n",
             static_cast<unsigned long long>(IncStats.Attempts),
             static_cast<unsigned long long>(IncStats.Applied),
             static_cast<unsigned long long>(IncStats.FunctionsReused),
             static_cast<unsigned long long>(IncStats.FunctionsRecompiled),
             static_cast<unsigned long long>(IncStats.PtaUpdates),
             static_cast<unsigned long long>(IncStats.ModRefUpdates),
             static_cast<unsigned long long>(IncStats.ColdFallbacks),
             static_cast<unsigned long long>(IncStats.StageFallbacks));
    Out += IBuf;
    if (!IncStats.LastFallbackReason.empty())
      Out += "  last_fallback: " + IncStats.LastFallbackReason + "\n";
  }
  snprintf(Buf, sizeof(Buf),
           "snapshot: saves=%llu loads=%llu fallbacks=%llu cache_hits=%llu "
           "cache_misses=%llu cache_evictions=%llu\n",
           static_cast<unsigned long long>(SnapStats.Saves),
           static_cast<unsigned long long>(SnapStats.Loads),
           static_cast<unsigned long long>(SnapStats.Fallbacks),
           static_cast<unsigned long long>(SnapStats.CacheHits),
           static_cast<unsigned long long>(SnapStats.CacheMisses),
           static_cast<unsigned long long>(SnapStats.CacheEvictions));
  Out += Buf;
  if (!SnapStats.LastFallbackReason.empty())
    Out += "  last_fallback: " + SnapStats.LastFallbackReason + "\n";
  return Out;
}
