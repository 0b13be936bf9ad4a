//===-- Session.cpp - Memoized analysis pipeline sessions -----------------------==//

#include "pipeline/Session.h"

#include "ir/ProgramIO.h"
#include "lang/Incremental.h"
#include "support/Watchdog.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
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
/// snapshots are stamped and cache-dir files are named with. FNV-1a mixing applied to
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
/// the session threads its own budget in at compute time and drops
/// its analyses on a budget change instead.
std::string digest(const PTAOptions &O) {
  std::string D = "objsens=";
  D += O.ObjSensContainers ? '1' : '0';
  return D;
}

std::string digest(const SDGOptions &O) {
  std::string D = "cs=";
  D += O.ContextSensitive ? '1' : '0';
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

AnalysisSession::AnalysisSession(std::string Source) : AnalysisSession() {
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

void AnalysisSession::drop(SessionStage S) {
  auto Drop = [&](SessionStage At, auto &Artifact) {
    if (S > At)
      return false;
    if (Artifact)
      ++counters(At).Invalidated;
    Artifact.reset();
    return true;
  };
  if (S <= SessionStage::Slice) {
    counters(SessionStage::Slice).Invalidated += SliceCache.size();
    SliceCache.clear();
    TaintedSlices.clear();
  }
  Drop(SessionStage::Engine, Engine);
  if (Drop(SessionStage::SDGBuild, Graph)) {
    SdgTainted = false;
    // Summaries are keyed by SDG identity and a later graph may reuse
    // a freed one's address.
    Summaries.clear();
  }
  if (Drop(SessionStage::ModRef, MR))
    ModRefTainted = false;
  if (Drop(SessionStage::PTA, Pta)) {
    PtaTainted = false;
    // No artifact holds retired-body pointers anymore.
    RetiredBodyStore.clear();
  }
  if (S == SessionStage::Compile) {
    if (CompileAttempted)
      ++counters(SessionStage::Compile).Invalidated;
    Prog.reset();
    CompileAttempted = false;
    // The program is being replaced (a cold setSource, a snapshot or
    // cache-dir load): every shape describes a body of the old one.
    SdgShapes.clear();
  }
}

void AnalysisSession::healTainted() {
  // The highest tainted stage's drop takes the ones below it along.
  if (PtaTainted)
    drop(SessionStage::PTA);
  else if (ModRefTainted)
    drop(SessionStage::ModRef);
  else if (SdgTainted)
    drop(SessionStage::SDGBuild);
  if (!TaintedSlices.empty()) {
    for (const SliceQuery::Key &K : TaintedSlices)
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
/// A drop from a nested call would free memory the outer frames
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

void AnalysisSession::setSource(std::string NewSource) {
  if (IncrementalEnabled && trySetSourceIncremental(NewSource))
    return;
  Source = std::move(NewSource);
  SourceDigest = fnv1a(Source);
  drop(SessionStage::Compile);
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

  // The compile stage's clock covers the diff: it is the incremental
  // front end's lex.
  auto T0 = std::chrono::steady_clock::now();
  SourceDiff D = diffThinJSource(Source, NewSource, &IncScanCache);
  if (!D.Eligible)
    return Cold(D.Reason);

  StageCounters &CC = counters(SessionStage::Compile);
  IncrementalCompileResult CR = applyIncrementalCompile(*Prog, D);
  if (!CR.Applied) {
    // A mid-apply failure (CR.RetiredBodies non-empty) left the
    // program mutated; the cold path's drop discards it. Its shapes
    // go now, before anything could build from them.
    SdgShapes.clear();
    return Cold(CR.Reason);
  }
  ++CC.Misses;
  CC.Seconds += secondsSince(T0);
  ++IncStats.Applied;
  IncStats.FunctionsRecompiled += CR.DirtyMethods.size();
  IncStats.FunctionsReused +=
      D.TotalFunctions - std::min<std::size_t>(D.TotalFunctions,
                                               CR.DirtyMethods.size());

  Source = NewSource;
  SourceDigest = fnv1a(Source);

  // A fault-tainted artifact is dropped rather than updated in place
  // (carrying it through would lose the heal-on-next-request
  // guarantee). The SDG and everything below it are stale against the
  // new source: it is never updated in place, and the next sdg()
  // builds it from the updated points-to (and mod-ref).
  healTainted();
  drop(SessionStage::SDGBuild);
  // The relowered bodies' shapes are stale; every other body is the
  // same object it was, so its shape stays.
  SdgShapes.invalidate(CR.DirtyMethods);

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

  // Stage updates, each with transparent per-stage cold fallback: a
  // declined/faulted update drops that artifact and its dependents,
  // and the next accessor recomputes them cold. No-edit reloads
  // (zero dirty bodies) keep points-to and mod-ref verbatim.
  const bool NeedUpdates = !CR.DirtyMethods.empty();
  std::vector<Method *> Affected;
  auto StageFallback = [&](const char *Stage, const std::string &Why,
                           SessionStage S) {
    ++IncStats.StageFallbacks;
    IncStats.LastFallbackReason = std::string(Stage) + ": " + Why;
    drop(S);
  };
  if (Pta && NeedUpdates) {
    StageCounters &PC = counters(SessionStage::PTA);
    auto TP = std::chrono::steady_clock::now();
    try {
      PTAUpdateResult U = Pta->applyIncrementalUpdate(Req);
      PC.Seconds += secondsSince(TP);
      if (U.Applied)
        Affected = std::move(U.AffectedMethods);
      else
        StageFallback("pta", U.Reason, SessionStage::PTA);
    } catch (const std::exception &E) {
      PC.Seconds += secondsSince(TP);
      StageFallback("pta", E.what(), SessionStage::PTA);
    }
  }
  if (Pta) {
    ++IncStats.PtaUpdates;
    ++counters(SessionStage::PTA).Hits;
  }
  if (MR && NeedUpdates) {
    StageCounters &MC = counters(SessionStage::ModRef);
    auto TM = std::chrono::steady_clock::now();
    try {
      bool Applied = MR->updateIncremental(Affected);
      MC.Seconds += secondsSince(TM);
      if (!Applied)
        StageFallback("modref", "update declined", SessionStage::ModRef);
    } catch (const std::exception &E) {
      MC.Seconds += secondsSince(TM);
      StageFallback("modref", E.what(), SessionStage::ModRef);
    }
  }
  if (MR) {
    ++IncStats.ModRefUpdates;
    ++counters(SessionStage::ModRef).Hits;
  }
  bumpFrom(SessionStage::Compile);
  return true;
}

void AnalysisSession::setPTAOptions(const PTAOptions &O) {
  if (digest(O) == digest(CurPta))
    return;
  CurPta = O;
  drop(SessionStage::PTA);
  bumpFrom(SessionStage::PTA);
}

void AnalysisSession::setSDGOptions(const SDGOptions &O) {
  if (digest(O) == digest(CurSdg))
    return;
  CurSdg = O;
  drop(SessionStage::SDGBuild);
  bumpFrom(SessionStage::SDGBuild);
}

void AnalysisSession::setBudget(const AnalysisBudget *B) {
  if (B == Budget)
    return;
  Budget = B;
  drop(SessionStage::PTA);
  bumpFrom(SessionStage::PTA);
}

//===----------------------------------------------------------------------===//
// Snapshot cache key
//===----------------------------------------------------------------------===//

std::string AnalysisSession::snapshotCacheKey() const {
  const uint64_t OptDigest =
      fnv1a(digest(CurPta) + "|" + digest(CurSdg) + "|v" +
            std::to_string(TSL_SNAPSHOT_VERSION));
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
  RequestScope Scope(*this);
  Program *P = program();
  SDG *G = P ? sdg() : nullptr;
  if (!G)
    return LastErr;
  // Degraded facts embed a budget/fault outcome a warm start could
  // not attribute; decline rather than persist them. The SDG was built
  // from the points-to (and, context-sensitive, mod-ref) artifacts the
  // session holds, so a degraded one of those declines too.
  for (const StageReport *Rep :
       {Pta ? &Pta->report() : nullptr, MR ? &MR->report() : nullptr,
        &G->report()})
    if (Rep && Rep->Status != StageStatus::Complete)
      return Status(StatusCode::ResourceExhausted,
                    "snapshot: degraded " + Rep->Stage +
                        " artifact is not serializable");

  ByteWriter W;
  W.u32(TSL_SNAPSHOT_MAGIC);
  W.u32(TSL_SNAPSHOT_VERSION);
  W.beginSection(SnapshotSection::Meta);
  W.u64(SourceDigest);
  W.str(digest(CurPta));
  W.str(digest(CurSdg));
  W.endSection();
  W.beginSection(SnapshotSection::Program);
  encodeProgram(*P, W);
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
    if (Meta.str() != digest(CurPta) || Meta.str() != digest(CurSdg))
      return Fallback(StatusCode::InvalidArgument, "option digest mismatch");

    // Decode the program and SDG into temporaries; the session is
    // only touched after they validated. Points-to and mod-ref are not
    // in the file: every slice runs on the SDG alone, and the first
    // query that reads either (an expansion, a CS graph build, an
    // edit) computes it from the decoded program.
    ByteReader ProgR = R.section(SnapshotSection::Program);
    std::unique_ptr<Program> NewProg = decodeProgram(ProgR);
    ByteReader SdgR = R.section(SnapshotSection::Sdg);
    std::unique_ptr<SDG> NewSdg = SDG::decode(SdgR, *NewProg);
    if (!R.atEnd())
      throw SerializeError("trailing bytes after last section");

    drop(SessionStage::Compile);
    Diag = std::make_unique<DiagnosticEngine>();
    Prog = std::move(NewProg);
    CompileAttempted = true;
    Graph = std::move(NewSdg);
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
  if (!loadSnapshot(File.string()).isOk())
    return false;
  // Eviction goes by modification time; a hit makes the entry the
  // most recently used. Best-effort: a read-only cache still serves.
  fs::last_write_time(File, fs::file_time_type::clock::now(), EC);
  return true;
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
  // LRU retention: keep the MaxCacheDirEntries most recently saved or
  // loaded snapshots.
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
  Expected<std::unique_ptr<Program>> R = compileThinJChecked(Source, *Diag);
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
  if (Pta) {
    ++C.Hits;
    return Pta.get();
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
  Pta = std::move(*R);
  PtaTainted = Tainted;
  return Pta.get();
}

ModRefResult *AnalysisSession::modRef() {
  RequestScope Scope(*this);
  PointsToResult *PTA = pointsTo();
  if (!PTA)
    return nullptr;
  StageCounters &C = counters(SessionStage::ModRef);
  if (MR) {
    ++C.Hits;
    return MR.get();
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
  MR = std::move(*R);
  ModRefTainted = Tainted;
  return MR.get();
}

SDG *AnalysisSession::sdg() {
  RequestScope Scope(*this);
  // Cache first, upstream second: a cached graph (in particular a
  // warm-started one) answers without computing points-to.
  if (!program())
    return nullptr;
  StageCounters &C = counters(SessionStage::SDGBuild);
  if (Graph) {
    ++C.Hits;
    return Graph.get();
  }
  PointsToResult *PTA = pointsTo();
  if (!PTA)
    return nullptr;
  // The context-sensitive representation needs mod-ref; computing it
  // through the session keeps it cached for the next CS graph.
  ModRefResult *ModRef = CurSdg.ContextSensitive ? modRef() : nullptr;
  if (CurSdg.ContextSensitive && !ModRef)
    return nullptr; // Mod-ref failed; lastError() explains.
  ++C.Misses;
  auto T0 = std::chrono::steady_clock::now();
  SDGOptions Opts = CurSdg;
  Opts.Budget = Budget;
  bool Tainted = false;
  auto R = computeStage("sdg", Budget, LastErr, StageFailures, StageRetries,
                        Tainted,
                        [&] {
                          return buildSDG(*Prog, *PTA, ModRef, Opts,
                                          &SdgShapes);
                        });
  C.Seconds += secondsSince(T0);
  if (!R)
    return nullptr;
  Graph = std::move(*R);
  SdgTainted = Tainted;
  return Graph.get();
}

SliceEngine *AnalysisSession::engine() {
  RequestScope Scope(*this);
  SDG *G = sdg();
  if (!G)
    return nullptr;
  StageCounters &C = counters(SessionStage::Engine);
  if (Engine) {
    ++C.Hits;
    return Engine.get();
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
  Engine = std::move(*R);
  return Engine.get();
}

const SliceAnswer *AnalysisSession::slice(const SliceQuery &Q) {
  std::string Bad;
  if (Q.Seeds.empty() || std::count(Q.Seeds.begin(), Q.Seeds.end(), nullptr))
    Bad = "null or missing slice seed";
  else if (auto [A, B] = Q.conflict(); A)
    Bad = std::string("slice query combines ") + A + " with " + B;
  else if (Q.ContextSensitive != CurSdg.ContextSensitive)
    Bad = "slice query context sensitivity differs from the SDG options";
  if (!Bad.empty()) {
    LastErr = Status(StatusCode::InvalidArgument, Bad);
    return nullptr;
  }
  RequestScope Scope(*this);
  SliceEngine *E = engine();
  if (!E)
    return nullptr;
  // Only expansions read points-to: a plain slice after a snapshot
  // load computes none.
  const bool NeedsPta = Q.Expand || Q.AliasDepth;
  PointsToResult *PTA = NeedsPta ? pointsTo() : nullptr;
  if (NeedsPta && !PTA)
    return nullptr;
  StageCounters &C = counters(SessionStage::Slice);
  SliceQuery::Key Key = Q.key();
  auto It = SliceCache.find(Key);
  if (It != SliceCache.end()) {
    ++C.Hits;
    return &It->second;
  }
  ++C.Misses;
  auto T0 = std::chrono::steady_clock::now();
  SliceQuery Run = Q;
  Run.Jobs = threadsResolved();
  Run.Budget = Budget;
  Run.Summaries = CurSdg.ContextSensitive ? &Summaries : nullptr;
  bool Tainted = false;
  auto R = computeStage("slice", Budget, LastErr, StageFailures, StageRetries,
                        Tainted, [&] { return E->run(Run, PTA); });
  C.Seconds += secondsSince(T0);
  if (!R)
    return nullptr;
  const SliceAnswer *Out =
      &SliceCache.emplace(Key, std::move(*R)).first->second;
  if (Tainted)
    TaintedSlices.insert(Key);
  return Out;
}

const SliceResult *AnalysisSession::sliceBackwardCached(const Instr *Seed,
                                                        SliceMode Mode) {
  const SliceAnswer *A =
      slice(SliceQuery::backward({Seed}, Mode, CurSdg.ContextSensitive));
  return A ? &A->Results.front() : nullptr;
}

//===----------------------------------------------------------------------===//
// Governance and telemetry
//===----------------------------------------------------------------------===//

PipelineStatus AnalysisSession::status() {
  PipelineStatus Status;
  if (Pta)
    Status.add(Pta->report());
  if (MR && CurSdg.ContextSensitive)
    Status.add(MR->report());
  if (Graph)
    Status.add(Graph->report());
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
  snprintf(Buf, sizeof(Buf), "parallelism: threads=%u pool_workers=%u\n",
           threadsResolved(),
           Pools.empty() ? 0 : Pools.back()->numWorkers());
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
