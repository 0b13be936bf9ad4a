//===-- Registry.cpp - Warm AnalysisSession registry ----------------------===//

#include "service/Registry.h"

using namespace tsl;

namespace {

uint64_t fnv1a(const std::string &S, uint64_t H = 1469598103934665603ull) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

std::string hex64(uint64_t V) {
  static const char *Digits = "0123456789abcdef";
  std::string S(16, '0');
  for (int I = 15; I >= 0; --I, V >>= 4)
    S[static_cast<std::size_t>(I)] = Digits[V & 0xF];
  return S;
}

} // namespace

std::string SessionRegistry::workloadDigest(const std::string &Source,
                                            bool CS, uint32_t LineOffset) {
  uint64_t H = fnv1a(Source);
  H = fnv1a(CS ? "cs" : "ci", H);
  H = fnv1a(std::to_string(LineOffset), H);
  return hex64(H);
}

void SessionRegistry::refreshWarmPointers(WarmSession &E) {
  E.Prog = E.S->program();
  E.Engine = nullptr;
  E.CompileErrors.clear();
  E.StageError.clear();
  if (!E.Prog) {
    E.CompileErrors = E.S->diagnostics().render("<source>", E.LineOffset);
    if (E.CompileErrors.empty())
      E.CompileErrors = "<source>: error: compilation failed\n";
    return;
  }
  E.Engine = E.S->engine();
  if (!E.Engine)
    E.StageError = E.S->lastError().str();
}

std::shared_ptr<WarmSession>
SessionRegistry::acquire(const std::string &Source, bool CS,
                         uint32_t LineOffset, bool Incremental,
                         const std::string &SnapshotPath,
                         std::string &Note) {
  std::string Id = workloadDigest(Source, CS, LineOffset);

  std::shared_ptr<WarmSession> E;
  bool Fresh = false;
  {
    std::lock_guard<std::mutex> L(MapMu);
    auto It = Map.find(Id);
    if (It != Map.end()) {
      E = It->second;
    } else {
      E = std::make_shared<WarmSession>();
      E->Id = Id;
      E->LineOffset = LineOffset;
      E->ContextSensitive = CS;
      // Hold the entry's exclusive lock BEFORE publishing it: a
      // concurrent request for the same workload finds the entry and
      // blocks on the lock until warm-up finishes, instead of racing
      // the warm-up or duplicating it.
      E->Mu.lock();
      Map.emplace(Id, E);
      Fresh = true;
    }
  }
  E->LastUsed.store(Tick.fetch_add(1) + 1, std::memory_order_relaxed);

  if (!Fresh) {
    Note = "cached";
    {
      // Warmed by us earlier or by a concurrent creator; taking the
      // shared lock waits out any in-flight warm-up.
      std::shared_lock<std::shared_mutex> L(E->Mu);
      if (!Incremental || !E->S || E->S->incremental())
        return E;
    }
    // This load asks for incremental edits the entry does not have
    // yet: turn them on. Answers never depend on the flag, only the
    // cost of later edits does.
    std::unique_lock<std::shared_mutex> L(E->Mu);
    if (E->S)
      E->S->setIncremental(true);
    return E;
  }

  // Warm up end-to-end under the already-held exclusive lock.
  Note = "cold";
  try {
    E->S = std::make_unique<AnalysisSession>(Source);
    E->S->setIncremental(Incremental);
    E->S->setThreads(O.AnalysisThreads);
    SDGOptions SO;
    SO.ContextSensitive = CS;
    E->S->setSDGOptions(SO);

    bool Warm = false;
    if (!O.CacheDir.empty()) {
      E->S->setCacheDir(O.CacheDir);
      if (E->S->tryLoadFromCacheDir()) {
        Warm = true;
        Note = "warm:cache-dir";
      }
    }
    if (!Warm && !SnapshotPath.empty()) {
      Status L = E->S->loadSnapshot(SnapshotPath);
      if (L.isOk()) {
        Warm = true;
        Note = "warm:snapshot";
      } else {
        Note = "cold (snapshot fallback: " + L.str() + ")";
      }
    }

    refreshWarmPointers(*E);

    // Populate the snapshot cache for the next daemon generation.
    // Best-effort: an unwritable cache dir must not fail the load.
    if (!Warm && !O.CacheDir.empty() && E->Prog && E->Engine)
      (void)E->S->saveToCacheDir();
  } catch (const std::exception &Ex) {
    // Session construction itself must not take the daemon down; the
    // entry records the failure and every query on it reports it.
    E->Prog = nullptr;
    E->Engine = nullptr;
    E->StageError = std::string("session warm-up failed: ") + Ex.what();
  }
  E->Mu.unlock();

  evictOverCap(Id);
  return E;
}

std::shared_ptr<WarmSession> SessionRegistry::find(const std::string &Id) {
  std::lock_guard<std::mutex> L(MapMu);
  auto It = Map.find(Id);
  if (It == Map.end())
    return nullptr;
  It->second->LastUsed.store(Tick.fetch_add(1) + 1,
                             std::memory_order_relaxed);
  return It->second;
}

std::size_t SessionRegistry::size() const {
  std::lock_guard<std::mutex> L(MapMu);
  return Map.size();
}

void SessionRegistry::evictOverCap(const std::string &Keep) {
  std::lock_guard<std::mutex> L(MapMu);
  while (Map.size() > O.MaxSessions) {
    // Oldest entry that is not the one just warmed and not in use.
    // In-flight holders keep the shared_ptr alive; eviction only
    // forgets the registry's reference.
    auto Victim = Map.end();
    uint64_t Oldest = ~0ull;
    for (auto It = Map.begin(); It != Map.end(); ++It) {
      if (It->first == Keep)
        continue;
      uint64_t Used = It->second->LastUsed.load(std::memory_order_relaxed);
      if (Used < Oldest && It->second->Mu.try_lock()) {
        if (Victim != Map.end())
          Victim->second->Mu.unlock();
        Victim = It;
        Oldest = Used;
      }
    }
    if (Victim == Map.end())
      return; // Everything busy; retry on the next insert.
    Victim->second->Mu.unlock();
    Map.erase(Victim);
  }
}

