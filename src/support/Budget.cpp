//===-- Budget.cpp - Analysis budgets and sound degradation ---------------===//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "support/Budget.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <thread>

using namespace tsl;

AnalysisBudget &AnalysisBudget::operator=(const AnalysisBudget &O) {
  if (this == &O)
    return *this;
  BudgetMs = O.BudgetMs;
  MaxPtaPropagations = O.MaxPtaPropagations;
  MaxModRefSteps = O.MaxModRefSteps;
  MaxSdgNodes = O.MaxSdgNodes;
  MaxSdgEdges = O.MaxSdgEdges;
  MaxSlicePops = O.MaxSlicePops;
  MaxExpansionRounds = O.MaxExpansionRounds;
  MaxInterpSteps = O.MaxInterpSteps;
  Start = O.Start;
  Started = O.Started;
  CancelFlag.store(O.cancelled(), std::memory_order_release);
  return *this;
}

bool AnalysisBudget::deadlineExpired() const {
  if (!BudgetMs || !Started)
    return false;
  auto Elapsed = std::chrono::steady_clock::now() - Start;
  return Elapsed >= std::chrono::milliseconds(BudgetMs);
}

double AnalysisBudget::elapsedSeconds() const {
  if (!Started)
    return 0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

std::string StageReport::str() const {
  std::ostringstream OS;
  OS << Stage << ": ";
  if (Status == StageStatus::Complete) {
    OS << "complete";
  } else {
    OS << "degraded (" << Reason;
    if (!Fallback.empty())
      OS << " -> " << Fallback;
    OS << ")";
  }
  OS << " steps=" << StepsUsed;
  char Buf[32];
  snprintf(Buf, sizeof(Buf), " time=%.3fs", Seconds);
  OS << Buf;
  return OS.str();
}

bool PipelineStatus::complete() const {
  return std::all_of(Stages.begin(), Stages.end(),
                     [](const StageReport &R) { return !R.degraded(); });
}

const StageReport *PipelineStatus::find(const std::string &Stage) const {
  for (const StageReport &R : Stages)
    if (R.Stage == Stage)
      return &R;
  return nullptr;
}

std::string PipelineStatus::str() const {
  std::ostringstream OS;
  OS << "pipeline: " << (complete() ? "complete" : "degraded") << "\n";
  for (const StageReport &R : Stages)
    OS << "  " << R.str() << "\n";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// FaultInjector
//===----------------------------------------------------------------------===//

FaultInjector &FaultInjector::instance() {
  static FaultInjector I;
  return I;
}

const std::vector<std::string> &FaultInjector::knownPoints() {
  static const std::vector<std::string> Points = {
      "pta.solve",     "modref.closure",     "sdg.clones",
      "sdg.heap",      "slice.pop",          "tabulation.summary",
      "expand.round",  "interp.step",        "interp.output",
      "pta.update",    "modref.update",      "snapshot.load",
  };
  return Points;
}

FaultInjector::FaultInjector() {
  if (const char *Spec = std::getenv("TSL_FAULT"))
    armFromSpec(Spec);
}

void FaultInjector::reset() {
  std::lock_guard<std::mutex> L(Mu);
  Armed.clear();
  Reached.clear();
  Fired.clear();
  FireCount = 0;
}

void FaultInjector::arm(const std::string &Point, uint64_t AtPoll,
                        FaultKind Kind, bool Transient) {
  std::lock_guard<std::mutex> L(Mu);
  Armed[Point] = {AtPoll ? AtPoll : 1, Kind, Transient};
}

void FaultInjector::setStallCapMs(uint64_t Ms) {
  std::lock_guard<std::mutex> L(Mu);
  StallCapMs = Ms ? Ms : 1;
}

uint64_t FaultInjector::stallCapMs() const {
  std::lock_guard<std::mutex> L(Mu);
  return StallCapMs;
}

namespace {

/// splitmix64: tiny, stable, and identical on every platform — the
/// requirement for replayable chaos schedules.
uint64_t splitmix64(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

} // namespace

void FaultInjector::armRandomSchedule(uint64_t Seed) {
  uint64_t State = Seed * 0x2545f4914f6cdd1dull + 1;
  for (const std::string &Point : knownPoints()) {
    uint64_t R = splitmix64(State);
    if (R % 3 != 0) // ~1/3 of the points armed per schedule.
      continue;
    uint64_t AtPoll = 1 + (splitmix64(State) % 40);
    uint64_t K = splitmix64(State) % 100;
    // Degrade-heavy mix: crashes and stalls are the rarer real events.
    FaultKind Kind = K < 50   ? FaultKind::Degrade
                     : K < 85 ? FaultKind::Throw
                              : FaultKind::Stall;
    bool Transient = (splitmix64(State) & 1) != 0;
    arm(Point, AtPoll, Kind, Transient);
  }
}

bool FaultInjector::armFromSpec(const std::string &Spec) {
  if (Spec == "all") {
    for (const std::string &P : knownPoints())
      arm(P);
    return true;
  }
  if (Spec.rfind("rand:", 0) == 0) {
    char *End = nullptr;
    uint64_t Seed = std::strtoull(Spec.c_str() + 5, &End, 10);
    if (!End || *End != '\0')
      return false;
    armRandomSchedule(Seed);
    return true;
  }
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Spec.size();
    std::string Item = Spec.substr(Pos, Comma - Pos);
    Pos = Comma + 1;
    if (Item.empty())
      continue;
    // point[:N][:throw|:stall][:once] — suffixes in any order.
    uint64_t AtPoll = 1;
    FaultKind Kind = FaultKind::Degrade;
    bool Transient = false;
    while (true) {
      size_t Colon = Item.rfind(':');
      if (Colon == std::string::npos)
        break;
      std::string Suffix = Item.substr(Colon + 1);
      if (Suffix == "throw")
        Kind = FaultKind::Throw;
      else if (Suffix == "stall")
        Kind = FaultKind::Stall;
      else if (Suffix == "once")
        Transient = true;
      else if (!Suffix.empty() &&
               Suffix.find_first_not_of("0123456789") == std::string::npos)
        AtPoll = std::strtoull(Suffix.c_str(), nullptr, 10);
      else
        return false;
      Item.resize(Colon);
    }
    const std::vector<std::string> &Known = knownPoints();
    if (std::find(Known.begin(), Known.end(), Item) == Known.end())
      return false;
    arm(Item, AtPoll, Kind, Transient);
  }
  return true;
}

FaultInjector::ArmedFault FaultInjector::query(const std::string &Point) {
  std::lock_guard<std::mutex> L(Mu);
  Reached.insert(Point);
  auto It = Armed.find(Point);
  if (It == Armed.end())
    return {};
  return {It->second.AtPoll, It->second.Kind};
}

void FaultInjector::recordFired(const std::string &Point) {
  std::lock_guard<std::mutex> L(Mu);
  Fired.insert(Point);
  ++FireCount;
  auto It = Armed.find(Point);
  if (It != Armed.end() && It->second.Transient)
    Armed.erase(It);
}

uint64_t FaultInjector::firedCount() const {
  std::lock_guard<std::mutex> L(Mu);
  return FireCount;
}

std::set<std::string> FaultInjector::reached() const {
  std::lock_guard<std::mutex> L(Mu);
  return Reached;
}

std::set<std::string> FaultInjector::fired() const {
  std::lock_guard<std::mutex> L(Mu);
  return Fired;
}

bool FaultInjector::anyArmed() const {
  std::lock_guard<std::mutex> L(Mu);
  return !Armed.empty();
}

//===----------------------------------------------------------------------===//
// Gates: armed-fault firing
//===----------------------------------------------------------------------===//

namespace {

/// A Stall fault's wait loop: no progress until the watchdog cancels
/// the budget (or the bounded cap expires, so un-governed tests cannot
/// hang). Returns true when rescued by cancellation.
bool stallUntilCancelled(const AnalysisBudget *B) {
  const uint64_t CapMs = FaultInjector::instance().stallCapMs();
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(CapMs);
  while (std::chrono::steady_clock::now() < Deadline) {
    if (B && B->cancelled())
      return true;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return B && B->cancelled();
}

} // namespace

void BudgetGate::fire() {
  FaultInjector::instance().recordFired(Point);
  switch (Fault.Kind) {
  case FaultKind::Degrade:
    trip(std::string("fault:") + Point);
    break;
  case FaultKind::Throw:
    // Disarm locally so a catch-and-repoll caller is not re-thrown at.
    Fault.AtPoll = 0;
    Exhausted = true;
    Reason = std::string("fault:") + Point;
    throw FaultInjectedError(Point);
  case FaultKind::Stall:
    trip(stallUntilCancelled(B) ? "watchdog"
                                : std::string("fault:") + Point);
    break;
  }
}

void SharedBudgetGate::fire() {
  // First crossing wins: record + decide under the mutex, so exactly
  // one worker throws while the rest see the gate tripped.
  bool IThrow = false;
  {
    std::lock_guard<std::mutex> L(Mu);
    if (Tripped.load(std::memory_order_relaxed))
      return;
    FaultInjector::instance().recordFired(Point);
    Reason = std::string("fault:") + Point;
    if (Fault.Kind == FaultKind::Throw)
      IThrow = true;
    if (Fault.Kind != FaultKind::Stall)
      Tripped.store(true, std::memory_order_release);
  }
  switch (Fault.Kind) {
  case FaultKind::Degrade:
    break;
  case FaultKind::Throw:
    if (IThrow)
      throw FaultInjectedError(Point);
    break;
  case FaultKind::Stall: {
    bool Rescued = stallUntilCancelled(B);
    std::lock_guard<std::mutex> L(Mu);
    if (!Tripped.load(std::memory_order_relaxed)) {
      Reason = Rescued ? "watchdog" : std::string("fault:") + Point;
      Tripped.store(true, std::memory_order_release);
    }
    break;
  }
  }
}

void SharedBudgetGate::trip(std::string Why, bool RecordFault) {
  std::lock_guard<std::mutex> L(Mu);
  if (Tripped.load(std::memory_order_relaxed))
    return; // First tripper wins; the reason stays stable.
  Reason = std::move(Why);
  if (RecordFault)
    FaultInjector::instance().recordFired(Point);
  Tripped.store(true, std::memory_order_release);
}
