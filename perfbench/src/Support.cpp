//===-- Support.cpp - Shared machinery of the repository benchmark -------===//

#include "Support.h"

#include "eval/Experiments.h"
#include "eval/Runtime.h"
#include "eval/Workload.h"
#include "lang/Lower.h"
#include "slicer/Report.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

using namespace tsl;

namespace pb {

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(std::floor(Pos));
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

uint64_t Rng::next() {
  uint64_t Z = (S += 0x9E3779B97F4A7C15ull);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

namespace {
thread_local std::vector<std::size_t> OpenSpans;
std::atomic<unsigned> NextTid{1};
thread_local unsigned ThisTid = 0;
} // namespace

Tracer &tracer() {
  static Tracer T;
  return T;
}

std::size_t Tracer::begin(const char *Name, uint64_t Req) {
  if (!ThisTid)
    ThisTid = NextTid.fetch_add(1);
  double Now = std::chrono::duration<double, std::micro>(Clock::now() - T0)
                   .count();
  std::lock_guard<std::mutex> L(Mu);
  Rec R;
  R.Name = Name;
  R.StartUs = Now;
  R.Parent = OpenSpans.empty() ? -1 : static_cast<long>(OpenSpans.back());
  R.Req = Req;
  R.Tid = ThisTid;
  Spans.push_back(R);
  OpenSpans.push_back(Spans.size() - 1);
  return Spans.size() - 1;
}

double Tracer::end(std::size_t Id) {
  double Now = std::chrono::duration<double, std::micro>(Clock::now() - T0)
                   .count();
  if (!OpenSpans.empty() && OpenSpans.back() == Id)
    OpenSpans.pop_back();
  std::lock_guard<std::mutex> L(Mu);
  Spans[Id].EndUs = Now;
  return (Now - Spans[Id].StartUs) / 1000.0;
}

std::vector<double> Tracer::durationsMs(const std::string &Name) const {
  std::lock_guard<std::mutex> L(Mu);
  std::vector<double> Out;
  for (const Rec &R : Spans)
    if (R.EndUs >= 0 && Name == R.Name)
      Out.push_back((R.EndUs - R.StartUs) / 1000.0);
  return Out;
}

std::vector<double> Tracer::childSumsMs(const std::string &Root) const {
  std::lock_guard<std::mutex> L(Mu);
  std::vector<double> Sum(Spans.size(), 0.0);
  for (const Rec &R : Spans)
    if (R.Parent >= 0 && R.EndUs >= 0)
      Sum[static_cast<std::size_t>(R.Parent)] += (R.EndUs - R.StartUs) / 1000.0;
  std::vector<double> Out;
  for (std::size_t I = 0; I != Spans.size(); ++I)
    if (Spans[I].EndUs >= 0 && Root == Spans[I].Name)
      Out.push_back(Sum[I]);
  return Out;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::lock_guard<std::mutex> L(Mu);
  std::ofstream F(Path);
  if (!F)
    return false;
  F << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char Buf[512];
  for (std::size_t I = 0; I != Spans.size(); ++I) {
    const Rec &R = Spans[I];
    if (R.EndUs < 0)
      continue;
    std::string Name = R.Name;
    std::string Cat = Name.substr(0, Name.find('.'));
    snprintf(Buf, sizeof(Buf),
             "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
             "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"id\":%zu,"
             "\"parent\":%ld,\"req\":%llu}}",
             I ? ",\n" : "", Name.c_str(), Cat.c_str(), R.StartUs,
             R.EndUs - R.StartUs, R.Tid, I, R.Parent,
             static_cast<unsigned long long>(R.Req));
    F << Buf;
  }
  F << "\n]}\n";
  return static_cast<bool>(F);
}

Span::Span(const char *Name, uint64_t Req) {
  if (tracer().on())
    Id = tracer().begin(Name, Req);
}

double Span::close() {
  if (Id == ~std::size_t(0))
    return 0;
  double Ms = tracer().end(Id);
  Id = ~std::size_t(0);
  return Ms;
}

//===----------------------------------------------------------------------===//
// Result
//===----------------------------------------------------------------------===//

void Result::count(const std::string &Name, double Value) {
  auto [It, Fresh] = Counts.emplace(Name, Value);
  if (!Fresh && It->second != Value) {
    char Buf[256];
    snprintf(Buf, sizeof(Buf),
             "nondeterminism: %s was %.17g, then %.17g within one run",
             Name.c_str(), It->second, Value);
    Problems.push_back(Buf);
  }
}

void releaseFreedMemory() { malloc_trim(0); }

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

//===----------------------------------------------------------------------===//
// Subject program
//===----------------------------------------------------------------------===//

Subject makeSubject(uint64_t Seed, unsigned Pad) {
  std::vector<BugCase> Cases = debuggingCases();
  Rng R(Seed);
  const BugCase &C = Cases[R.below(static_cast<unsigned>(Cases.size()))];
  WorkloadProgram W = padWorkload(C.Prog, "PB", Pad, 6);
  if (W.Name == C.Prog.Name)
    throw std::runtime_error("case " + C.Id + " has no main() to pad");

  Subject S;
  S.CaseId = C.Id;
  S.Pad = Pad;
  S.Source = W.Source;
  S.LineOffset = runtimeLibraryLines();
  S.SeedLine = W.markerLine(C.SeedMarker);

  DiagnosticEngine Diag;
  std::unique_ptr<Program> P = compileThinJ(S.Source, Diag);
  if (!P)
    throw std::runtime_error("subject program does not compile");
  if (!seedAtLine(*P, S.SeedLine))
    throw std::runtime_error("no statement at the seed marker of " + C.Id);
  // Any instruction on a line makes seedAtLine answer for it.
  std::set<unsigned> Lines;
  for (const auto &M : P->methods())
    for (const Instr *I : M->instrs())
      if (I->loc().Line > S.LineOffset)
        Lines.insert(I->loc().Line);
  S.StmtLines.assign(Lines.begin(), Lines.end());

  // Padding methods read `def workM(x: int): int {` then the literal
  // line; `return acc;` closes the body eight lines further down.
  std::vector<std::string> Text;
  std::istringstream In(S.Source);
  for (std::string L; std::getline(In, L);)
    Text.push_back(L);
  bool InPad = false;
  for (std::size_t I = 0; I + 9 < Text.size(); ++I) {
    if (Text[I].rfind("class PadPB", 0) == 0)
      InPad = true;
    if (InPad && Text[I].rfind("  def work", 0) == 0 &&
        Text[I + 1].rfind("    var acc = x + ", 0) == 0 &&
        Text[I + 9] == "    return acc;")
      S.Sites.push_back({static_cast<unsigned>(I + 2),
                         static_cast<unsigned>(I + 10)});
  }
  if (S.Sites.empty() || S.StmtLines.empty())
    throw std::runtime_error("subject program has no edit sites");
  return S;
}

std::vector<unsigned> drawLines(const Subject &S, Rng &R, unsigned N) {
  std::vector<unsigned> Out;
  Out.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    Out.push_back(
        S.StmtLines[R.below(static_cast<unsigned>(S.StmtLines.size()))]);
  return Out;
}

EditStream::EditStream(const Subject &S, uint64_t Seed)
    : S(S), R(Seed ^ 0xED17ull), Current(S.Source) {
  std::istringstream In(S.Source);
  for (std::string L; std::getline(In, L);)
    Lines.push_back(L);
}

std::string EditStream::next(unsigned &SliceLine) {
  const EditSite &E =
      S.Sites[R.below(static_cast<unsigned>(S.Sites.size()))];
  std::string &L = Lines[E.Line - 1];
  std::string New;
  do
    New = "    var acc = x + " + std::to_string(1 + R.below(9999)) + ";";
  while (New == L);
  L = New;
  SliceLine = E.SliceLine;
  Current.clear();
  for (const std::string &Line : Lines) {
    Current += Line;
    Current += '\n';
  }
  return Current;
}

//===----------------------------------------------------------------------===//
// Reference answers
//===----------------------------------------------------------------------===//

BitSet referenceSlice(const SDG &G, const Instr *Seed, SliceMode Mode) {
  BitSet Seen(G.numNodes());
  std::vector<unsigned> Work;
  for (unsigned N : G.nodesFor(Seed))
    if (Seen.insert(N))
      Work.push_back(N);
  while (!Work.empty()) {
    unsigned N = Work.back();
    Work.pop_back();
    for (unsigned E : G.inEdges(N)) {
      const SDGEdge &Edge = G.edge(E);
      if (sliceFollowsEdge(Mode, Edge.K) && Seen.insert(Edge.From))
        Work.push_back(Edge.From);
    }
  }
  return Seen;
}

uint64_t digest(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S)
    H = (H ^ C) * 1099511628211ull;
  return H;
}

std::string renderAnswer(const SliceResult &R, const Subject &S,
                         unsigned AbsLine, SliceMode Mode) {
  return renderSliceReport(R, sliceKindName(Mode, false), S.userLine(AbsLine),
                           S.LineOffset);
}

std::string referenceAnswer(const SDG &G, const Subject &S, unsigned AbsLine,
                            SliceMode Mode) {
  const Instr *Seed = seedAtLine(G.program(), AbsLine);
  if (!Seed)
    return "";
  SliceResult R(&G, referenceSlice(G, Seed, Mode));
  return renderAnswer(R, S, AbsLine, Mode);
}

//===----------------------------------------------------------------------===//
// Daemon
//===----------------------------------------------------------------------===//

Daemon::Daemon(std::string SocketPath) : Path(std::move(SocketPath)) {
  ServerOptions SO;
  SO.SocketPath = Path;
  SO.Threads = 0;
  SO.AnalysisThreads = 1;
  Server = std::make_unique<SliceServer>(SO);
  Status St = Server->listen();
  if (!St.isOk())
    throw std::runtime_error("daemon listen: " + St.str());
  Loop = std::thread([this] { Server->run(); });
}

Daemon::~Daemon() {
  Server->requestShutdown();
  Loop.join();
}

std::string connectAndLoad(ServiceClient &C, const Daemon &D,
                           const Subject &S, const std::string &Source,
                           bool Incremental) {
  ServiceResponse Resp;
  if (!C.connect(D.path()).isOk() ||
      !C.loadSource(Source, false, S.LineOffset, Incremental, Resp).isOk() ||
      Resp.Code != ServiceStatus::Ok)
    return "";
  return Resp.Body;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

namespace {

std::string jsonStr(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string jsonNum(double V) {
  if (!std::isfinite(V))
    V = -1;
  char Buf[64];
  snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string envJson(const Options &O, const Subject &S) {
  std::string E = "{";
  E += "\"workload\":" + jsonStr(O.Workload);
  E += ",\"seed\":" + std::to_string(O.Seed);
  E += ",\"seconds\":" + jsonNum(O.Seconds);
  E += ",\"trace\":" + std::to_string(O.Trace ? 1 : 0);
  E += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  E += ",\"build_type\":" + jsonStr(PERFBENCH_BUILD_TYPE);
  E += ",\"compiler\":" + jsonStr(std::string("gcc-compatible ") + __VERSION__);
  E += ",\"commit\":" + jsonStr(O.Commit);
  E += ",\"code_digest\":" + jsonStr(O.CodeDigest);
  E += ",\"case\":" + jsonStr(S.CaseId);
  E += ",\"pad\":" + std::to_string(S.Pad);
  E += "}";
  return E;
}

/// Compares this run's counts with the first traced run of the same
/// seed on the same code, recording them when none exists yet.
void checkCountsAcrossRuns(const Options &O, Result &R) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::path(StateDir) / "counts";
  fs::create_directories(Dir);
  fs::path F = Dir / (O.Workload + "-s" + std::to_string(O.Seed) + "-" +
                      O.CodeDigest.substr(0, 16) + ".txt");
  std::map<std::string, double> Before;
  {
    std::ifstream In(F);
    std::string Name;
    double V;
    while (In >> Name >> V)
      Before[Name] = V;
  }
  if (Before.empty()) {
    std::ofstream Out(F);
    for (const auto &[Name, V] : R.Counts)
      Out << Name << ' ' << jsonNum(V) << '\n';
    return;
  }
  for (const auto &[Name, V] : R.Counts) {
    auto It = Before.find(Name);
    if (It != Before.end() && It->second != V)
      R.Problems.push_back("nondeterminism: " + Name + " was " +
                           jsonNum(It->second) + " in an earlier run of seed " +
                           std::to_string(O.Seed) + ", now " + jsonNum(V));
  }
}

std::string sampleSummary(const std::vector<double> &V) {
  std::string S = "{\"n\":" + std::to_string(V.size());
  for (auto [Name, Q] : {std::pair<const char *, double>{"min", 0.0},
                         {"p25", 0.25},
                         {"p50", 0.5},
                         {"p75", 0.75},
                         {"p90", 0.9},
                         {"p99", 0.99},
                         {"max", 1.0}})
    S += std::string(",\"") + Name + "\":" + jsonNum(quantile(V, Q));
  return S + "}";
}

} // namespace

int finish(const Options &O, const Subject &S, Result &R) {
  namespace fs = std::filesystem;
  if (O.Trace) {
    checkCountsAcrossRuns(O, R);
    fs::create_directories(fs::path(StateDir) / "traces");
    std::string TracePath = (fs::path(StateDir) / "traces" /
                             (O.Workload + "-s" + std::to_string(O.Seed) +
                              ".trace.json"))
                                .string();
    if (tracer().writeChromeTrace(TracePath))
      R.Notes.push_back({"trace_file", TracePath});
  }
  bool Correct = R.Problems.empty();

  printf("perfbench %s seed=%llu trace=%d case=%s pad=%u\n",
         O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
         O.Trace ? 1 : 0, S.CaseId.c_str(), S.Pad);
  for (const Result::Metric &M : R.Metrics)
    printf("  %-28s %14.4f %-6s (n=%zu)\n", M.Name.c_str(), M.Value,
           M.Unit.c_str(), M.Samples);
  for (const auto &[K, V] : R.Notes)
    printf("  note %s: %s\n", K.c_str(), V.c_str());
  for (const std::string &P : R.Problems)
    printf("  PROBLEM %s\n", P.c_str());
  printf("  verdict: %s (%llu attempted, %llu failed)\n",
         Correct ? "correct" : "INCORRECT",
         static_cast<unsigned long long>(R.Attempted),
         static_cast<unsigned long long>(R.Failed));
  std::string Env = envJson(O, S);
  printf("env: %s\n", Env.c_str());

  std::string Metrics = "{";
  for (std::size_t I = 0; I != R.Metrics.size(); ++I) {
    const Result::Metric &M = R.Metrics[I];
    Metrics += (I ? ", " : "") + jsonStr(M.Name) + ": {\"value\": " +
               jsonNum(M.Value) + ", \"unit\": " + jsonStr(M.Unit) + "}";
  }
  Metrics += "}";
  std::string Line = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(R.Attempted) +
                     ", \"failed\": " + std::to_string(R.Failed) +
                     ", \"metrics\": " + Metrics + "}";

  // The full record: environment, samples behind each metric, counts.
  std::error_code EC;
  fs::create_directories(O.RecordDir, EC);
  std::string Rec = "{\"env\":" + Env + ",\"result\":" + Line;
  Rec += ",\"samples\":{";
  bool First = true;
  for (const auto &[Name, V] : R.SampleSets) {
    Rec += (First ? "" : ",") + jsonStr(Name) + ":" + sampleSummary(V);
    First = false;
  }
  Rec += "},\"counts\":{";
  First = true;
  for (const auto &[Name, V] : R.Counts) {
    Rec += (First ? "" : ",") + jsonStr(Name) + ":" + jsonNum(V);
    First = false;
  }
  Rec += "},\"notes\":{";
  First = true;
  for (const auto &[K, V] : R.Notes) {
    Rec += (First ? "" : ",") + jsonStr(K) + ":" + jsonStr(V);
    First = false;
  }
  Rec += "},\"problems\":[";
  for (std::size_t I = 0; I != R.Problems.size(); ++I)
    Rec += (I ? "," : "") + jsonStr(R.Problems[I]);
  Rec += "]}\n";
  std::ofstream(fs::path(O.RecordDir) /
                (O.Workload + "-s" + std::to_string(O.Seed) + "-t" +
                 (O.Trace ? "1" : "0") + "-" +
                 std::to_string(std::time(nullptr)) + "-" +
                 std::to_string(getpid()) + ".json"))
      << Rec;

  printf("%s\n", Line.c_str());
  fflush(stdout);
  return 0;
}

} // namespace pb
