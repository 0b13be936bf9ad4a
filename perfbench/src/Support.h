//===-- Support.h - Shared machinery of the repository benchmark -*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the three workloads share: the seeded subject program
/// and its edit stream, the in-memory span recorder of the traced run,
/// the reference slicer behind every correctness check, an in-process
/// thinsliced daemon, and the result record each run prints.
///
/// Nothing here reaches into the library's internals: spans wrap calls
/// into the layers' public functions from the outside, so the library
/// is measured exactly as it ships.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SUPPORT_H
#define PERFBENCH_SUPPORT_H

#include "service/Client.h"
#include "service/Server.h"
#include "slicer/Slicer.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point A) {
  return std::chrono::duration<double, std::milli>(Clock::now() - A).count();
}

/// Linearly interpolated quantile (0 <= Q <= 1) of \p V; 0 when empty.
double quantile(std::vector<double> V, double Q);
inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// splitmix64: a tiny seeded generator, identical on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t next();
  unsigned below(unsigned N) { return static_cast<unsigned>(next() % N); }

private:
  uint64_t S;
};

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

/// State directory under the checkout: snapshots, sockets, traces,
/// deterministic-count records. Relative, so socket paths stay short.
inline const std::string StateDir = ".perfbench";

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string CodeDigest = "unknown";
  std::string Commit = "unknown";
  /// Where the full run record (environment, samples, metrics) goes.
  std::string RecordDir = ".perfbench/runs";
};

//===----------------------------------------------------------------------===//
// Tracing: spans in memory, written as Chrome trace-event JSON at exit
//===----------------------------------------------------------------------===//

class Tracer {
public:
  /// Switch between phases only, never with a span open.
  void setOn(bool V) { On.store(V); }
  bool on() const { return On.load(); }

  /// Opens a span under the calling thread's innermost open span.
  std::size_t begin(const char *Name, uint64_t Req);
  /// Closes the span and returns its duration in ms.
  double end(std::size_t Id);

  /// Durations (ms) of every span named \p Name.
  std::vector<double> durationsMs(const std::string &Name) const;
  /// Per span named \p Root: the summed durations of its direct
  /// children (the attributed part of the root's time).
  std::vector<double> childSumsMs(const std::string &Root) const;

  bool writeChromeTrace(const std::string &Path) const;

private:
  struct Rec {
    const char *Name;
    double StartUs = 0;
    double EndUs = -1;
    long Parent = -1;
    uint64_t Req = 0;
    unsigned Tid = 0;
  };
  std::atomic<bool> On{false};
  const Clock::time_point T0 = Clock::now();
  mutable std::mutex Mu;
  std::vector<Rec> Spans;
};

/// The process-wide recorder (off unless --trace 1).
Tracer &tracer();

/// RAII span; free when tracing is off. \p Name must be a literal.
class Span {
public:
  explicit Span(const char *Name, uint64_t Req = 0);
  ~Span() { close(); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  /// Ends the span early; returns its duration (ms, 0 when off).
  double close();

private:
  std::size_t Id = ~std::size_t(0);
};

//===----------------------------------------------------------------------===//
// The run's result
//===----------------------------------------------------------------------===//

struct Result {
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
    std::size_t Samples;
  };
  std::vector<Metric> Metrics;
  /// Raw samples behind the end-to-end metrics, kept for the record.
  std::map<std::string, std::vector<double>> SampleSets;
  /// Work counters that must repeat exactly for a seed.
  std::map<std::string, double> Counts;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// RETRY answers seen by the clients (each also counts as failed).
  uint64_t Retries = 0;
  /// Correctness mismatches and nondeterminism; any entry makes the
  /// run incorrect.
  std::vector<std::string> Problems;
  /// Facts worth a line in the human-readable output and the record.
  std::vector<std::pair<std::string, std::string>> Notes;

  void metric(const std::string &Name, double Value, const std::string &Unit,
              std::size_t Samples = 1) {
    Metrics.push_back({Name, Value, Unit, Samples});
  }
  /// Records counter \p Name; a different value than an earlier record
  /// in the same run is nondeterminism.
  void count(const std::string &Name, double Value);
  /// A wrong answer: counts as a failed operation and fails the run.
  void mismatch(const std::string &What) {
    ++Failed;
    Problems.push_back(What);
  }
};

/// Peak resident set size of the process so far.
double peakRssMb();
/// Returns memory freed by a torn-down set-up to the system, so the
/// next repetition's peak does not stack on the last one's leftovers.
void releaseFreedMemory();

//===----------------------------------------------------------------------===//
// The subject program and its seeded inputs
//===----------------------------------------------------------------------===//

/// One `var acc = x + N;` literal in a padding method: what an edit
/// rewrites. Lines are absolute (runtime prefix included).
struct EditSite {
  unsigned Line;       ///< The literal's line.
  unsigned SliceLine;  ///< The method's `return acc;` line.
};

struct Subject {
  std::string CaseId;
  unsigned Pad = 0;
  std::string Source;
  unsigned LineOffset = 0; ///< Runtime-library lines before the user file.
  unsigned SeedLine = 0;   ///< Absolute line of the bug case's seed marker.
  std::vector<unsigned> StmtLines; ///< Absolute user lines with a statement.
  std::vector<EditSite> Sites;

  unsigned userLine(unsigned Abs) const { return Abs - LineOffset; }
};

/// padWorkload(debuggingCases()[k].Prog, "PB", Pad, 6) with k chosen by
/// \p Seed. Compiles once to find the statement lines.
Subject makeSubject(uint64_t Seed, unsigned Pad);

/// \p N seeded statement lines (absolute), drawn with replacement.
std::vector<unsigned> drawLines(const Subject &S, Rng &R, unsigned N);

/// The seeded edit stream: each edit rewrites one padding literal to a
/// new value, keeping the line count.
class EditStream {
public:
  EditStream(const Subject &S, uint64_t Seed);
  /// Applies the next edit; returns the new source. \p SliceLine gets
  /// the edited method's `return acc;` line (absolute).
  std::string next(unsigned &SliceLine);
  const std::string &source() const { return Current; }

private:
  const Subject &S;
  Rng R;
  std::vector<std::string> Lines;
  std::string Current;
};

//===----------------------------------------------------------------------===//
// Answers and their references
//===----------------------------------------------------------------------===//

/// The reference backward slice: a plain BFS over SDG::inEdges,
/// following exactly the edge kinds sliceFollowsEdge admits, from every
/// clone of \p Seed.
tsl::BitSet referenceSlice(const tsl::SDG &G, const tsl::Instr *Seed,
                           tsl::SliceMode Mode);

/// 64-bit FNV-1a of \p S.
uint64_t digest(const std::string &S);

/// The daemon's Slice body for a slice of the statement at \p AbsLine.
std::string renderAnswer(const tsl::SliceResult &R, const Subject &S,
                         unsigned AbsLine, tsl::SliceMode Mode);

/// The reference answer on \p G: referenceSlice rendered like the
/// daemon renders it. Empty when no statement is at \p AbsLine.
std::string referenceAnswer(const tsl::SDG &G, const Subject &S,
                            unsigned AbsLine, tsl::SliceMode Mode);

//===----------------------------------------------------------------------===//
// An in-process thinsliced daemon on a real Unix socket
//===----------------------------------------------------------------------===//

class Daemon {
public:
  /// Listens on \p SocketPath (relative to the working directory, so
  /// the path stays short) and serves on a background thread.
  explicit Daemon(std::string SocketPath);
  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  const std::string &path() const { return Path; }

private:
  std::string Path;
  std::unique_ptr<tsl::SliceServer> Server;
  std::thread Loop;
};

/// Connects \p C to \p D and loads \p Source (LineOffset and incremental
/// flag as given); returns the session id, or empty on failure.
std::string connectAndLoad(tsl::ServiceClient &C, const Daemon &D,
                           const Subject &S, const std::string &Source,
                           bool Incremental);

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

/// Prints the human-readable summary, the environment record, and the
/// final one-line JSON result; writes the run record and (traced runs)
/// the Chrome trace; checks the deterministic counts against earlier
/// runs of the same seed. Returns the process exit code.
int finish(const Options &O, const Subject &S, Result &R);

} // namespace pb

#endif // PERFBENCH_SUPPORT_H
