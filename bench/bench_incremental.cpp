//===-- bench_incremental.cpp - Edit-to-slice incremental reanalysis ------------==//
//
// The tentpole claim of the incremental-reanalysis PR: after a
// one-function edit, an incremental session answers the next slice
// query >= 5x faster than a cold rebuild of the same pad-12 workload.
// The incremental path diffs the source at function granularity,
// relowers only the edited body, retracts and replays its points-to
// constraints, and rebuilds the SDG from them — the benchmark measures
// the full edit-to-slice latency either way, so artifact reuse is the
// only difference between the two configurations.
//
//   ./bench/bench_incremental
//   ./bench/bench_incremental --benchmark_out=BENCH_incremental.json
//                             --benchmark_out_format=json
//
// The edit alternates the constant in one reachable top-level helper
// (a real semantic change, not whitespace) so every iteration performs
// a genuine update; the differential tests (tests/incremental_test.cpp)
// prove both configurations produce byte-identical slices.
//
// BM_EditToSlicePad400PaddingLiteral measures the edit the repository
// benchmark's edit-slice workload makes, at its size: on a pad-400
// session, rewrite one padding method's `var acc = x + N;` literal and
// slice at that method's `return acc;`.
//
//===----------------------------------------------------------------------===//

#include "eval/Experiments.h"
#include "eval/Workload.h"
#include "pipeline/Session.h"
#include "slicer/Report.h"
#include "slicer/Slicer.h"

#include "BenchGuard.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

using namespace tsl;

namespace {

/// Same workload as bench_parallel_pipeline: the largest pad of the
/// scalability sweep, so the cold-rebuild cost being avoided is the
/// realistic one.
constexpr unsigned PAD = 12;

/// A reachable top-level helper appended to the padded program; the
/// benchmark edits its body. Top-level (not a pad method) so the edit
/// never lands inside a collapsed points-to SCC, which would take the
/// sound full-resolve fallback and measure the wrong thing.
const char *EditedHelper = "def benchTweak(n: int): int {\n"
                           "  var t = n + 1;\n"
                           "  return t;\n"
                           "}\n";

std::string workloadSource(int Variant) {
  static const std::string Base = [] {
    std::string S = padWorkload(debuggingCases().front().Prog, "BI", PAD, 6)
                        .Source;
    // Call the helper from main so it is reachable and participates
    // in the analyses.
    const std::string Needle = "def main() {\n";
    size_t Pos = S.find(Needle);
    S.insert(Pos + Needle.size(), "  print(benchTweak(readInt()));\n");
    S += EditedHelper;
    return S;
  }();
  std::string S = Base;
  if (Variant) {
    size_t Pos = S.find("var t = n + 1;");
    S.replace(Pos, 14, "var t = n + 2;"); // Same length: pure body edit.
  }
  return S;
}

const Instr *seedInMain(AnalysisSession &S) {
  // Last print in main: a stable seed that exists in both variants.
  const Instr *Seed = nullptr;
  for (const auto &M : S.program()->methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs())
        if (I->loc().Line)
          Seed = I.get();
  return Seed;
}

/// Edit-to-slice latency, incremental: the session is warm on variant
/// A; flip to variant B (one function body changed) and re-slice.
double incrementalMs(AnalysisSession &S, int &Variant) {
  Variant ^= 1;
  auto T0 = std::chrono::steady_clock::now();
  S.setSource(workloadSource(Variant));
  const SliceResult *R = S.sliceBackwardCached(seedInMain(S), SliceMode::Thin);
  benchmark::DoNotOptimize(R);
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
}

/// Edit-to-slice latency, cold: a fresh session pays every stage.
double coldMs(int &Variant) {
  Variant ^= 1;
  auto T0 = std::chrono::steady_clock::now();
  AnalysisSession S(workloadSource(Variant));
  const SliceResult *R = S.sliceBackwardCached(seedInMain(S), SliceMode::Thin);
  benchmark::DoNotOptimize(R);
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
}

void BM_EditToSliceIncremental(benchmark::State &State) {
  AnalysisSession S(workloadSource(0));
  S.setIncremental(true);
  benchmark::DoNotOptimize(
      S.sliceBackwardCached(seedInMain(S), SliceMode::Thin));
  int Variant = 0;
  for (auto _ : State)
    benchmark::DoNotOptimize(incrementalMs(S, Variant));
  const AnalysisSession::IncrementalStats &IS = S.incrementalStats();
  State.counters["fn_reused"] =
      static_cast<double>(IS.FunctionsReused) /
      std::max<uint64_t>(1, IS.Applied);
  State.counters["cold_fallbacks"] = static_cast<double>(IS.ColdFallbacks);
  State.counters["stage_fallbacks"] = static_cast<double>(IS.StageFallbacks);
}
BENCHMARK(BM_EditToSliceIncremental)->Unit(benchmark::kMillisecond);

void BM_EditToSliceCold(benchmark::State &State) {
  int Variant = 0;
  for (auto _ : State)
    benchmark::DoNotOptimize(coldMs(Variant));
}
BENCHMARK(BM_EditToSliceCold)->Unit(benchmark::kMillisecond);

/// perfbench's edit at perfbench's size: a pad-400 session; each edit
/// rewrites the literal of one padding method's `var acc = x + N;`
/// line (same line count) and slices at that method's `return acc;`.
/// Successive iterations walk the padding methods with a fresh literal
/// each, so every edit is a real one.
class PaddingLiteralEdits {
public:
  PaddingLiteralEdits()
      : Source(padWorkload(debuggingCases().front().Prog, "PB", 400, 6)
                   .Source) {
    unsigned Line = 1;
    std::size_t Scanned = 0;
    for (std::size_t Pos = Source.find(Needle, Source.find("class PadPB"));
         Pos != std::string::npos; Pos = Source.find(Needle, Pos + 1)) {
      Line += static_cast<unsigned>(std::count(
          Source.begin() + Scanned, Source.begin() + Pos, '\n'));
      Scanned = Pos;
      Sites.push_back(Pos);
      ReturnLines.push_back(Line + 8);
    }
  }

  const std::string &source() const { return Source; }

  /// Applies edit \p I to the current source; returns the line of the
  /// edited method's `return acc;`.
  unsigned next(unsigned I) {
    const std::size_t Site = (I * 7919u) % Sites.size();
    const std::size_t Pos = Sites[Site];
    const std::size_t From = Pos + Needle.size();
    const std::size_t Len = Source.find(';', From) - From;
    std::string Literal = std::to_string(1 + (I * 104729u) % 9999);
    if (Source.compare(From, Len, Literal) == 0)
      Literal = std::to_string(10000 + I);
    const long Delta =
        static_cast<long>(Literal.size()) - static_cast<long>(Len);
    Source.replace(From, Len, Literal);
    for (std::size_t &S : Sites)
      if (S > Pos)
        S = static_cast<std::size_t>(static_cast<long>(S) + Delta);
    return ReturnLines[Site];
  }

private:
  static constexpr std::string_view Needle = "    var acc = x + ";
  std::string Source;
  std::vector<std::size_t> Sites; ///< Byte offset of each literal line.
  std::vector<unsigned> ReturnLines; ///< Its method's `return acc;`.
};

void BM_EditToSlicePad400PaddingLiteral(benchmark::State &State) {
  PaddingLiteralEdits Edits;
  AnalysisSession S{std::string(Edits.source())};
  S.setIncremental(true);
  benchmark::DoNotOptimize(S.sdg());
  const uint64_t ColdShapes = S.sdgShapes().derived();
  unsigned I = 0;
  for (auto _ : State) {
    const unsigned Line = Edits.next(I++);
    S.setSource(Edits.source());
    const Instr *Seed = seedAtLine(*S.program(), Line);
    const SliceResult *R = S.sliceBackwardCached(Seed, SliceMode::Thin);
    benchmark::DoNotOptimize(R);
  }
  const AnalysisSession::IncrementalStats &IS = S.incrementalStats();
  State.counters["cold_fallbacks"] = static_cast<double>(IS.ColdFallbacks);
  State.counters["stage_fallbacks"] = static_cast<double>(IS.StageFallbacks);
  // SDG method shapes each rebuild derived: 1 when every body the edit
  // left alone kept its shape.
  State.counters["shapes_derived_per_edit"] =
      static_cast<double>(S.sdgShapes().derived() - ColdShapes) /
      static_cast<double>(I ? I : 1);
}
BENCHMARK(BM_EditToSlicePad400PaddingLiteral)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(30);

} // namespace

int main(int argc, char **argv) {
  printf("=== Incremental reanalysis: edit-to-slice ===\n\n");

  // Median-of-7 head-to-head, one warm-up each (cold sessions are
  // noisy; the incremental path is fast enough that scheduler jitter
  // matters).
  int ColdVariant = 0;
  (void)coldMs(ColdVariant);
  std::vector<double> Cold;
  for (int I = 0; I != 7; ++I)
    Cold.push_back(coldMs(ColdVariant));
  std::sort(Cold.begin(), Cold.end());

  AnalysisSession S(workloadSource(0));
  S.setIncremental(true);
  benchmark::DoNotOptimize(
      S.sliceBackwardCached(seedInMain(S), SliceMode::Thin));
  int IncVariant = 0;
  (void)incrementalMs(S, IncVariant);
  std::vector<double> Inc;
  for (int I = 0; I != 7; ++I)
    Inc.push_back(incrementalMs(S, IncVariant));
  std::sort(Inc.begin(), Inc.end());

  const double ColdMed = Cold[Cold.size() / 2];
  const double IncMed = Inc[Inc.size() / 2];
  const double Speedup = IncMed > 0 ? ColdMed / IncMed : 0;
  const AnalysisSession::IncrementalStats &IS = S.incrementalStats();
  printf("workload: nanoxml pad %u, one-function body edit\n", PAD);
  printf("cold rebuild:        %8.3f ms edit-to-slice\n", ColdMed);
  printf("incremental session: %8.3f ms edit-to-slice\n", IncMed);
  printf("speedup: %.2fx %s\n", Speedup,
         Speedup >= 5.0 ? "(>= 5x target met)" : "(below 5x target!)");
  printf("reuse: %llu updates applied, %llu cold fallbacks, "
         "%llu stage fallbacks\n%s\n",
         static_cast<unsigned long long>(IS.Applied),
         static_cast<unsigned long long>(IS.ColdFallbacks),
         static_cast<unsigned long long>(IS.StageFallbacks),
         S.statsString().c_str());

  if (!guardBenchmarkBaseline(argc, argv))
    return 2;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
