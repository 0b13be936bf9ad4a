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
//===----------------------------------------------------------------------===//

#include "eval/Experiments.h"
#include "eval/Workload.h"
#include "pipeline/Session.h"
#include "slicer/Slicer.h"

#include "BenchGuard.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
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
