//===-- bench_snapshot.cpp - Cross-process warm start vs cold build -------------==//
//
// The tentpole claim of the snapshot PR: a process that warm-starts
// from an on-disk snapshot answers its first slice query >= 5x faster
// than a process that rebuilds the pad-12 workload cold. Both
// configurations pay session construction and the slice itself; the
// warm path pays deserialization (decode-by-replay of the program and
// the SDG, the only sections a snapshot holds) instead of the
// compile/PTA/SDG pipeline.
//
//   ./bench/bench_snapshot
//   ./bench/bench_snapshot --benchmark_out=BENCH_snapshot.json
//                          --benchmark_out_format=json
//
// The differential tests (tests/snapshot_test.cpp) prove both
// configurations produce byte-identical slices; this benchmark only
// measures the latency gap.
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
#include <filesystem>
#include <string>
#include <vector>

using namespace tsl;

namespace {

/// Same workload as bench_incremental: the largest pad of the
/// scalability sweep, so the cold build being avoided is the
/// realistic one.
constexpr unsigned PAD = 12;

const std::string &workloadSource() {
  static const std::string Source =
      padWorkload(debuggingCases().front().Prog, "BS", PAD, 6).Source;
  return Source;
}

std::string snapshotPath() {
  return (std::filesystem::temp_directory_path() / "bench_snapshot.tslsnap")
      .string();
}

const Instr *lastSeed(AnalysisSession &S) {
  const Instr *Seed = nullptr;
  for (const auto &M : S.program()->methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs())
        if (I->loc().Line)
          Seed = I.get();
  return Seed;
}

/// First-query latency, cold: a fresh process compiles and analyzes
/// everything.
double coldMs() {
  auto T0 = std::chrono::steady_clock::now();
  AnalysisSession S(workloadSource());
  const SliceResult *R = S.sliceBackwardCached(lastSeed(S), SliceMode::Thin);
  benchmark::DoNotOptimize(R);
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
}

/// First-query latency, warm: a fresh process loads the snapshot and
/// slices against the decoded artifacts. \p LoadPartMs reports the
/// deserialization share of the total.
double warmMs(bool &LoadOk, double *LoadPartMs = nullptr) {
  auto T0 = std::chrono::steady_clock::now();
  AnalysisSession S(workloadSource());
  LoadOk = S.loadSnapshot(snapshotPath()).isOk();
  auto TLoad = std::chrono::steady_clock::now();
  const SliceResult *R = S.sliceBackwardCached(lastSeed(S), SliceMode::Thin);
  benchmark::DoNotOptimize(R);
  auto T1 = std::chrono::steady_clock::now();
  if (LoadPartMs)
    *LoadPartMs = std::chrono::duration<double, std::milli>(TLoad - T0).count();
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
}

void BM_WarmStartSlice(benchmark::State &State) {
  bool LoadOk = true, AllOk = true;
  for (auto _ : State) {
    benchmark::DoNotOptimize(warmMs(LoadOk));
    AllOk = AllOk && LoadOk;
  }
  State.counters["load_ok"] = AllOk ? 1 : 0;
}
BENCHMARK(BM_WarmStartSlice)->Unit(benchmark::kMillisecond);

void BM_ColdBuildSlice(benchmark::State &State) {
  for (auto _ : State)
    benchmark::DoNotOptimize(coldMs());
}
BENCHMARK(BM_ColdBuildSlice)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  printf("=== Persistent snapshots: warm start vs cold build ===\n\n");

  // Write the snapshot the warm configuration loads.
  {
    AnalysisSession Saver(workloadSource());
    Status St = Saver.saveSnapshot(snapshotPath());
    if (!St.isOk()) {
      fprintf(stderr, "error: cannot save snapshot: %s\n", St.str().c_str());
      return 1;
    }
  }

  // Min-of-32 head-to-head, one warm-up each: min (not median)
  // because both paths do fixed work and the noise is one-sided
  // scheduler jitter — on a shared 1-core box even the min of a
  // small sample wobbles, so the sample is deliberately generous.
  (void)coldMs();
  std::vector<double> Cold;
  for (int I = 0; I != 32; ++I)
    Cold.push_back(coldMs());

  bool LoadOk = false, AllOk = true;
  (void)warmMs(LoadOk);
  AllOk = LoadOk;
  std::vector<double> Warm, WarmLoad;
  for (int I = 0; I != 32; ++I) {
    double LoadPart = 0;
    Warm.push_back(warmMs(LoadOk, &LoadPart));
    WarmLoad.push_back(LoadPart);
    AllOk = AllOk && LoadOk;
  }
  if (!AllOk) {
    fprintf(stderr, "error: a snapshot load fell back to a cold rebuild\n");
    return 1;
  }

  const double ColdMin = *std::min_element(Cold.begin(), Cold.end());
  const double WarmMin = *std::min_element(Warm.begin(), Warm.end());
  const double Speedup = WarmMin > 0 ? ColdMin / WarmMin : 0;
  const auto Size = std::filesystem::file_size(snapshotPath());
  printf("workload: nanoxml pad %u, first slice query per process\n", PAD);
  printf("cold build:  %8.3f ms build-to-slice\n", ColdMin);
  printf("warm start:  %8.3f ms load-to-slice (%llu-byte snapshot, "
         "%.3f ms deserialization)\n",
         WarmMin, static_cast<unsigned long long>(Size),
         *std::min_element(WarmLoad.begin(), WarmLoad.end()));
  printf("speedup: %.2fx %s\n\n", Speedup,
         Speedup >= 5.0 ? "(>= 5x target met)" : "(below 5x target!)");

  if (!guardBenchmarkBaseline(argc, argv))
    return 2;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::filesystem::remove(snapshotPath());
  return 0;
}
