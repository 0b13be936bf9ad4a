//===-- bench_parallel_pipeline.cpp - End-to-end parallel pipeline --------------==//
//
// The whole analysis pipeline — compile, points-to, mod-ref, SDG
// construction, and a 100-seed slice batch — at `--threads 1` versus
// `--threads 4`. Only the engine's batch fan-out uses the pool; the
// analyses and the SDG build run sequentially, so BM_SdgBuild is
// measured at one thread count. Every artifact is byte-identical
// across thread counts (tests/parallel_test.cpp), so the
// configurations do the same work.
//
//   ./bench/bench_parallel_pipeline
//   ./bench/bench_parallel_pipeline --benchmark_out=BENCH_parallel_pipeline.json
//                                   --benchmark_out_format=json
//
// Honesty note: the speedup is bounded by the host's core count
// (reported as num_cpus in the JSON context and as a counter). On a
// single-core host the 4-thread number demonstrates that the pool
// does not regress, not that it speeds up — the summary line below
// says which.
//
//===----------------------------------------------------------------------===//

#include "eval/Experiments.h"
#include "eval/Workload.h"
#include "pipeline/Session.h"
#include "slicer/Engine.h"
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

/// Largest pad size of the scalability sweep (bench_scalability).
constexpr unsigned PAD = 12;
constexpr unsigned NUM_SEEDS = 100;

const std::string &workloadSource() {
  static const std::string Source =
      padWorkload(debuggingCases().front().Prog, "PP", PAD, 6).Source;
  return Source;
}

/// One cold end-to-end pipeline run at \p Threads: everything a
/// `thinslice --threads N` invocation pays after argv parsing.
double pipelineMs(unsigned Threads) {
  auto T0 = std::chrono::steady_clock::now();
  AnalysisSession S(workloadSource());
  S.setThreads(Threads);
  SliceEngine *E = S.engine();
  std::vector<const Instr *> Seeds =
      collectSliceSeeds(*S.program(), NUM_SEEDS);
  BatchOptions BO;
  BO.Jobs = Threads;
  auto R = E->sliceBackwardBatch(Seeds, BO);
  benchmark::DoNotOptimize(R);
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
}

/// Arg = thread count. Each iteration is a cold session: the pipeline
/// stages all rerun, nothing is served from a warm cache.
void BM_PipelineEndToEnd(benchmark::State &State) {
  const unsigned Threads = static_cast<unsigned>(State.range(0));
  for (auto _ : State)
    benchmark::DoNotOptimize(pipelineMs(Threads));
  // Named req_threads: plain "threads" collides with the harness's
  // own per-benchmark threads field and yields a duplicate JSON key.
  State.counters["req_threads"] = Threads;
  State.counters["num_cpus"] =
      static_cast<double>(std::thread::hardware_concurrency());
  State.counters["seeds"] = NUM_SEEDS;
}
BENCHMARK(BM_PipelineEndToEnd)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// The SDG-build share alone (points-to and mod-ref held warm).
void BM_SdgBuild(benchmark::State &State) {
  const unsigned Threads = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    State.PauseTiming();
    AnalysisSession S(workloadSource());
    S.setThreads(Threads);
    benchmark::DoNotOptimize(S.modRef()); // warm everything up to the SDG
    State.ResumeTiming();
    benchmark::DoNotOptimize(S.sdg());
  }
  State.counters["req_threads"] = Threads;
}
BENCHMARK(BM_SdgBuild)->Arg(1)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  printf("=== Parallel analysis pipeline: end-to-end ===\n\n");

  const unsigned Cpus = std::thread::hardware_concurrency();
  // One warm-up to pull the workload source and any lazy statics out
  // of the measurement, then a median-of-5 head-to-head (single cold
  // runs are too noisy to headline).
  (void)pipelineMs(1);
  auto Median = [](unsigned Threads) {
    std::vector<double> Ms;
    for (int I = 0; I != 5; ++I)
      Ms.push_back(pipelineMs(Threads));
    std::sort(Ms.begin(), Ms.end());
    return Ms[Ms.size() / 2];
  };
  const double Seq = Median(1);
  const double Par = Median(4);
  const double Speedup = Par > 0 ? Seq / Par : 0;
  printf("workload: nanoxml pad %u, %u seeds, host cpus %u\n", PAD, NUM_SEEDS,
         Cpus);
  printf("--threads 1: %8.3f ms end-to-end\n", Seq);
  printf("--threads 4: %8.3f ms end-to-end\n", Par);
  printf("speedup: %.2fx %s\n\n", Speedup,
         Speedup >= 2.0      ? "(>= 2x target met)"
         : Cpus < 2          ? "(below 2x target -- single-core host, "
                               "threading cannot speed up; see num_cpus)"
                             : "(below 2x target!)");

  if (!guardBenchmarkBaseline(argc, argv))
    return 2;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
