//===-- bench_parallel_pipeline.cpp - End-to-end parallel pipeline --------------==//
//
// The whole analysis pipeline — compile, points-to, mod-ref, SDG
// construction, and a 100-seed slice batch — at `--threads 1`. Only
// the engine's batch fan-out uses the pool; the analyses and the SDG
// build run sequentially and a 100-seed batch is two chunks, so more
// threads measured the same pipeline (9.2 / 8.8 / 9.5 ms at 1 / 4 / 8)
// and one thread count is kept. BM_SdgBuild is keyed on workload size
// (pad 100 / 400 / 1600) instead, with an ns_per_edge counter that
// shows its scaling.
//
//   ./bench/bench_parallel_pipeline
//   ./bench/bench_parallel_pipeline --benchmark_out=BENCH_parallel_pipeline.json
//                                   --benchmark_out_format=json
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
#include <memory>
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

/// Arg = thread count (1, see the file comment). Each iteration is a
/// cold session: the pipeline stages all rerun, nothing is served from
/// a warm cache.
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
BENCHMARK(BM_PipelineEndToEnd)->Arg(1)->Unit(benchmark::kMillisecond);

/// The SDG-build share alone (points-to and mod-ref held warm), keyed
/// on pad size: the build is sequential, so threads do not matter
/// here, but its scaling does. ns_per_edge stays flat when the build
/// is linear in its output.
void BM_SdgBuild(benchmark::State &State) {
  const unsigned Pad = static_cast<unsigned>(State.range(0));
  const std::string Source =
      padWorkload(debuggingCases().front().Prog, "BS", Pad, 6).Source;
  double BuildNs = 0;
  unsigned Edges = 0;
  std::unique_ptr<AnalysisSession> S;
  for (auto _ : State) {
    State.PauseTiming();
    S.reset(); // the previous session is torn down untimed
    S = std::make_unique<AnalysisSession>(Source);
    benchmark::DoNotOptimize(S->modRef()); // warm everything up to the SDG
    State.ResumeTiming();
    auto T0 = std::chrono::steady_clock::now();
    Edges = S->sdg()->numEdges();
    BuildNs += std::chrono::duration<double, std::nano>(
                   std::chrono::steady_clock::now() - T0)
                   .count();
  }
  State.counters["pad"] = Pad;
  State.counters["edges"] = Edges;
  State.counters["ns_per_edge"] =
      BuildNs / (static_cast<double>(State.iterations()) * Edges);
}
BENCHMARK(BM_SdgBuild)->Arg(100)->Arg(400)->Arg(1600)
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  printf("=== Parallel analysis pipeline: end-to-end ===\n\n");

  const unsigned Cpus = std::thread::hardware_concurrency();
  // One warm-up to pull the workload source and any lazy statics out
  // of the measurement, then a median of 5 (single cold runs are too
  // noisy to headline).
  (void)pipelineMs(1);
  std::vector<double> Ms;
  for (int I = 0; I != 5; ++I)
    Ms.push_back(pipelineMs(1));
  std::sort(Ms.begin(), Ms.end());
  printf("workload: nanoxml pad %u, %u seeds, host cpus %u\n", PAD, NUM_SEEDS,
         Cpus);
  printf("--threads 1: %8.3f ms end-to-end (median of 5)\n\n",
         Ms[Ms.size() / 2]);

  if (!guardBenchmarkBaseline(argc, argv))
    return 2;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
