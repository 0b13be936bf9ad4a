//===-- bench_slice_throughput.cpp - Batched slice-query throughput -------------==//
//
// Multi-seed slicing through SliceEngine, measured in parts so the
// breakdown stays visible:
//
//  - 100 sequential single-seed slices with sliceBackward on the CSR
//    graph (pad 12);
//  - the batch engine's fan-out over the session pool at 1 and 4
//    workers: BM_Batch on a 512-seed context-insensitive batch at
//    pad 400 (8 chunks of 64 queries, one work item per chunk) and
//    BM_BatchCS_WarmSummaries on a 64-seed context-sensitive batch at
//    pad 25 (one work item per seed). These are the batches the pool
//    is kept for; a batch of one chunk runs inline whatever the
//    worker count;
//  - cross-query summary caching in context-sensitive mode: a cold
//    batch pays the tabulation summary fixpoint, a warm batch reuses
//    it from the SummaryCache.
//
//   ./bench/bench_slice_throughput
//   ./bench/bench_slice_throughput --benchmark_out=BENCH_slice_throughput.json
//                                  --benchmark_out_format=json
//
// Every workload is the nanoxml model padded by padWorkload, seeded
// with statements spread evenly over the program by collectSliceSeeds.
// The head-to-head summary printed first compares 100 sequential
// slices with one 100-seed batch at pad 12.
//
//===----------------------------------------------------------------------===//

#include "eval/Experiments.h"
#include "eval/Workload.h"
#include "pipeline/Session.h"
#include "slicer/Engine.h"
#include "slicer/Slicer.h"
#include "slicer/Tabulation.h"
#include "support/ThreadPool.h"

#include "BenchGuard.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

using namespace tsl;

namespace {

/// Largest pad size of the scalability sweep (bench_scalability).
constexpr unsigned PAD = 12;
constexpr unsigned NUM_SEEDS = 100;

/// The fan-out batches: CI at pad 400 with 512 seeds (8 chunks), CS at
/// pad 25 with 64 seeds.
constexpr unsigned CI_FANOUT_PAD = 400;
constexpr unsigned CI_FANOUT_SEEDS = 512;
constexpr unsigned CS_FANOUT_PAD = 25;
constexpr unsigned CS_FANOUT_SEEDS = 64;

/// One warm session per workload; the raw pointers borrow from it.
struct Built {
  std::unique_ptr<AnalysisSession> S;
  SDG *G = nullptr;
  std::vector<const Instr *> Seeds;
};

Built build(unsigned Pad, unsigned NumSeeds, bool ContextSensitive) {
  Built Out;
  WorkloadProgram W = padWorkload(debuggingCases().front().Prog, "TP", Pad, 6);
  Out.S = std::make_unique<AnalysisSession>(W.Source);
  if (ContextSensitive) {
    SDGOptions SO;
    SO.ContextSensitive = true;
    Out.S->setSDGOptions(SO);
  }
  Out.G = Out.S->sdg();
  Out.Seeds = collectSliceSeeds(*Out.S->program(), NumSeeds);
  return Out;
}

Built &builtOnce() {
  static Built B = build(PAD, NUM_SEEDS, /*ContextSensitive=*/false);
  return B;
}

Built &ciFanOut() {
  static Built B =
      build(CI_FANOUT_PAD, CI_FANOUT_SEEDS, /*ContextSensitive=*/false);
  return B;
}

Built &csFanOut() {
  static Built B =
      build(CS_FANOUT_PAD, CS_FANOUT_SEEDS, /*ContextSensitive=*/true);
  return B;
}

/// N independent single-seed slices on the CSR traversal (no engine),
/// what a caller scripting `thinslice --line` in a loop pays.
void BM_SeqCSR(benchmark::State &State) {
  Built &B = builtOnce();
  for (auto _ : State)
    for (const Instr *Seed : B.Seeds) {
      SliceResult S = sliceBackward(*B.G, Seed, SliceMode::Thin);
      benchmark::DoNotOptimize(S);
    }
  State.counters["seeds"] = NUM_SEEDS;
}
BENCHMARK(BM_SeqCSR)->Unit(benchmark::kMillisecond);

/// The CI fan-out batch, warm condensation; Arg = worker count.
void BM_Batch(benchmark::State &State) {
  Built &B = ciFanOut();
  ThreadPool Pool(static_cast<unsigned>(State.range(0)));
  SliceEngine Engine(*B.G, &Pool);
  SliceQuery Q = SliceQuery::backward(B.Seeds, SliceMode::Thin);
  Q.Jobs = static_cast<unsigned>(State.range(0));
  const BatchStats St = Engine.run(Q).Stats; // warm
  for (auto _ : State) {
    auto R = Engine.run(Q);
    benchmark::DoNotOptimize(R);
  }
  State.counters["seeds"] = static_cast<double>(B.Seeds.size());
  State.counters["unique"] = St.UniqueQueries;
  State.counters["workers"] = St.Workers;
}
BENCHMARK(BM_Batch)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

/// Context-sensitive batch with a cold cache: every iteration pays the
/// summary fixpoint again.
void BM_BatchCS_ColdSummaries(benchmark::State &State) {
  Built &B = csFanOut();
  SliceEngine Engine(*B.G);
  for (auto _ : State) {
    SummaryCache Cache; // fresh per iteration: always a miss
    BatchOptions Opts;
    Opts.ContextSensitive = true;
    Opts.Jobs = 1;
    Opts.Summaries = &Cache;
    auto R = Engine.sliceBackwardBatch(B.Seeds, Opts);
    benchmark::DoNotOptimize(R);
  }
  State.counters["seeds"] = static_cast<double>(B.Seeds.size());
}
BENCHMARK(BM_BatchCS_ColdSummaries)->Unit(benchmark::kMillisecond);

/// Same batch against a warmed cross-query cache: the fixpoint cost
/// amortizes away, leaving only the per-seed traversals, which fan out
/// on the pool; Arg = worker count.
void BM_BatchCS_WarmSummaries(benchmark::State &State) {
  Built &B = csFanOut();
  ThreadPool Pool(static_cast<unsigned>(State.range(0)));
  SliceEngine Engine(*B.G, &Pool);
  SummaryCache Cache;
  SliceQuery Q = SliceQuery::backward(B.Seeds, SliceMode::Thin,
                                      /*ContextSensitive=*/true);
  Q.Jobs = static_cast<unsigned>(State.range(0));
  Q.Summaries = &Cache;
  const unsigned Workers = Engine.run(Q).Stats.Workers; // warm
  for (auto _ : State) {
    auto R = Engine.run(Q);
    benchmark::DoNotOptimize(R);
  }
  State.counters["seeds"] = static_cast<double>(B.Seeds.size());
  State.counters["workers"] = Workers;
  State.counters["cache_hits"] = static_cast<double>(Cache.hits());
}
BENCHMARK(BM_BatchCS_WarmSummaries)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  printf("=== Batched slice-query engine: throughput ===\n\n");

  // Head-to-head summary on the acceptance configuration: 100 seeds,
  // sequential vs one batch. The benchmark timings below are
  // the authoritative wall times; this is the one-glance number.
  Built &B = builtOnce();
  ThroughputRow Row =
      runSliceThroughput(*B.G, B.Seeds, SliceMode::Thin, /*Jobs=*/1);
  printf("workload: nanoxml pad %u, %u seeds (%u unique)\n", PAD, Row.Seeds,
         Row.UniqueSeeds);
  printf("sequential:   %8.3f ms  (%.0f queries/sec)\n", Row.SeqMs,
         Row.Seeds * 1000.0 / Row.SeqMs);
  printf("engine batch: %8.3f ms  (%.0f queries/sec)\n", Row.BatchMs,
         Row.Seeds * 1000.0 / Row.BatchMs);
  printf("batch vs sequential: %.2fx queries/sec\n\n", Row.Speedup);

  if (!guardBenchmarkBaseline(argc, argv))
    return 2;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
