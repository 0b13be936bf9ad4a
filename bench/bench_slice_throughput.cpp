//===-- bench_slice_throughput.cpp - Batched slice-query throughput -------------==//
//
// The PR-3 tentpole claim: a 100-seed batch through SliceEngine beats
// 100 sequential legacy (edge-record) single-seed slices by >= 2x
// queries/sec on the largest scalability workload. Three effects are
// measured separately so the breakdown stays visible:
//
//  - the CSR traversal (sliceBackward on the CSR graph) vs the
//    legacy adjacency walk that touches an edge record per step;
//  - the batch engine itself: seed dedup + one shared budget gate
//    (worker counts 1 and 4 -- on a single-core host the 4-worker
//    number mostly demonstrates that threading does not regress);
//  - cross-query summary caching in context-sensitive mode: a cold
//    batch pays the tabulation summary fixpoint, a warm batch reuses
//    it from the SummaryCache.
//
//   ./bench/bench_slice_throughput
//   ./bench/bench_slice_throughput --benchmark_out=BENCH_slice_throughput.json
//                                  --benchmark_out_format=json
//
// The workload is the nanoxml model padded to the largest size the
// scalability sweep uses (pad 12), seeded with 100 statements spread
// evenly over the program by collectSliceSeeds.
//
//===----------------------------------------------------------------------===//

#include "eval/Experiments.h"
#include "eval/Workload.h"
#include "pipeline/Session.h"
#include "slicer/Engine.h"
#include "slicer/Slicer.h"
#include "slicer/Tabulation.h"

#include "BenchGuard.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

using namespace tsl;

namespace {

/// Largest pad size of the scalability sweep (bench_scalability).
constexpr unsigned PAD = 12;
constexpr unsigned NUM_SEEDS = 100;

/// One warm session for every benchmark in this binary; the raw
/// pointers borrow from it.
struct Built {
  std::unique_ptr<AnalysisSession> S;
  SDG *G = nullptr;
  std::vector<const Instr *> Seeds;
};

Built &builtOnce() {
  static Built B = [] {
    Built Out;
    WorkloadProgram W = padWorkload(debuggingCases().front().Prog, "TP", PAD, 6);
    Out.S = std::make_unique<AnalysisSession>(W.Source);
    Out.G = Out.S->sdg();
    Out.Seeds = collectSliceSeeds(*Out.S->program(), NUM_SEEDS);
    return Out;
  }();
  return B;
}

/// Baseline: N independent legacy single-seed slices, exactly what a
/// pre-PR-3 caller scripting `thinslice --line` in a loop paid.
void BM_SeqLegacy(benchmark::State &State) {
  Built &B = builtOnce();
  for (auto _ : State)
    for (const Instr *Seed : B.Seeds) {
      SliceResult S = sliceBackwardLegacy(*B.G, Seed, SliceMode::Thin);
      benchmark::DoNotOptimize(S);
    }
  State.counters["seeds"] = NUM_SEEDS;
}
BENCHMARK(BM_SeqLegacy)->Unit(benchmark::kMillisecond);

/// Same N sequential queries on the CSR traversal (no engine): the
/// graph-layout share of the win.
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

/// The batch engine; Arg = worker count.
void BM_Batch(benchmark::State &State) {
  Built &B = builtOnce();
  SliceEngine Engine(*B.G);
  BatchOptions Opts;
  Opts.Jobs = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    auto R = Engine.sliceBackwardBatch(B.Seeds, Opts);
    benchmark::DoNotOptimize(R);
  }
  State.counters["seeds"] = NUM_SEEDS;
  State.counters["unique"] = Engine.stats().UniqueQueries;
}
BENCHMARK(BM_Batch)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

/// Context-sensitive batch with a cold cache: every iteration pays the
/// summary fixpoint again.
void BM_BatchCS_ColdSummaries(benchmark::State &State) {
  Built &B = builtOnce();
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
  State.counters["seeds"] = NUM_SEEDS;
}
BENCHMARK(BM_BatchCS_ColdSummaries)->Unit(benchmark::kMillisecond);

/// Same batch against a warmed cross-query cache: the fixpoint cost
/// amortizes away, leaving only the per-seed traversals.
void BM_BatchCS_WarmSummaries(benchmark::State &State) {
  Built &B = builtOnce();
  SliceEngine Engine(*B.G);
  static SummaryCache Cache;
  BatchOptions Opts;
  Opts.ContextSensitive = true;
  Opts.Jobs = 1;
  Opts.Summaries = &Cache;
  Engine.sliceBackwardBatch(B.Seeds, Opts); // warm
  for (auto _ : State) {
    auto R = Engine.sliceBackwardBatch(B.Seeds, Opts);
    benchmark::DoNotOptimize(R);
  }
  State.counters["seeds"] = NUM_SEEDS;
  State.counters["cache_hits"] = static_cast<double>(Cache.hits());
}
BENCHMARK(BM_BatchCS_WarmSummaries)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  printf("=== Batched slice-query engine: throughput ===\n\n");

  // Head-to-head summary on the acceptance configuration: 100 seeds,
  // sequential legacy vs one batch. The benchmark timings below are
  // the authoritative wall times; this is the one-glance number.
  Built &B = builtOnce();
  ThroughputRow Row =
      runSliceThroughput(*B.G, B.Seeds, SliceMode::Thin, /*Jobs=*/1);
  printf("workload: nanoxml pad %u, %u seeds (%u unique)\n", PAD, Row.Seeds,
         Row.UniqueSeeds);
  printf("sequential legacy: %8.3f ms  (%.0f queries/sec)\n", Row.SeqLegacyMs,
         Row.Seeds * 1000.0 / Row.SeqLegacyMs);
  printf("sequential CSR:    %8.3f ms  (%.0f queries/sec)\n", Row.SeqMs,
         Row.Seeds * 1000.0 / Row.SeqMs);
  printf("engine batch:      %8.3f ms  (%.0f queries/sec)\n", Row.BatchMs,
         Row.Seeds * 1000.0 / Row.BatchMs);
  printf("batch vs sequential legacy: %.2fx queries/sec %s\n\n", Row.Speedup,
         Row.Speedup >= 2.0 ? "(>= 2x target met)" : "(below 2x target!)");

  if (!guardBenchmarkBaseline(argc, argv))
    return 2;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
