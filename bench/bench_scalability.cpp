//===-- bench_scalability.cpp - Sec. 6.1 scalability claims ---------------------==//
//
// Reproduces the scalability observations of paper Section 6.1:
//
//  - context-insensitive thin/traditional slicing is graph
//    reachability and costs microseconds — negligible next to the
//    prerequisite pointer analysis;
//  - the context-sensitive representation's heap parameters explode:
//    heap formal/actual nodes and summary edges grow super-linearly
//    with program size (the paper's full SDG exceeded 10M nodes and
//    exhausted memory on large benchmarks; a commercial slicer hits
//    the same wall).
//
// The sweep pads the nanoxml model with growing amounts of reachable
// library code and reports sizes and times per configuration.
//
//===----------------------------------------------------------------------===//

#include "eval/Experiments.h"
#include "eval/Workload.h"
#include "pipeline/Session.h"
#include "slicer/Report.h"
#include "slicer/Slicer.h"

#include "BenchGuard.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

using namespace tsl;

namespace {

/// One warm session for every benchmark in this binary; the raw
/// pointers borrow from it.
struct Built {
  std::unique_ptr<AnalysisSession> S;
  SDG *G = nullptr;
  const Instr *Seed = nullptr;
};

Built &builtOnce() {
  static Built B = [] {
    Built Out;
    WorkloadProgram W = padWorkload(debuggingCases().front().Prog, "SB", 8, 6);
    Out.S = std::make_unique<AnalysisSession>(W.Source);
    Out.G = Out.S->sdg();
    Out.Seed = seedAtLine(*Out.S->program(), W.markerLine("n1-seed"));
    return Out;
  }();
  return B;
}

void BM_ThinSlice(benchmark::State &State) {
  Built &B = builtOnce();
  for (auto _ : State) {
    SliceResult S = sliceBackward(*B.G, B.Seed, SliceMode::Thin);
    benchmark::DoNotOptimize(S);
  }
}
BENCHMARK(BM_ThinSlice)->Unit(benchmark::kMicrosecond);

void BM_TraditionalSlice(benchmark::State &State) {
  Built &B = builtOnce();
  for (auto _ : State) {
    SliceResult S = sliceBackward(*B.G, B.Seed, SliceMode::Traditional);
    benchmark::DoNotOptimize(S);
  }
}
BENCHMARK(BM_TraditionalSlice)->Unit(benchmark::kMicrosecond);

} // namespace

int main(int argc, char **argv) {
  printf("=== Thin Slicing reproduction: scalability (Sec. 6.1) ===\n\n");
  auto Rows = runScalability({0, 2, 4, 8, 12});
  printf("%s\n", formatScalability(Rows).c_str());
  if (Rows.size() >= 2) {
    const ScalabilityRow &First = Rows.front();
    const ScalabilityRow &Last = Rows.back();
    double StmtGrowth =
        static_cast<double>(Last.SDGStmts) / First.SDGStmts;
    double HeapGrowth = static_cast<double>(Last.CSHeapParamNodes) /
                        First.CSHeapParamNodes;
    double SummaryGrowth =
        static_cast<double>(Last.SummaryEdges) / First.SummaryEdges;
    printf("growth %ux statements -> %.1fx CS heap-parameter nodes, "
           "%.1fx summary edges\n",
           static_cast<unsigned>(StmtGrowth), HeapGrowth, SummaryGrowth);
    printf("(the paper's Sec. 6.1 bottleneck: heap parameter passing "
           "explodes; CI thin slicing stays negligible)\n\n");
  }

  if (!guardBenchmarkBaseline(argc, argv))
    return 2;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
