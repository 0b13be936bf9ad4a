//===-- bench_alias_depth.cpp - Aliasing-hierarchy ablation (Sec. 4.1) ----------==//
//
// Ablation for the paper's hierarchical expansion design: how many
// statements enter the slice as aliasing-explanation levels are added
// (level 0 = plain thin slice, level 1 = the paper's nanoxml-5
// configuration, large levels approach the data-dependence part of a
// traditional slice). The paper's claim is that "very few explainers
// are needed to accomplish typical tasks" — i.e., the usefulness lives
// at levels 0-1 while the statement cost of each further level grows.
//
//===----------------------------------------------------------------------===//

#include "eval/Experiments.h"
#include "eval/Workload.h"
#include "pipeline/Session.h"
#include "slicer/Expansion.h"
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
  Program *P = nullptr;
  PointsToResult *PTA = nullptr;
  SDG *G = nullptr;
  const Instr *Seed = nullptr;
  unsigned BugLine = 0;
};

Built &builtOnce() {
  static Built B = [] {
    Built Out;
    // The nanoxml model; the aliasing bug (nanoxml-5) is the seed.
    for (const BugCase &Case : debuggingCases()) {
      if (Case.Id != "nanoxml-5")
        continue;
      Out.S = std::make_unique<AnalysisSession>(Case.Prog.Source);
      Out.P = Out.S->program();
      Out.PTA = Out.S->pointsTo();
      Out.G = Out.S->sdg();
      Out.Seed = seedAtLine(*Out.P, Case.Prog.markerLine(Case.SeedMarker));
      Out.BugLine = Case.Prog.markerLine(Case.DesiredMarkers.front());
    }
    return Out;
  }();
  return B;
}

void BM_AliasDepth(benchmark::State &State) {
  Built &B = builtOnce();
  ThinExpansion Exp(*B.G, *B.PTA);
  unsigned Depth = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    SliceResult S = Exp.thinSliceWithAliasDepth(B.Seed, Depth);
    benchmark::DoNotOptimize(S);
  }
}
BENCHMARK(BM_AliasDepth)->DenseRange(0, 4)->Unit(benchmark::kMicrosecond);

} // namespace

int main(int argc, char **argv) {
  printf("=== Thin Slicing reproduction: aliasing-hierarchy ablation ===\n\n");
  Built &B = builtOnce();
  ThinExpansion Exp(*B.G, *B.PTA);
  SliceResult Trad = sliceBackward(*B.G, B.Seed, SliceMode::Traditional);
  SourceLine Bug = sourceLineAt(*B.P, B.BugLine);

  printf("nanoxml-5 seed; traditional slice = %zu source lines\n\n",
         Trad.sourceLines().size());
  printf("alias-depth  slice-lines  contains-bug\n");
  for (unsigned Depth = 0; Depth <= 4; ++Depth) {
    SliceResult S = Exp.thinSliceWithAliasDepth(B.Seed, Depth);
    printf("%11u %12zu %13s\n", Depth, S.sourceLines().size(),
           S.containsLine(Bug.M, Bug.Line) ? "yes" : "no");
  }
  printf("\n(each level exposes one more layer of the container "
         "nesting — HashMap field, bucket array, entry chain — until "
         "the clearing store appears; the inspection-time one-level "
         "mode of Sec. 6.2 applies the exposure at every heap access "
         "met during traversal and therefore finds the bug without "
         "enumerating levels. Statement cost grows with every level, "
         "the paper's argument for on-demand expansion.)\n\n");

  if (!guardBenchmarkBaseline(argc, argv))
    return 2;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
