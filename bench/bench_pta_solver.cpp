//===-- bench_pta_solver.cpp - Naive vs. optimized Andersen solver --------------==//
//
// The pointer analysis dominates end-to-end slicing cost (paper
// Sec. 6.1 and bench_scalability), so this harness pits the naive
// full-set FIFO reference solver against the production one
// (difference propagation + lazy cycle elimination + topological
// worklist) on a points-to-intensive workload padded to several sizes
// with padWorkload. SolverStats are exported as benchmark counters so
// propagation-count reductions are visible next to the wall-time
// speedup. The naive solver runs at small pads only; the production
// solver runs at pads 100, 400 and 1600, where the padding's tens of
// thousands of abstract objects make points-to set width visible
// (solve_ms, finalize_ms and set_words track it):
//
//   ./bench/bench_pta_solver
//   ./bench/bench_pta_solver --benchmark_out=BENCH_pta_solver.json
//                            --benchmark_out_format=json
//
// The base program is generated, not hand-written: RING distinct
// Cell allocation sites linked into a ring, each seeded with its own
// Item allocation, a traversal loop that mixes every item set into
// every cell's item field, and a ring of local-to-local copies closed
// back on itself. Points-to sets grow to hundreds of objects and the
// copy ring is a genuine SCC, so the naive solver's full-set
// repropagation does super-linear work that difference propagation
// and cycle collapsing avoid. padWorkload then wraps the core in
// realistic surrounding code mass, as library code does for the
// paper's benchmarks.
//
//===----------------------------------------------------------------------===//

#include "eval/Experiments.h"
#include "eval/Workload.h"
#include "lang/Lower.h"
#include "pta/PointsTo.h"

#include "BenchGuard.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>

using namespace tsl;

namespace {

/// Number of distinct Cell/Item allocation sites in the generated
/// core. Points-to sets in the core reach this many objects, so it
/// directly controls how much repropagation the naive solver does.
constexpr unsigned RING = 320;

/// Largest padWorkload size the naive solver is benchmarked at; the
/// head-to-head summary in main() runs on this one.
constexpr unsigned MAX_PAD = 24;

std::string solverStressBody() {
  std::string B;
  B += "class Cell {\n  var item: Object;\n  var next: Cell;\n}\n";
  for (unsigned I = 0; I != RING; ++I)
    B += "class Item" + std::to_string(I) + " { }\n";
  B += "def main() {\n";
  // RING distinct cells linked into a ring of next fields.
  for (unsigned I = 0; I != RING; ++I)
    B += "  var c" + std::to_string(I) + " = new Cell();\n";
  for (unsigned I = 0; I != RING; ++I)
    B += "  c" + std::to_string(I) + ".next = c" +
         std::to_string((I + 1) % RING) + ";\n";
  // Each cell seeded with its own item object.
  for (unsigned I = 0; I != RING; ++I)
    B += "  c" + std::to_string(I) + ".item = new Item" + std::to_string(I) +
         "();\n";
  // Traversal: cur's set grows one cell per solver round (the load
  // constraint feeds the phi back), and the item stores smear every
  // item set across every cell's item field.
  B += "  var cur = c0;\n"
       "  for (var i = 0; i < 1000; i = i + 1) {\n"
       "    var nxt = cur.next;\n"
       "    nxt.item = cur.item;\n"
       "    cur = nxt;\n"
       "  }\n";
  // A closed ring of local-to-local copies: a genuine copy-edge SCC
  // holding a large set. Lazy cycle detection collapses it to one
  // node; the naive solver keeps pumping full sets around it.
  B += "  var a0 = cur;\n";
  for (unsigned I = 1; I != RING; ++I)
    B += "  var a" + std::to_string(I) + " = a" + std::to_string(I - 1) +
         ";\n";
  B += "  a0 = a" + std::to_string(RING - 1) + ";\n";
  B += "  print(\"stress done\");\n}\n";
  return B;
}

/// One compiled padded workload per pad size, shared by all configs.
Program &programForPad(unsigned Pad) {
  static std::map<unsigned, std::unique_ptr<Program>> Cache;
  auto It = Cache.find(Pad);
  if (It == Cache.end()) {
    WorkloadProgram Base = makeWorkload("solver-stress", solverStressBody());
    WorkloadProgram W =
        padWorkload(Base, "PS" + std::to_string(Pad), Pad, 6);
    DiagnosticEngine Diag;
    std::unique_ptr<Program> P = compileThinJ(W.Source, Diag);
    It = Cache.emplace(Pad, std::move(P)).first;
  }
  return *It->second;
}

void reportCounters(benchmark::State &State, const SolverStats &S) {
  State.counters["nodes"] = static_cast<double>(S.NumNodes);
  State.counters["rep_nodes"] = static_cast<double>(S.NumRepNodes);
  State.counters["copy_edges"] = static_cast<double>(S.NumCopyEdges);
  State.counters["objects"] = static_cast<double>(S.NumObjects);
  State.counters["pops"] = static_cast<double>(S.WorklistPops);
  State.counters["propagations"] = static_cast<double>(S.Propagations);
  State.counters["nochange_props"] =
      static_cast<double>(S.NoChangePropagations);
  State.counters["delta_bits"] = static_cast<double>(S.DeltaBitsMoved);
  State.counters["cons_evals"] = static_cast<double>(S.ConstraintEvals);
  State.counters["cycles_collapsed"] = static_cast<double>(S.CyclesCollapsed);
  State.counters["nodes_merged"] = static_cast<double>(S.NodesMerged);
  State.counters["solve_ms"] = S.SolveSeconds * 1000;
  State.counters["finalize_ms"] = S.FinalizeSeconds * 1000;
  State.counters["set_words"] = static_cast<double>(S.SetWordsTouched);
}

/// Runs one solver entry point (runPointsTo or runPointsToReference).
void runSolverBench(benchmark::State &State,
                    std::unique_ptr<PointsToResult> (*Solve)(Program &)) {
  Program &P = programForPad(static_cast<unsigned>(State.range(0)));
  SolverStats Last;
  for (auto _ : State) {
    std::unique_ptr<PointsToResult> R = Solve(P);
    Last = R->stats();
    benchmark::DoNotOptimize(R);
  }
  reportCounters(State, Last);
}

void BM_SolverNaive(benchmark::State &State) {
  runSolverBench(State, runPointsToReference);
}
BENCHMARK(BM_SolverNaive)->Arg(0)->Arg(8)->Arg(16)->Arg(MAX_PAD)
    ->Unit(benchmark::kMillisecond);

void BM_SolverOptimized(benchmark::State &State) {
  runSolverBench(State, [](Program &P) { return runPointsTo(P); });
}
BENCHMARK(BM_SolverOptimized)->Arg(100)->Arg(400)->Arg(1600)
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  printf("=== Andersen solver: naive vs. optimized ===\n\n");

  // Head-to-head on the largest padded workload, work counters
  // included (the benchmark timings below are the authoritative wall
  // times; this is the one-glance summary).
  Program &P = programForPad(MAX_PAD);
  const SolverStats Naive = runPointsToReference(P)->stats();
  const SolverStats Opt = runPointsTo(P)->stats();
  printf("naive (full-set, FIFO):\n%s\n", Naive.str().c_str());
  printf("optimized (delta + LCD + topo worklist):\n%s\n", Opt.str().c_str());
  if (Opt.SolveSeconds > 0 && Opt.Propagations > 0 && Opt.DeltaBitsMoved > 0)
    printf("speedup: %.2fx wall, %.2fx fewer propagations, "
           "%.2fx fewer delta bits moved\n\n",
           Naive.SolveSeconds / Opt.SolveSeconds,
           static_cast<double>(Naive.Propagations) / Opt.Propagations,
           static_cast<double>(Naive.DeltaBitsMoved) / Opt.DeltaBitsMoved);

  if (!guardBenchmarkBaseline(argc, argv))
    return 2;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
