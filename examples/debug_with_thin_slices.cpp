//===-- debug_with_thin_slices.cpp - The paper's Figure 1 walkthrough -----------==//
//
// Recreates the paper's introductory debugging session: the program
// reads full names, stores first names in a Vector via a SessionState,
// and prints "FIRST NAME: Joh" instead of "FIRST NAME: John" because
// of an off-by-one in substring.
//
// The example (1) runs the program under the interpreter to expose the
// failure, (2) computes the thin slice from the failing print, and
// (3) shows the BFS inspection order a tool user would follow — the
// buggy substring line appears within a handful of steps, while the
// traditional slice buries it under SessionState and Vector plumbing.
//
//===----------------------------------------------------------------------===//

#include "dyn/Interp.h"
#include "eval/Workload.h"
#include "lang/Lower.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"
#include "slicer/Inspection.h"
#include "slicer/Report.h"
#include "slicer/Slicer.h"

#include <cstdio>

using namespace tsl;

int main() {
  WorkloadProgram W = makeFigure1();
  DiagnosticEngine Diag;
  std::unique_ptr<Program> P = compileThinJ(W.Source, Diag);
  if (!P) {
    fprintf(stderr, "%s", Diag.str().c_str());
    return 1;
  }

  // Run the program: the failure the user starts from.
  InterpOptions Run;
  Run.InputInts = {1};
  Run.InputLines = {"John Doe"};
  InterpResult R = interpret(*P, Run);
  printf("program output:\n");
  for (const std::string &Line : R.Output)
    printf("  %s\n", Line.c_str());
  printf("  (expected \"FIRST NAME: John\" — time to debug)\n\n");

  // Analyze.
  std::unique_ptr<PointsToResult> PTA = runPointsTo(*P);
  std::unique_ptr<SDG> G = buildSDG(*P, *PTA, nullptr);

  const Instr *Seed = seedAtLine(*P, W.markerLine("seed"));
  SliceResult Thin = sliceBackward(*G, Seed, SliceMode::Thin);
  SliceResult Trad = sliceBackward(*G, Seed, SliceMode::Traditional);

  printf("thin slice from the failing print (%u statements):\n%s\n",
         Thin.sizeStmts(), Thin.str().c_str());
  printf("traditional slice has %u statements (the whole example, as the "
         "paper notes)\n\n",
         Trad.sizeStmts());

  // Simulate the inspection session of Sec. 6.1.
  SourceLine Bug = sourceLineAt(*P, W.markerLine("bug"));
  InspectionResult ThinWalk =
      simulateInspection(*G, Seed, SliceMode::Thin, {Bug});
  InspectionResult TradWalk =
      simulateInspection(*G, Seed, SliceMode::Traditional, {Bug});
  printf("BFS inspection until the buggy substring is found:\n");
  printf("  thin slicer:        %u statements\n",
         ThinWalk.InspectedStatements);
  printf("  traditional slicer: %u statements\n",
         TradWalk.InspectedStatements);
  printf("inspection order (thin):\n");
  for (const SourceLine &L : ThinWalk.Order)
    printf("  %s line %u\n",
           L.M->qualifiedName(P->strings()).c_str(), L.Line);
  return 0;
}
