//===-- tough_cast.cpp - The paper's Figure 5 / Table 3 scenario ----------------==//
//
// Recreates the program-understanding task of Section 6.3: a downcast
// guarded by an opcode tag that precise pointer analysis cannot verify
// (a "tough cast"). Understanding why it is safe means discovering the
// global invariant: every constructor writes a suitable opcode. The
// thin slice from the opcode read leads straight to those writes.
//
//===----------------------------------------------------------------------===//

#include "eval/Workload.h"
#include "lang/Lower.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"
#include "slicer/Expansion.h"
#include "slicer/Report.h"
#include "slicer/Slicer.h"

#include <cstdio>

using namespace tsl;

int main() {
  WorkloadProgram W = makeFigure5();
  DiagnosticEngine Diag;
  std::unique_ptr<Program> P = compileThinJ(W.Source, Diag);
  if (!P) {
    fprintf(stderr, "%s", Diag.str().c_str());
    return 1;
  }
  std::unique_ptr<PointsToResult> PTA = runPointsTo(*P);
  std::unique_ptr<SDG> G = buildSDG(*P, *PTA, nullptr);

  // The cast is tough: points-to cannot prove it safe.
  const CastInstr *Cast = castAtLine(*P, W.markerLine("cast"));
  printf("cast `(AddNode) n`: pointer analysis verifies it? %s\n\n",
         PTA->castCannotFail(Cast) ? "yes" : "no — a tough cast");

  // Following one control dependence from the cast reaches the switch
  // on the opcode; thin-slice from the opcode read.
  ThinExpansion Exp(*G, *PTA);
  printf("controlling conditional of the cast:\n");
  for (const Instr *C : Exp.controlExplainers(Cast))
    printf("  line %u: %s\n", C->loc().Line, C->str(*P).c_str());

  const Instr *OpRead = seedAtLine(*P, W.markerLine("opread"));
  SliceResult Thin = sliceBackward(*G, OpRead, SliceMode::Thin);
  printf("\nthin slice from `var op = n.op` (%u statements):\n%s\n",
         Thin.sizeStmts(), Thin.str().c_str());
  printf("-> every constructor writes its class's opcode constant, so the "
         "tag test guarantees the cast (the global invariant)\n\n");

  SliceResult Trad = sliceBackward(*G, OpRead, SliceMode::Traditional);
  printf("a traditional slice of the same seed has %u statements "
         "(vs %u thin)\n",
         Trad.sizeStmts(), Thin.sizeStmts());
  return 0;
}
