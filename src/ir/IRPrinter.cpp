//===-- IRPrinter.cpp - Textual IR dumps ------------------------------------==//

#include "ir/IRPrinter.h"

#include "ir/Instr.h"
#include "ir/Program.h"

using namespace tsl;

std::string tsl::printMethod(const Program &P, const Method &M) {
  std::string Out;
  Out += (M.isStatic() ? "static " : "");
  Out += M.returnType()->isClass()
             ? P.strings().str(M.returnType()->classDef()->name())
             : M.returnType()->str();
  Out += ' ';
  Out += M.qualifiedName(P.strings());
  Out += " {\n";
  for (const auto &BB : M.blocks()) {
    Out += "bb" + std::to_string(BB->id());
    if (BB.get() == M.entry())
      Out += " (entry)";
    if (!BB->preds().empty()) {
      Out += "  ; preds:";
      for (BasicBlock *Pred : BB->preds())
        Out += " bb" + std::to_string(Pred->id());
    }
    Out += ":\n";
    for (const auto &I : BB->instrs()) {
      Out += "  " + I->str(P);
      if (I->loc().isValid())
        Out += "  ; line " + std::to_string(I->loc().Line);
      Out += "\n";
    }
  }
  Out += "}\n";
  return Out;
}

std::string tsl::printProgram(const Program &P) {
  std::string Out;
  for (const auto &M : P.methods()) {
    if (!M->entry())
      continue;
    Out += printMethod(P, *M);
    Out += "\n";
  }
  return Out;
}
