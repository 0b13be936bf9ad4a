//===-- SSA.cpp - SSA construction -----------------------------------------==//

#include "ir/SSA.h"

#include "ir/Dominators.h"
#include "ir/Instr.h"
#include "ir/Program.h"
#include "support/BitSet.h"

#include <unordered_map>
#include <vector>

using namespace tsl;

namespace {

/// Per-method SSA construction state.
class SSABuilder {
public:
  SSABuilder(Program &P, Method &M) : P(P), M(M), DT(M, /*Post=*/false) {}

  void run();

private:
  void computeLiveness();
  void insertPhis();
  void rename(unsigned BlockId);

  Local *freshVersion(Local *Orig) {
    unsigned &Counter = VersionCounter[Orig->id()];
    ++Counter;
    Local *L = M.addLocal(Orig->baseName(), Orig->type(), Orig->isTemp(),
                          Counter);
    return L;
  }

  Local *currentDef(Local *Orig, BasicBlock *UseBlock) {
    auto &Stack = DefStack[Orig->id()];
    if (!Stack.empty())
      return Stack.back();
    // Structured control flow plus mandatory initializers should make
    // this unreachable; synthesize a default definition at entry as a
    // safety net so the IR stays well formed.
    (void)UseBlock;
    return synthesizeDefault(Orig);
  }

  Local *synthesizeDefault(Local *Orig);

  Program &P;
  Method &M;
  DomTree DT;

  unsigned NumOrigLocals = 0;
  // Liveness over original locals, per block.
  std::vector<BitSet> LiveIn;
  // Original local id -> blocks containing a def.
  std::vector<std::vector<unsigned>> DefBlocks;
  // Phi -> original local it merges.
  std::unordered_map<PhiInstr *, Local *> PhiVar;
  // Original local id -> rename stack of SSA locals.
  std::vector<std::vector<Local *>> DefStack;
  std::vector<unsigned> VersionCounter;
  // Original local id -> synthesized entry def (lazily created).
  std::vector<Local *> DefaultDef;
};

} // namespace

void SSABuilder::run() {
  M.renumber();
  NumOrigLocals = static_cast<unsigned>(M.locals().size());
  DefBlocks.resize(NumOrigLocals);
  DefStack.resize(NumOrigLocals);
  VersionCounter.assign(NumOrigLocals, 0);
  DefaultDef.assign(NumOrigLocals, nullptr);

  for (const auto &BB : M.blocks())
    for (const auto &I : BB->instrs())
      if (Local *D = I->dest())
        DefBlocks[D->id()].push_back(BB->id());

  computeLiveness();
  insertPhis();
  if (M.entry())
    rename(M.entry()->id());
  M.setSSA(true);
  M.renumber();
}

void SSABuilder::computeLiveness() {
  unsigned NumBlocks = static_cast<unsigned>(M.blocks().size());
  LiveIn.assign(NumBlocks, BitSet(NumOrigLocals));
  std::vector<BitSet> LiveOut(NumBlocks, BitSet(NumOrigLocals));

  // Per-block gen (upward-exposed uses) and kill (defs).
  std::vector<BitSet> Gen(NumBlocks, BitSet(NumOrigLocals));
  std::vector<BitSet> Kill(NumBlocks, BitSet(NumOrigLocals));
  for (const auto &BB : M.blocks()) {
    unsigned Id = BB->id();
    for (const auto &I : BB->instrs()) {
      for (Local *Op : I->operands())
        if (!Kill[Id].test(Op->id()))
          Gen[Id].insert(Op->id());
      if (Local *D = I->dest())
        Kill[Id].insert(D->id());
    }
  }

  bool Changed = true;
  while (Changed) {
    Changed = false;
    // Iterate in reverse block order for faster convergence.
    for (unsigned Id = NumBlocks; Id-- > 0;) {
      BasicBlock *BB = M.blocks()[Id].get();
      BitSet Out(NumOrigLocals);
      for (BasicBlock *Succ : BB->successors())
        Out.unionWith(LiveIn[Succ->id()]);
      BitSet In = Out;
      In.subtract(Kill[Id]);
      In.unionWith(Gen[Id]);
      if (In != LiveIn[Id]) {
        LiveIn[Id] = std::move(In);
        Changed = true;
      }
      LiveOut[Id] = std::move(Out);
    }
  }
}

void SSABuilder::insertPhis() {
  for (unsigned Var = 0; Var != NumOrigLocals; ++Var) {
    if (DefBlocks[Var].size() < 1)
      continue;
    Local *Orig = M.locals()[Var].get();
    // Iterated dominance frontier worklist.
    std::vector<unsigned> Work = DefBlocks[Var];
    BitSet HasPhi(static_cast<unsigned>(M.blocks().size()));
    BitSet InWork(static_cast<unsigned>(M.blocks().size()));
    for (unsigned B : Work)
      InWork.insert(B);
    while (!Work.empty()) {
      unsigned B = Work.back();
      Work.pop_back();
      for (unsigned F : DT.frontier(B)) {
        if (HasPhi.test(F))
          continue;
        if (!LiveIn[F].test(Var))
          continue; // Pruned SSA: dead at F, no phi needed.
        HasPhi.insert(F);
        auto Phi = std::make_unique<PhiInstr>(Orig);
        // Keep the source position of the join's first real statement
        // unknown; phis are compiler-synthesized.
        PhiVar[Phi.get()] = Orig;
        M.blocks()[F]->prepend(std::move(Phi));
        if (InWork.insert(F))
          Work.push_back(F);
      }
    }
  }
}

Local *SSABuilder::synthesizeDefault(Local *Orig) {
  if (DefaultDef[Orig->id()])
    return DefaultDef[Orig->id()];
  Local *L = freshVersion(Orig);
  std::unique_ptr<Instr> I;
  const Type *Ty = Orig->type();
  if (Ty->isInt())
    I = std::make_unique<ConstIntInstr>(L, 0);
  else if (Ty->isBool())
    I = std::make_unique<ConstBoolInstr>(L, false);
  else
    I = std::make_unique<ConstNullInstr>(L);
  M.entry()->prepend(std::move(I));
  DefaultDef[Orig->id()] = L;
  return L;
}

void SSABuilder::rename(unsigned BlockId) {
  BasicBlock *BB = M.blocks()[BlockId].get();
  // Track how many pushes this block performed per variable so we can
  // pop them on exit (iterative version of the recursive algorithm
  // would need an explicit stack; recursion depth equals dom-tree
  // depth, fine for our programs).
  std::vector<std::pair<unsigned, unsigned>> Pushed; // (var, count)

  auto PushDef = [&](Local *Orig, Local *Fresh) {
    DefStack[Orig->id()].push_back(Fresh);
    if (!Pushed.empty() && Pushed.back().first == Orig->id())
      ++Pushed.back().second;
    else
      Pushed.emplace_back(Orig->id(), 1);
  };

  for (const auto &I : BB->instrs()) {
    // Rewrite uses (phis are renamed from predecessors, not here).
    if (!isa<PhiInstr>(I.get())) {
      for (unsigned OpIdx = 0; OpIdx != I->numOperands(); ++OpIdx) {
        Local *Orig = I->operand(OpIdx);
        if (Orig->id() < NumOrigLocals)
          I->setOperand(OpIdx, currentDef(Orig, BB));
      }
    }
    // Rewrite the definition.
    if (Local *D = I->dest()) {
      if (D->id() < NumOrigLocals) {
        Local *Fresh = freshVersion(D);
        I->setDest(Fresh);
        Fresh->setDef(I.get());
        PushDef(D, Fresh);
      }
    }
  }

  // Fill in phi operands of successors.
  for (BasicBlock *Succ : BB->successors()) {
    for (const auto &I : Succ->instrs()) {
      auto *Phi = dyn_cast<PhiInstr>(I.get());
      if (!Phi)
        break; // Phis are grouped at the block head.
      auto It = PhiVar.find(Phi);
      assert(It != PhiVar.end() && "phi without variable mapping");
      Phi->addIncoming(currentDef(It->second, BB), BB);
    }
  }

  for (unsigned Child : DT.children(BlockId))
    rename(Child);

  for (auto [Var, Count] : Pushed)
    for (unsigned I = 0; I != Count; ++I)
      DefStack[Var].pop_back();
}

void tsl::buildSSA(Program &P, Method &M) {
  if (!M.entry())
    return;
  SSABuilder(P, M).run();
}
