//===-- Program.cpp - ThinJ program model ---------------------------------==//

#include "ir/Program.h"

#include "ir/Instr.h"

using namespace tsl;

//===----------------------------------------------------------------------===//
// Method
//===----------------------------------------------------------------------===//

Method::Method(Symbol Name, ClassDef *Owner, bool IsStatic, const Type *RetTy,
               std::vector<ParamSig> Params, unsigned Id)
    : Name(Name), Owner(Owner), IsStatic(IsStatic), RetTy(RetTy),
      Params(std::move(Params)), Id(Id) {}

Method::~Method() = default;

std::string Method::qualifiedName(const StringTable &Strings) const {
  std::string Out;
  if (Owner)
    Out = Strings.str(Owner->name()) + ".";
  Out += Strings.str(Name);
  return Out;
}

BasicBlock *Method::addBlock() {
  Blocks.push_back(std::make_unique<BasicBlock>(
      this, static_cast<unsigned>(Blocks.size())));
  return Blocks.back().get();
}

Local *Method::addLocal(Symbol BaseName, const Type *Ty, bool IsTemp,
                        unsigned Version) {
  Locals.push_back(std::make_unique<Local>(
      BaseName, Ty, static_cast<unsigned>(Locals.size()), Version, IsTemp));
  Locals.back()->setOwnerMethodId(Id);
  return Locals.back().get();
}

Method::DetachedBody Method::takeBody() {
  DetachedBody B;
  B.Entry = Entry;
  B.Blocks = std::move(Blocks);
  B.Locals = std::move(Locals);
  B.AllInstrs = std::move(AllInstrs);
  B.NumInstrs = NumInstrs;
  B.SSAForm = SSAForm;
  Entry = nullptr;
  Blocks.clear();
  Locals.clear();
  AllInstrs.clear();
  NumInstrs = 0;
  SSAForm = false;
  return B;
}

void Method::resetBody(DetachedBody Body) {
  Entry = Body.Entry;
  Blocks = std::move(Body.Blocks);
  Locals = std::move(Body.Locals);
  AllInstrs = std::move(Body.AllInstrs);
  NumInstrs = Body.NumInstrs;
  SSAForm = Body.SSAForm;
}

void Method::renumber() {
  unsigned NextId = 0;
  AllInstrs.clear();
  for (const auto &BB : Blocks) {
    BB->clearPreds();
  }
  for (const auto &BB : Blocks) {
    for (const auto &I : BB->instrs()) {
      I->setId(NextId++);
      I->setParent(BB.get());
      AllInstrs.push_back(I.get());
    }
    for (BasicBlock *Succ : BB->successors())
      Succ->addPred(BB.get());
  }
  NumInstrs = NextId;
}

void Method::removeUnreachableBlocks() {
  if (!Entry)
    return;
  std::vector<bool> Reachable(Blocks.size(), false);
  std::vector<BasicBlock *> Stack = {Entry};
  Reachable[Entry->id()] = true;
  while (!Stack.empty()) {
    BasicBlock *BB = Stack.back();
    Stack.pop_back();
    for (BasicBlock *Succ : BB->successors())
      if (!Reachable[Succ->id()]) {
        Reachable[Succ->id()] = true;
        Stack.push_back(Succ);
      }
  }
  std::vector<std::unique_ptr<BasicBlock>> Kept;
  for (auto &BB : Blocks)
    if (Reachable[BB->id()])
      Kept.push_back(std::move(BB));
  Blocks = std::move(Kept);
  for (unsigned I = 0, E = static_cast<unsigned>(Blocks.size()); I != E; ++I)
    Blocks[I]->setId(I);
  renumber();
}

//===----------------------------------------------------------------------===//
// ClassDef
//===----------------------------------------------------------------------===//

Field *ClassDef::findOwnField(Symbol FieldName) const {
  for (Field *F : Fields)
    if (F->name() == FieldName)
      return F;
  return nullptr;
}

Field *ClassDef::findField(Symbol FieldName) const {
  for (const ClassDef *C = this; C; C = C->superclass())
    if (Field *F = C->findOwnField(FieldName))
      return F;
  return nullptr;
}

Method *ClassDef::findOwnMethod(Symbol MethodName) const {
  for (Method *M : Methods)
    if (M->name() == MethodName)
      return M;
  return nullptr;
}

Method *ClassDef::findMethod(Symbol MethodName) const {
  for (const ClassDef *C = this; C; C = C->superclass())
    if (Method *M = C->findOwnMethod(MethodName))
      return M;
  return nullptr;
}

bool ClassDef::isSubclassOf(const ClassDef *Other) const {
  for (const ClassDef *C = this; C; C = C->superclass())
    if (C == Other)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Program
//===----------------------------------------------------------------------===//

Program::Program() {
  ObjectClass = addClass(Strings.intern("Object"));
}

ClassDef *Program::addClass(Symbol Name) {
  Classes.push_back(std::make_unique<ClassDef>(
      Name, static_cast<unsigned>(Classes.size())));
  return Classes.back().get();
}

ClassDef *Program::findClass(Symbol Name) const {
  for (const auto &C : Classes)
    if (C->name() == Name)
      return C.get();
  return nullptr;
}

Method *Program::addMethod(Symbol Name, ClassDef *Owner, bool IsStatic,
                           const Type *RetTy, std::vector<ParamSig> Params) {
  Methods.push_back(std::make_unique<Method>(
      Name, Owner, IsStatic, RetTy, std::move(Params),
      static_cast<unsigned>(Methods.size())));
  Method *M = Methods.back().get();
  if (Owner)
    Owner->addMethod(M);
  return M;
}

Field *Program::addField(Symbol Name, const Type *Ty, ClassDef *Owner,
                         bool IsStatic) {
  Fields.push_back(std::make_unique<Field>(
      Name, Ty, Owner, IsStatic, static_cast<unsigned>(Fields.size())));
  Field *F = Fields.back().get();
  Owner->addField(F);
  return F;
}
