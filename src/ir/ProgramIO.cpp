//===-- ProgramIO.cpp - Program snapshot codec --------------------------------==//

#include "ir/ProgramIO.h"

#include "support/Casting.h"

using namespace tsl;

//===----------------------------------------------------------------------===//
// Dense-key lookup helpers
//===----------------------------------------------------------------------===//

Method *tsl::methodForId(const Program &P, uint32_t Id) {
  if (Id >= P.methods().size())
    throw SerializeError("method id out of range");
  return P.methods()[Id].get();
}

const Instr *tsl::instrForKey(const Program &P, uint64_t Key) {
  Method *M = methodForId(P, static_cast<uint32_t>(Key >> 32));
  uint32_t IId = static_cast<uint32_t>(Key);
  if (IId >= M->instrs().size())
    throw SerializeError("instruction id out of range");
  return M->instrs()[IId];
}

namespace {

Field *fieldForId(const Program &P, uint32_t Id) {
  if (Id >= P.fields().size())
    throw SerializeError("field id out of range");
  return P.fields()[Id].get();
}

//===----------------------------------------------------------------------===//
// Type codec: primitive kinds inline, class types by class id, array
// types by recursive element. A null type is written as 0xFF.
//===----------------------------------------------------------------------===//

void encodeType(const Type *Ty, ByteWriter &W) {
  if (!Ty) {
    W.u8(0xFF);
    return;
  }
  W.u8(static_cast<uint8_t>(Ty->kind()));
  if (Ty->isClass())
    W.vu32(Ty->classDef()->id());
  else if (Ty->isArray())
    encodeType(Ty->element(), W);
}

const Type *decodeType(ByteReader &R, const Program &P) {
  uint8_t K = R.u8();
  if (K == 0xFF)
    return nullptr;
  switch (static_cast<TypeKind>(K)) {
  case TypeKind::Int:
    return P.types().intType();
  case TypeKind::Bool:
    return P.types().boolType();
  case TypeKind::Void:
    return P.types().voidType();
  case TypeKind::Null:
    return P.types().nullType();
  case TypeKind::String:
    return P.types().stringType();
  case TypeKind::Class: {
    uint32_t Id = R.vu32();
    if (Id >= P.classes().size())
      throw SerializeError("class id out of range in type");
    return P.types().classType(P.classes()[Id].get());
  }
  case TypeKind::Array:
    return P.types().arrayType(decodeType(R, P));
  }
  throw SerializeError("unknown type kind");
}

} // namespace

//===----------------------------------------------------------------------===//
// Instruction codec
//===----------------------------------------------------------------------===//

namespace {

/// Local id, or the null sentinel.
void putLocal(const Local *L, ByteWriter &W) {
  W.vu32(L ? L->id() + 1 : 0);
}

Local *getLocal(ByteReader &R, Method &M, bool Required = true) {
  uint32_t V = R.vu32();
  if (V == 0) {
    if (Required)
      throw SerializeError("missing operand local");
    return nullptr;
  }
  if (V - 1 >= M.locals().size())
    throw SerializeError("operand local id out of range");
  return M.locals()[V - 1].get();
}

BasicBlock *getBlock(ByteReader &R, Method &M) {
  uint32_t Id = R.vu32();
  if (Id >= M.blocks().size())
    throw SerializeError("block id out of range");
  return M.blocks()[Id].get();
}

void encodeInstr(const Instr *I, ByteWriter &W) {
  W.u8(static_cast<uint8_t>(I->kind()));
  W.vu32(I->loc().Line);
  W.vu32(I->loc().Col);
  switch (I->kind()) {
  case InstrKind::ConstInt: {
    const auto *C = cast<ConstIntInstr>(I);
    putLocal(C->dest(), W);
    W.vi64(C->value());
    break;
  }
  case InstrKind::ConstBool: {
    const auto *C = cast<ConstBoolInstr>(I);
    putLocal(C->dest(), W);
    W.u8(C->value());
    break;
  }
  case InstrKind::ConstString: {
    const auto *C = cast<ConstStringInstr>(I);
    putLocal(C->dest(), W);
    W.vu32(C->value());
    break;
  }
  case InstrKind::ConstNull:
    putLocal(I->dest(), W);
    break;
  case InstrKind::Read: {
    const auto *C = cast<ReadInstr>(I);
    putLocal(C->dest(), W);
    W.u8(static_cast<uint8_t>(C->readKind()));
    break;
  }
  case InstrKind::Param: {
    const auto *C = cast<ParamInstr>(I);
    putLocal(C->dest(), W);
    W.vu32(C->index());
    break;
  }
  case InstrKind::Move: {
    const auto *C = cast<MoveInstr>(I);
    putLocal(C->dest(), W);
    putLocal(C->src(), W);
    break;
  }
  case InstrKind::UnOp: {
    const auto *C = cast<UnOpInstr>(I);
    putLocal(C->dest(), W);
    W.u8(static_cast<uint8_t>(C->op()));
    putLocal(C->src(), W);
    break;
  }
  case InstrKind::BinOp: {
    const auto *C = cast<BinOpInstr>(I);
    putLocal(C->dest(), W);
    W.u8(static_cast<uint8_t>(C->op()));
    putLocal(C->lhs(), W);
    putLocal(C->rhs(), W);
    break;
  }
  case InstrKind::StrOp: {
    const auto *C = cast<StrOpInstr>(I);
    putLocal(C->dest(), W);
    W.u8(static_cast<uint8_t>(C->op()));
    W.vu32(C->numOperands());
    for (unsigned Op = 0; Op != C->numOperands(); ++Op)
      putLocal(C->operand(Op), W);
    break;
  }
  case InstrKind::New: {
    const auto *C = cast<NewInstr>(I);
    putLocal(C->dest(), W);
    W.vu32(C->allocatedClass()->id());
    break;
  }
  case InstrKind::NewArray: {
    const auto *C = cast<NewArrayInstr>(I);
    putLocal(C->dest(), W);
    encodeType(C->elementType(), W);
    putLocal(C->length(), W);
    break;
  }
  case InstrKind::Load: {
    const auto *C = cast<LoadInstr>(I);
    putLocal(C->dest(), W);
    putLocal(C->base(), W);
    W.vu32(C->field()->id());
    break;
  }
  case InstrKind::Store: {
    const auto *C = cast<StoreInstr>(I);
    putLocal(C->base(), W);
    W.vu32(C->field()->id());
    putLocal(C->src(), W);
    break;
  }
  case InstrKind::ArrayLoad: {
    const auto *C = cast<ArrayLoadInstr>(I);
    putLocal(C->dest(), W);
    putLocal(C->array(), W);
    putLocal(C->index(), W);
    break;
  }
  case InstrKind::ArrayStore: {
    const auto *C = cast<ArrayStoreInstr>(I);
    putLocal(C->array(), W);
    putLocal(C->index(), W);
    putLocal(C->src(), W);
    break;
  }
  case InstrKind::ArrayLen: {
    const auto *C = cast<ArrayLenInstr>(I);
    putLocal(C->dest(), W);
    putLocal(C->array(), W);
    break;
  }
  case InstrKind::Call: {
    const auto *C = cast<CallInstr>(I);
    putLocal(C->dest(), W);
    W.vu32(C->target()->id());
    W.u8(C->isVirtual());
    putLocal(C->receiver(), W);
    W.vu32(C->numArgs());
    for (unsigned A = 0; A != C->numArgs(); ++A)
      putLocal(C->arg(A), W);
    break;
  }
  case InstrKind::Cast: {
    const auto *C = cast<CastInstr>(I);
    putLocal(C->dest(), W);
    encodeType(C->targetType(), W);
    putLocal(C->src(), W);
    break;
  }
  case InstrKind::InstanceOf: {
    const auto *C = cast<InstanceOfInstr>(I);
    putLocal(C->dest(), W);
    putLocal(C->src(), W);
    encodeType(C->testType(), W);
    break;
  }
  case InstrKind::Phi: {
    const auto *C = cast<PhiInstr>(I);
    putLocal(C->dest(), W);
    W.vu32(C->numOperands());
    for (unsigned Op = 0; Op != C->numOperands(); ++Op) {
      putLocal(C->operand(Op), W);
      W.vu32(C->incomingBlocks()[Op]->id());
    }
    break;
  }
  case InstrKind::Print:
    putLocal(cast<PrintInstr>(I)->src(), W);
    break;
  case InstrKind::Goto:
    W.vu32(cast<GotoInstr>(I)->target()->id());
    break;
  case InstrKind::Branch: {
    const auto *C = cast<BranchInstr>(I);
    putLocal(C->cond(), W);
    W.vu32(C->trueTarget()->id());
    W.vu32(C->falseTarget()->id());
    break;
  }
  case InstrKind::Ret:
    putLocal(cast<RetInstr>(I)->src(), W);
    break;
  case InstrKind::Throw:
    putLocal(cast<ThrowInstr>(I)->src(), W);
    break;
  }
}

std::unique_ptr<Instr> decodeInstr(ByteReader &R, Program &P, Method &M) {
  uint8_t KindByte = R.u8();
  if (KindByte > static_cast<uint8_t>(InstrKind::Throw))
    throw SerializeError("unknown instruction kind");
  InstrKind K = static_cast<InstrKind>(KindByte);
  // Sequenced reads: argument evaluation order is unspecified.
  const unsigned LocLine = R.vu32();
  const unsigned LocCol = R.vu32();
  SourceLoc Loc(LocLine, LocCol);
  std::unique_ptr<Instr> I;
  switch (K) {
  case InstrKind::ConstInt: {
    Local *D = getLocal(R, M);
    I = std::make_unique<ConstIntInstr>(D, R.vi64());
    break;
  }
  case InstrKind::ConstBool: {
    Local *D = getLocal(R, M);
    I = std::make_unique<ConstBoolInstr>(D, R.u8() != 0);
    break;
  }
  case InstrKind::ConstString: {
    Local *D = getLocal(R, M);
    uint32_t Sym = R.vu32();
    if (Sym >= P.strings().size())
      throw SerializeError("string symbol out of range");
    I = std::make_unique<ConstStringInstr>(D, Sym);
    break;
  }
  case InstrKind::ConstNull:
    I = std::make_unique<ConstNullInstr>(getLocal(R, M));
    break;
  case InstrKind::Read: {
    Local *D = getLocal(R, M);
    uint8_t RK = R.u8();
    if (RK > static_cast<uint8_t>(ReadKind::Line))
      throw SerializeError("unknown read kind");
    I = std::make_unique<ReadInstr>(D, static_cast<ReadKind>(RK));
    break;
  }
  case InstrKind::Param: {
    Local *D = getLocal(R, M);
    I = std::make_unique<ParamInstr>(D, R.vu32());
    break;
  }
  case InstrKind::Move: {
    Local *D = getLocal(R, M);
    I = std::make_unique<MoveInstr>(D, getLocal(R, M));
    break;
  }
  case InstrKind::UnOp: {
    Local *D = getLocal(R, M);
    uint8_t Op = R.u8();
    if (Op > static_cast<uint8_t>(UnOpKind::Not))
      throw SerializeError("unknown unary op");
    I = std::make_unique<UnOpInstr>(D, static_cast<UnOpKind>(Op),
                                    getLocal(R, M));
    break;
  }
  case InstrKind::BinOp: {
    Local *D = getLocal(R, M);
    uint8_t Op = R.u8();
    if (Op > static_cast<uint8_t>(BinOpKind::Ne))
      throw SerializeError("unknown binary op");
    Local *L = getLocal(R, M);
    Local *RHS = getLocal(R, M);
    I = std::make_unique<BinOpInstr>(D, static_cast<BinOpKind>(Op), L, RHS);
    break;
  }
  case InstrKind::StrOp: {
    Local *D = getLocal(R, M);
    uint8_t Op = R.u8();
    if (Op > static_cast<uint8_t>(StrOpKind::FromInt))
      throw SerializeError("unknown string op");
    uint32_t N = R.vu32();
    std::vector<Local *> Args;
    Args.reserve(N);
    for (uint32_t A = 0; A != N; ++A)
      Args.push_back(getLocal(R, M));
    I = std::make_unique<StrOpInstr>(D, static_cast<StrOpKind>(Op), Args);
    break;
  }
  case InstrKind::New: {
    Local *D = getLocal(R, M);
    uint32_t Cid = R.vu32();
    if (Cid >= P.classes().size())
      throw SerializeError("class id out of range in new");
    I = std::make_unique<NewInstr>(D, P.classes()[Cid].get());
    break;
  }
  case InstrKind::NewArray: {
    Local *D = getLocal(R, M);
    const Type *Elem = decodeType(R, P);
    if (!Elem)
      throw SerializeError("missing array element type");
    I = std::make_unique<NewArrayInstr>(D, Elem, getLocal(R, M));
    break;
  }
  case InstrKind::Load: {
    Local *D = getLocal(R, M);
    Local *Base = getLocal(R, M, /*Required=*/false);
    Field *F = fieldForId(P, R.vu32());
    if ((Base != nullptr) == F->isStatic())
      throw SerializeError("load base/static mismatch");
    I = std::make_unique<LoadInstr>(D, Base, F);
    break;
  }
  case InstrKind::Store: {
    Local *Base = getLocal(R, M, /*Required=*/false);
    Field *F = fieldForId(P, R.vu32());
    if ((Base != nullptr) == F->isStatic())
      throw SerializeError("store base/static mismatch");
    I = std::make_unique<StoreInstr>(Base, F, getLocal(R, M));
    break;
  }
  case InstrKind::ArrayLoad: {
    Local *D = getLocal(R, M);
    Local *A = getLocal(R, M);
    I = std::make_unique<ArrayLoadInstr>(D, A, getLocal(R, M));
    break;
  }
  case InstrKind::ArrayStore: {
    Local *A = getLocal(R, M);
    Local *Idx = getLocal(R, M);
    I = std::make_unique<ArrayStoreInstr>(A, Idx, getLocal(R, M));
    break;
  }
  case InstrKind::ArrayLen: {
    Local *D = getLocal(R, M);
    I = std::make_unique<ArrayLenInstr>(D, getLocal(R, M));
    break;
  }
  case InstrKind::Call: {
    Local *D = getLocal(R, M, /*Required=*/false);
    Method *Target = methodForId(P, R.vu32());
    bool IsVirtual = R.u8() != 0;
    Local *Recv = getLocal(R, M, /*Required=*/false);
    if ((Recv != nullptr) == Target->isStatic())
      throw SerializeError("call receiver/static mismatch");
    uint32_t N = R.vu32();
    std::vector<Local *> Args;
    Args.reserve(N);
    for (uint32_t A = 0; A != N; ++A)
      Args.push_back(getLocal(R, M));
    I = std::make_unique<CallInstr>(D, Target, IsVirtual, Recv, Args);
    break;
  }
  case InstrKind::Cast: {
    Local *D = getLocal(R, M);
    const Type *Ty = decodeType(R, P);
    if (!Ty)
      throw SerializeError("missing cast target type");
    I = std::make_unique<CastInstr>(D, Ty, getLocal(R, M));
    break;
  }
  case InstrKind::InstanceOf: {
    Local *D = getLocal(R, M);
    Local *Src = getLocal(R, M);
    const Type *Ty = decodeType(R, P);
    if (!Ty)
      throw SerializeError("missing instanceof test type");
    I = std::make_unique<InstanceOfInstr>(D, Src, Ty);
    break;
  }
  case InstrKind::Phi: {
    Local *D = getLocal(R, M);
    auto Phi = std::make_unique<PhiInstr>(D);
    uint32_t N = R.vu32();
    for (uint32_t In = 0; In != N; ++In) {
      Local *V = getLocal(R, M);
      Phi->addIncoming(V, getBlock(R, M));
    }
    I = std::move(Phi);
    break;
  }
  case InstrKind::Print:
    I = std::make_unique<PrintInstr>(getLocal(R, M));
    break;
  case InstrKind::Goto:
    I = std::make_unique<GotoInstr>(getBlock(R, M));
    break;
  case InstrKind::Branch: {
    Local *Cond = getLocal(R, M);
    BasicBlock *T = getBlock(R, M);
    I = std::make_unique<BranchInstr>(Cond, T, getBlock(R, M));
    break;
  }
  case InstrKind::Ret:
    I = std::make_unique<RetInstr>(getLocal(R, M, /*Required=*/false));
    break;
  case InstrKind::Throw:
    I = std::make_unique<ThrowInstr>(getLocal(R, M));
    break;
  }
  I->setLoc(Loc);
  return I;
}

} // namespace

//===----------------------------------------------------------------------===//
// Program codec
//===----------------------------------------------------------------------===//

void tsl::encodeProgram(const Program &P, ByteWriter &W) {
  // 1. Interned strings in symbol order (symbol 0 is "" and implicit).
  const StringTable &S = P.strings();
  W.vu64(S.size());
  for (Symbol Sym = 1; Sym < S.size(); ++Sym)
    W.str(S.str(Sym));

  // 2. Classes in id order. Id 0 is Object, created by the Program
  // constructor; only its existence is assumed, its name is interned
  // like any other. Superclass links follow once all classes exist.
  W.vu64(P.classes().size());
  for (std::size_t C = 1; C != P.classes().size(); ++C)
    W.vu32(P.classes()[C]->name());
  for (const auto &C : P.classes())
    W.vu32(C->superclass() ? C->superclass()->id() + 1 : 0);

  // 3. Fields in id order.
  W.vu64(P.fields().size());
  for (const auto &F : P.fields()) {
    W.vu32(F->name());
    encodeType(F->type(), W);
    W.vu32(F->owner()->id());
    W.u8(F->isStatic());
  }

  // 4. Method shells in id order (bodies follow, so CallInstr targets
  // resolve during body decode).
  W.vu64(P.methods().size());
  for (const auto &M : P.methods()) {
    W.vu32(M->name());
    W.vu32(M->owner() ? M->owner()->id() + 1 : 0);
    W.u8(M->isStatic());
    encodeType(M->returnType(), W);
    W.vu64(M->params().size());
    for (const ParamSig &Sig : M->params()) {
      W.vu32(Sig.Name);
      encodeType(Sig.Ty, W);
    }
  }
  W.vu32(P.mainMethod() ? P.mainMethod()->id() + 1 : 0);

  // 5. Bodies in method-id order: locals, blocks, instructions (in
  // block order, so decode + renumber reproduces instruction ids).
  for (const auto &M : P.methods()) {
    W.vu64(M->locals().size());
    for (const auto &L : M->locals()) {
      W.vu32(L->baseName());
      encodeType(L->type(), W);
      W.u8(L->isTemp());
      W.vu32(L->version());
    }
    W.vu64(M->blocks().size());
    for (const auto &BB : M->blocks()) {
      W.vu64(BB->instrs().size());
      for (const auto &I : BB->instrs())
        encodeInstr(I.get(), W);
    }
    W.vu32(M->entry() ? M->entry()->id() + 1 : 0);
    W.u8(M->isSSA());
  }
}

std::unique_ptr<Program> tsl::decodeProgram(ByteReader &R) {
  auto P = std::make_unique<Program>();

  // 1. Strings: interning in symbol order reproduces each symbol.
  uint64_t NumStrings = R.vu64();
  for (uint64_t Sym = 1; Sym < NumStrings; ++Sym) {
    std::string Text = R.str();
    if (P->strings().intern(Text) != Sym)
      throw SerializeError("string table order mismatch");
  }

  // 2. Classes. Object (id 0) pre-exists from the Program ctor; the
  // encoder relies on that and serialized only classes 1..N-1.
  uint64_t NumClasses = R.vu64();
  if (NumClasses == 0)
    throw SerializeError("class table missing Object");
  for (uint64_t C = 1; C != NumClasses; ++C) {
    uint32_t Name = R.vu32();
    if (Name >= P->strings().size())
      throw SerializeError("class name symbol out of range");
    P->addClass(Name);
  }
  for (uint64_t C = 0; C != NumClasses; ++C) {
    uint32_t Super = R.vu32();
    if (Super) {
      if (Super - 1 >= NumClasses)
        throw SerializeError("superclass id out of range");
      P->classes()[C]->setSuperclass(P->classes()[Super - 1].get());
    }
  }

  // 3. Fields.
  uint64_t NumFields = R.vu64();
  for (uint64_t F = 0; F != NumFields; ++F) {
    uint32_t Name = R.vu32();
    const Type *Ty = decodeType(R, *P);
    uint32_t Owner = R.vu32();
    bool IsStatic = R.u8() != 0;
    if (!Ty || Owner >= NumClasses)
      throw SerializeError("malformed field record");
    P->addField(Name, Ty, P->classes()[Owner].get(), IsStatic);
  }

  // 4. Method shells.
  uint64_t NumMethods = R.vu64();
  for (uint64_t M = 0; M != NumMethods; ++M) {
    uint32_t Name = R.vu32();
    uint32_t Owner = R.vu32();
    bool IsStatic = R.u8() != 0;
    const Type *RetTy = decodeType(R, *P);
    if (!RetTy || (Owner && Owner - 1 >= NumClasses))
      throw SerializeError("malformed method record");
    uint64_t NumParams = R.vu64();
    std::vector<ParamSig> Params;
    Params.reserve(NumParams);
    for (uint64_t Pi = 0; Pi != NumParams; ++Pi) {
      uint32_t PName = R.vu32();
      const Type *PTy = decodeType(R, *P);
      if (!PTy)
        throw SerializeError("malformed parameter record");
      Params.push_back({PName, PTy});
    }
    P->addMethod(Name, Owner ? P->classes()[Owner - 1].get() : nullptr,
                 IsStatic, RetTy, std::move(Params));
  }
  uint32_t MainId = R.vu32();
  if (MainId) {
    if (MainId - 1 >= NumMethods)
      throw SerializeError("main method id out of range");
    P->setMainMethod(P->methods()[MainId - 1].get());
  }

  // 5. Bodies. addLocal/addBlock assign ids sequentially, and append
  // order + renumber reproduce instruction ids.
  for (uint64_t Mi = 0; Mi != NumMethods; ++Mi) {
    Method &M = *P->methods()[Mi];
    uint64_t NumLocals = R.vu64();
    for (uint64_t L = 0; L != NumLocals; ++L) {
      uint32_t Name = R.vu32();
      const Type *Ty = decodeType(R, *P);
      bool IsTemp = R.u8() != 0;
      uint32_t Version = R.vu32();
      if (!Ty)
        throw SerializeError("malformed local record");
      M.addLocal(Name, Ty, IsTemp, Version);
    }
    uint64_t NumBlocks = R.vu64();
    // Blocks are created up front: terminators and phis reference
    // forward blocks by id before those blocks' payloads are read.
    for (uint64_t B = 0; B != NumBlocks; ++B)
      M.addBlock();
    for (uint64_t B = 0; B != NumBlocks; ++B) {
      BasicBlock *BB = M.blocks()[B].get();
      uint64_t NumInstrs = R.vu64();
      for (uint64_t I = 0; I != NumInstrs; ++I)
        BB->append(decodeInstr(R, *P, M));
    }
    uint32_t EntryId = R.vu32();
    if (EntryId) {
      if (EntryId - 1 >= NumBlocks)
        throw SerializeError("entry block id out of range");
      M.setEntry(M.blocks()[EntryId - 1].get());
    }
    M.setSSA(R.u8() != 0);
    M.renumber();
    P->lineTable().indexMethod(M);
  }
  P->lineTable().link(*P);
  return P;
}
