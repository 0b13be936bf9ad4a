//===-- Instr.cpp - ThinJ instructions ------------------------------------==//

#include "ir/Instr.h"

using namespace tsl;

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

static std::string localName(const Program &P, const Local *L) {
  std::string Out = P.strings().str(L->baseName());
  if (Out.empty()) {
    Out = 't';
    Out += std::to_string(L->id());
  }
  if (L->version()) {
    Out += '.';
    Out += std::to_string(L->version());
  }
  return Out;
}

static const char *binOpName(BinOpKind Op) {
  switch (Op) {
  case BinOpKind::Add:
    return "+";
  case BinOpKind::Sub:
    return "-";
  case BinOpKind::Mul:
    return "*";
  case BinOpKind::Div:
    return "/";
  case BinOpKind::Rem:
    return "%";
  case BinOpKind::Lt:
    return "<";
  case BinOpKind::Le:
    return "<=";
  case BinOpKind::Gt:
    return ">";
  case BinOpKind::Ge:
    return ">=";
  case BinOpKind::Eq:
    return "==";
  case BinOpKind::Ne:
    return "!=";
  }
  return "?";
}

static const char *strOpName(StrOpKind Op) {
  switch (Op) {
  case StrOpKind::Concat:
    return "concat";
  case StrOpKind::Substring:
    return "substring";
  case StrOpKind::CharAt:
    return "charAt";
  case StrOpKind::IndexOf:
    return "indexOf";
  case StrOpKind::Length:
    return "length";
  case StrOpKind::Equals:
    return "equals";
  case StrOpKind::FromInt:
    return "str";
  }
  return "?";
}

/// Renders \p Ty with class names resolved through \p S.
static std::string typeName(const StringTable &S, const Type *Ty) {
  if (Ty->isClass())
    return S.str(Ty->classDef()->name());
  if (Ty->isArray())
    return typeName(S, Ty->element()) + "[]";
  return Ty->str();
}

std::string Instr::str(const Program &P) const {
  const StringTable &S = P.strings();
  std::string Out;
  if (Dest)
    Out = localName(P, Dest) + " = ";

  auto Op = [&](unsigned I) { return localName(P, operand(I)); };

  switch (Kind) {
  case InstrKind::ConstInt:
    Out += std::to_string(cast<ConstIntInstr>(this)->value());
    break;
  case InstrKind::ConstBool:
    Out += cast<ConstBoolInstr>(this)->value() ? "true" : "false";
    break;
  case InstrKind::ConstString:
    Out += "\"" + S.str(cast<ConstStringInstr>(this)->value()) + "\"";
    break;
  case InstrKind::ConstNull:
    Out += "null";
    break;
  case InstrKind::Read:
    Out += cast<ReadInstr>(this)->readKind() == ReadKind::Int ? "readInt()"
                                                              : "readLine()";
    break;
  case InstrKind::Param:
    Out += "param#" + std::to_string(cast<ParamInstr>(this)->index());
    break;
  case InstrKind::Move:
    Out += Op(0);
    break;
  case InstrKind::UnOp:
    Out += (cast<UnOpInstr>(this)->op() == UnOpKind::Neg ? "-" : "!");
    Out += Op(0);
    break;
  case InstrKind::BinOp:
    Out += Op(0);
    Out += " ";
    Out += binOpName(cast<BinOpInstr>(this)->op());
    Out += " ";
    Out += Op(1);
    break;
  case InstrKind::StrOp: {
    const auto *SO = cast<StrOpInstr>(this);
    Out += strOpName(SO->op());
    Out += "(";
    for (unsigned I = 0; I != SO->numOperands(); ++I) {
      if (I)
        Out += ", ";
      Out += Op(I);
    }
    Out += ")";
    break;
  }
  case InstrKind::New:
    Out += "new " + S.str(cast<NewInstr>(this)->allocatedClass()->name());
    break;
  case InstrKind::NewArray:
    Out += "new " + typeName(S, cast<NewArrayInstr>(this)->elementType()) +
           "[" + Op(0) + "]";
    break;
  case InstrKind::Load: {
    const auto *L = cast<LoadInstr>(this);
    if (L->isStaticAccess())
      Out += S.str(L->field()->owner()->name()) + "." +
             S.str(L->field()->name());
    else
      Out += Op(0) + "." + S.str(L->field()->name());
    break;
  }
  case InstrKind::Store: {
    const auto *St = cast<StoreInstr>(this);
    if (St->isStaticAccess())
      Out += S.str(St->field()->owner()->name()) + "." +
             S.str(St->field()->name()) + " = " + Op(0);
    else
      Out += Op(0) + "." + S.str(St->field()->name()) + " = " + Op(1);
    break;
  }
  case InstrKind::ArrayLoad:
    Out += Op(0) + "[" + Op(1) + "]";
    break;
  case InstrKind::ArrayStore:
    Out += Op(0) + "[" + Op(1) + "] = " + Op(2);
    break;
  case InstrKind::ArrayLen:
    Out += Op(0) + ".length";
    break;
  case InstrKind::Call: {
    const auto *C = cast<CallInstr>(this);
    Out += C->isVirtual() ? "callvirt " : "call ";
    Out += C->target()->qualifiedName(S);
    Out += "(";
    for (unsigned I = 0; I != C->numOperands(); ++I) {
      if (I)
        Out += ", ";
      Out += Op(I);
    }
    Out += ")";
    break;
  }
  case InstrKind::Cast:
    Out += '(';
    Out += typeName(S, cast<CastInstr>(this)->targetType());
    Out += ") ";
    Out += Op(0);
    break;
  case InstrKind::InstanceOf:
    Out += Op(0) + " instanceof " +
           typeName(S, cast<InstanceOfInstr>(this)->testType());
    break;
  case InstrKind::Phi: {
    Out += "phi(";
    for (unsigned I = 0; I != numOperands(); ++I) {
      if (I)
        Out += ", ";
      Out += Op(I);
    }
    Out += ")";
    break;
  }
  case InstrKind::Print:
    Out += "print(" + Op(0) + ")";
    break;
  case InstrKind::Goto:
    Out += "goto bb" + std::to_string(cast<GotoInstr>(this)->target()->id());
    break;
  case InstrKind::Branch: {
    const auto *B = cast<BranchInstr>(this);
    Out += "if " + Op(0) + " goto bb" + std::to_string(B->trueTarget()->id()) +
           " else bb" + std::to_string(B->falseTarget()->id());
    break;
  }
  case InstrKind::Ret:
    Out += numOperands() ? "return " + Op(0) : "return";
    break;
  case InstrKind::Throw:
    Out += "throw " + Op(0);
    break;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// BasicBlock
//===----------------------------------------------------------------------===//

Instr *BasicBlock::append(std::unique_ptr<Instr> I) {
  assert(!terminator() && "appending past a terminator");
  I->setParent(this);
  if (I->dest())
    I->dest()->setDef(I.get());
  Instrs.push_back(std::move(I));
  return Instrs.back().get();
}

Instr *BasicBlock::prepend(std::unique_ptr<Instr> I) {
  I->setParent(this);
  if (I->dest())
    I->dest()->setDef(I.get());
  Instrs.insert(Instrs.begin(), std::move(I));
  return Instrs.front().get();
}

std::vector<BasicBlock *> BasicBlock::successors() const {
  std::vector<BasicBlock *> Out;
  Instr *Term = terminator();
  if (!Term)
    return Out;
  if (auto *G = dyn_cast<GotoInstr>(Term)) {
    Out.push_back(G->target());
  } else if (auto *B = dyn_cast<BranchInstr>(Term)) {
    Out.push_back(B->trueTarget());
    if (B->falseTarget() != B->trueTarget())
      Out.push_back(B->falseTarget());
  }
  // Ret and Throw have no successors.
  return Out;
}
