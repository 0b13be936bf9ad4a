//===-- Instr.h - ThinJ three-address instructions --------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Three-address instructions and basic blocks. Every operand use
/// carries an OperandRole that records whether the use is a plain value
/// use, a base-pointer use in a dereference, or an array-index /
/// length use. That classification is the semantic core of thin
/// slicing (paper Section 3): thin slices follow only the value-use
/// flow dependences and treat base-pointer and index flow as explainer
/// material.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_IR_INSTR_H
#define THINSLICER_IR_INSTR_H

#include "ir/Program.h"
#include "support/Casting.h"
#include "support/SourceLoc.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace tsl {

/// Discriminator for the Instr hierarchy.
enum class InstrKind {
  // Constants and inputs.
  ConstInt,
  ConstBool,
  ConstString,
  ConstNull,
  Read,
  // Formals.
  Param,
  // Scalar computation.
  Move,
  UnOp,
  BinOp,
  StrOp,
  // Allocation.
  New,
  NewArray,
  // Heap access.
  Load,
  Store,
  ArrayLoad,
  ArrayStore,
  ArrayLen,
  // Calls and type tests.
  Call,
  Cast,
  InstanceOf,
  // SSA.
  Phi,
  // Effects.
  Print,
  // Terminators.
  Goto,
  Branch,
  Ret,
  Throw,
};

/// How an instruction uses one of its operands (paper Section 3).
enum class OperandRole {
  Value, ///< Direct use: the operand's value feeds the computed value.
  Base,  ///< Base pointer of a field/array dereference.
  Index, ///< Array index or length; explainer material like Base.
};

/// Base class of all ThinJ instructions.
///
/// Operands are Local uses; the optional destination is the Local the
/// instruction defines. Instructions live in exactly one BasicBlock.
class Instr {
public:
  virtual ~Instr() = default;
  Instr(const Instr &) = delete;
  Instr &operator=(const Instr &) = delete;

  InstrKind kind() const { return Kind; }

  SourceLoc loc() const { return Loc; }
  void setLoc(SourceLoc L) { Loc = L; }

  BasicBlock *parent() const { return Parent; }
  void setParent(BasicBlock *BB) { Parent = BB; }

  /// Dense id within the owning method; valid after Method::renumber().
  unsigned id() const { return Id; }
  void setId(unsigned NewId) { Id = NewId; }

  /// Index of this instruction's line among its method's distinct
  /// lines; set by LineTable::indexMethod().
  unsigned lineRank() const { return LineRank; }
  void setLineRank(unsigned R) { LineRank = R; }

  Local *dest() const { return Dest; }
  void setDest(Local *L) { Dest = L; }

  unsigned numOperands() const { return static_cast<unsigned>(Ops.size()); }
  Local *operand(unsigned I) const {
    assert(I < Ops.size() && "operand index out of range");
    return Ops[I];
  }
  void setOperand(unsigned I, Local *L) {
    assert(I < Ops.size() && "operand index out of range");
    Ops[I] = L;
  }
  OperandRole operandRole(unsigned I) const {
    assert(I < Roles.size() && "operand index out of range");
    return Roles[I];
  }

  const std::vector<Local *> &operands() const { return Ops; }

  bool isTerminator() const {
    return Kind == InstrKind::Goto || Kind == InstrKind::Branch ||
           Kind == InstrKind::Ret || Kind == InstrKind::Throw;
  }

  /// Renders the instruction like "x1 = y0.f" for debugging and tests.
  std::string str(const Program &P) const;

protected:
  Instr(InstrKind Kind, Local *Dest) : Kind(Kind), Dest(Dest) {}

  void addOperand(Local *L, OperandRole Role) {
    Ops.push_back(L);
    Roles.push_back(Role);
  }

private:
  InstrKind Kind;
  Local *Dest;
  std::vector<Local *> Ops;
  std::vector<OperandRole> Roles;
  SourceLoc Loc;
  BasicBlock *Parent = nullptr;
  unsigned Id = ~0u;
  unsigned LineRank = ~0u;
};

//===----------------------------------------------------------------------===//
// Constants and inputs
//===----------------------------------------------------------------------===//

/// dest = <integer literal>
class ConstIntInstr : public Instr {
public:
  ConstIntInstr(Local *Dest, int64_t Value)
      : Instr(InstrKind::ConstInt, Dest), Value(Value) {}
  int64_t value() const { return Value; }
  static bool classof(const Instr *I) {
    return I->kind() == InstrKind::ConstInt;
  }

private:
  int64_t Value;
};

/// dest = true | false
class ConstBoolInstr : public Instr {
public:
  ConstBoolInstr(Local *Dest, bool Value)
      : Instr(InstrKind::ConstBool, Dest), Value(Value) {}
  bool value() const { return Value; }
  static bool classof(const Instr *I) {
    return I->kind() == InstrKind::ConstBool;
  }

private:
  bool Value;
};

/// dest = "literal". String literals are allocation sites for the
/// pointer analysis.
class ConstStringInstr : public Instr {
public:
  ConstStringInstr(Local *Dest, Symbol Value)
      : Instr(InstrKind::ConstString, Dest), Value(Value) {}
  Symbol value() const { return Value; }
  static bool classof(const Instr *I) {
    return I->kind() == InstrKind::ConstString;
  }

private:
  Symbol Value;
};

/// dest = null
class ConstNullInstr : public Instr {
public:
  explicit ConstNullInstr(Local *Dest) : Instr(InstrKind::ConstNull, Dest) {}
  static bool classof(const Instr *I) {
    return I->kind() == InstrKind::ConstNull;
  }
};

/// What a ReadInstr reads from the environment.
enum class ReadKind {
  Int,  ///< readInt(): an external integer.
  Line, ///< readLine(): a fresh external string (an allocation site).
};

/// dest = readInt() | readLine(). Models external input such as the
/// InputStream in the paper's Figure 1.
class ReadInstr : public Instr {
public:
  ReadInstr(Local *Dest, ReadKind RK)
      : Instr(InstrKind::Read, Dest), RK(RK) {}
  ReadKind readKind() const { return RK; }
  static bool classof(const Instr *I) { return I->kind() == InstrKind::Read; }

private:
  ReadKind RK;
};

//===----------------------------------------------------------------------===//
// Formals
//===----------------------------------------------------------------------===//

/// dest = <formal parameter #index>. Index 0 is `this` for instance
/// methods. These instructions double as the SDG's formal-in nodes.
class ParamInstr : public Instr {
public:
  ParamInstr(Local *Dest, unsigned Index)
      : Instr(InstrKind::Param, Dest), Index(Index) {}
  unsigned index() const { return Index; }
  static bool classof(const Instr *I) { return I->kind() == InstrKind::Param; }

private:
  unsigned Index;
};

//===----------------------------------------------------------------------===//
// Scalar computation
//===----------------------------------------------------------------------===//

/// dest = src
class MoveInstr : public Instr {
public:
  MoveInstr(Local *Dest, Local *Src) : Instr(InstrKind::Move, Dest) {
    addOperand(Src, OperandRole::Value);
  }
  Local *src() const { return operand(0); }
  static bool classof(const Instr *I) { return I->kind() == InstrKind::Move; }
};

/// Unary operator kinds.
enum class UnOpKind { Neg, Not };

/// dest = op src
class UnOpInstr : public Instr {
public:
  UnOpInstr(Local *Dest, UnOpKind Op, Local *Src)
      : Instr(InstrKind::UnOp, Dest), Op(Op) {
    addOperand(Src, OperandRole::Value);
  }
  UnOpKind op() const { return Op; }
  Local *src() const { return operand(0); }
  static bool classof(const Instr *I) { return I->kind() == InstrKind::UnOp; }

private:
  UnOpKind Op;
};

/// Binary operator kinds. Eq/Ne work on any matching types, including
/// reference identity; the relational and arithmetic operators are
/// integer-only.
enum class BinOpKind { Add, Sub, Mul, Div, Rem, Lt, Le, Gt, Ge, Eq, Ne };

/// dest = lhs op rhs
class BinOpInstr : public Instr {
public:
  BinOpInstr(Local *Dest, BinOpKind Op, Local *LHS, Local *RHS)
      : Instr(InstrKind::BinOp, Dest), Op(Op) {
    addOperand(LHS, OperandRole::Value);
    addOperand(RHS, OperandRole::Value);
  }
  BinOpKind op() const { return Op; }
  Local *lhs() const { return operand(0); }
  Local *rhs() const { return operand(1); }
  static bool classof(const Instr *I) { return I->kind() == InstrKind::BinOp; }

private:
  BinOpKind Op;
};

/// Builtin string operations. The receiver (and a second string where
/// present) is a value use: the result value derives from the string
/// contents. Integer position arguments are Index uses — they select
/// *which* part of the value flows, the string-level analogue of array
/// indices (see paper Sections 3-4: index flow is explainer material).
enum class StrOpKind {
  Concat,    ///< dest = a + b (fresh string; both Value).
  Substring, ///< dest = s.substring(from, to) (s Value, args Index).
  CharAt,    ///< dest = s.charAt(i) as int (s Value, i Index).
  IndexOf,   ///< dest = s.indexOf(needle) (both Value, int result).
  Length,    ///< dest = s.length() (Value, int result).
  Equals,    ///< dest = s.equals(t) (both Value, bool result).
  FromInt,   ///< dest = str(i): decimal rendering (Value; fresh string).
};

/// dest = strop(args...). Results of Concat/Substring are fresh string
/// objects (allocation sites).
class StrOpInstr : public Instr {
public:
  StrOpInstr(Local *Dest, StrOpKind Op, const std::vector<Local *> &Args)
      : Instr(InstrKind::StrOp, Dest), Op(Op) {
    for (unsigned I = 0, E = static_cast<unsigned>(Args.size()); I != E; ++I)
      addOperand(Args[I], roleFor(Op, I));
  }
  StrOpKind op() const { return Op; }

  /// True for operations whose result is a freshly allocated string.
  bool allocatesString() const {
    return Op == StrOpKind::Concat || Op == StrOpKind::Substring ||
           Op == StrOpKind::FromInt;
  }

  static bool classof(const Instr *I) { return I->kind() == InstrKind::StrOp; }

private:
  static OperandRole roleFor(StrOpKind Op, unsigned ArgIdx) {
    switch (Op) {
    case StrOpKind::Concat:
    case StrOpKind::IndexOf:
    case StrOpKind::Length:
    case StrOpKind::Equals:
    case StrOpKind::FromInt:
      return OperandRole::Value;
    case StrOpKind::Substring:
    case StrOpKind::CharAt:
      return ArgIdx == 0 ? OperandRole::Value : OperandRole::Index;
    }
    return OperandRole::Value;
  }

  StrOpKind Op;
};

//===----------------------------------------------------------------------===//
// Allocation
//===----------------------------------------------------------------------===//

/// dest = new C(...). The constructor call is a separate CallInstr
/// emitted by the frontend; this instruction is the allocation site.
class NewInstr : public Instr {
public:
  NewInstr(Local *Dest, ClassDef *Class)
      : Instr(InstrKind::New, Dest), Class(Class) {}
  ClassDef *allocatedClass() const { return Class; }
  static bool classof(const Instr *I) { return I->kind() == InstrKind::New; }

private:
  ClassDef *Class;
};

/// dest = new T[len]. The length is an Index use: it configures the
/// container, it does not produce the values stored in it.
class NewArrayInstr : public Instr {
public:
  NewArrayInstr(Local *Dest, const Type *ElemTy, Local *Len)
      : Instr(InstrKind::NewArray, Dest), ElemTy(ElemTy) {
    addOperand(Len, OperandRole::Index);
  }
  const Type *elementType() const { return ElemTy; }
  Local *length() const { return operand(0); }
  static bool classof(const Instr *I) {
    return I->kind() == InstrKind::NewArray;
  }

private:
  const Type *ElemTy;
};

//===----------------------------------------------------------------------===//
// Heap access
//===----------------------------------------------------------------------===//

/// dest = base.f, or dest = C.f for static fields (no base operand).
class LoadInstr : public Instr {
public:
  LoadInstr(Local *Dest, Local *Base, Field *F)
      : Instr(InstrKind::Load, Dest), F(F) {
    assert((Base != nullptr) != F->isStatic() &&
           "instance loads need a base; static loads must not have one");
    if (Base)
      addOperand(Base, OperandRole::Base);
  }
  Field *field() const { return F; }
  bool isStaticAccess() const { return F->isStatic(); }
  Local *base() const { return isStaticAccess() ? nullptr : operand(0); }
  static bool classof(const Instr *I) { return I->kind() == InstrKind::Load; }

private:
  Field *F;
};

/// base.f = src, or C.f = src for static fields.
class StoreInstr : public Instr {
public:
  StoreInstr(Local *Base, Field *F, Local *Src)
      : Instr(InstrKind::Store, nullptr), F(F) {
    assert((Base != nullptr) != F->isStatic() &&
           "instance stores need a base; static stores must not have one");
    if (Base)
      addOperand(Base, OperandRole::Base);
    addOperand(Src, OperandRole::Value);
  }
  Field *field() const { return F; }
  bool isStaticAccess() const { return F->isStatic(); }
  Local *base() const { return isStaticAccess() ? nullptr : operand(0); }
  Local *src() const { return operand(isStaticAccess() ? 0 : 1); }
  static bool classof(const Instr *I) { return I->kind() == InstrKind::Store; }

private:
  Field *F;
};

/// dest = array[index]
class ArrayLoadInstr : public Instr {
public:
  ArrayLoadInstr(Local *Dest, Local *Array, Local *Index)
      : Instr(InstrKind::ArrayLoad, Dest) {
    addOperand(Array, OperandRole::Base);
    addOperand(Index, OperandRole::Index);
  }
  Local *array() const { return operand(0); }
  Local *index() const { return operand(1); }
  static bool classof(const Instr *I) {
    return I->kind() == InstrKind::ArrayLoad;
  }
};

/// array[index] = src
class ArrayStoreInstr : public Instr {
public:
  ArrayStoreInstr(Local *Array, Local *Index, Local *Src)
      : Instr(InstrKind::ArrayStore, nullptr) {
    addOperand(Array, OperandRole::Base);
    addOperand(Index, OperandRole::Index);
    addOperand(Src, OperandRole::Value);
  }
  Local *array() const { return operand(0); }
  Local *index() const { return operand(1); }
  Local *src() const { return operand(2); }
  static bool classof(const Instr *I) {
    return I->kind() == InstrKind::ArrayStore;
  }
};

/// dest = array.length
class ArrayLenInstr : public Instr {
public:
  ArrayLenInstr(Local *Dest, Local *Array)
      : Instr(InstrKind::ArrayLen, Dest) {
    addOperand(Array, OperandRole::Base);
  }
  Local *array() const { return operand(0); }
  static bool classof(const Instr *I) {
    return I->kind() == InstrKind::ArrayLen;
  }
};

//===----------------------------------------------------------------------===//
// Calls and type tests
//===----------------------------------------------------------------------===//

/// dest? = call target(recv?, args...).
///
/// Calls to instance methods carry the receiver as operand 0 with role
/// Value: the receiver flows into the callee's `this` formal like any
/// argument (downstream base-pointer uses of `this` are what thin
/// slicing excludes, not the parameter passing itself). IsVirtual
/// selects dynamic dispatch; constructor and super calls are
/// statically dispatched instance calls. Dispatch on the receiver's
/// runtime type is control-like and is not a data operand.
class CallInstr : public Instr {
public:
  CallInstr(Local *Dest, Method *Target, bool IsVirtual, Local *Recv,
            const std::vector<Local *> &Args)
      : Instr(InstrKind::Call, Dest), Target(Target), IsVirtual(IsVirtual) {
    assert((Recv != nullptr) == !Target->isStatic() &&
           "instance calls carry a receiver; static calls do not");
    assert((!IsVirtual || Recv) && "virtual calls need a receiver");
    if (Recv)
      addOperand(Recv, OperandRole::Value);
    for (Local *A : Args)
      addOperand(A, OperandRole::Value);
  }

  /// The statically resolved target (dynamic dispatch starts here).
  Method *target() const { return Target; }
  bool isVirtual() const { return IsVirtual; }
  bool hasReceiver() const { return !Target->isStatic(); }
  Local *receiver() const { return hasReceiver() ? operand(0) : nullptr; }

  unsigned numArgs() const {
    return numOperands() - (hasReceiver() ? 1 : 0);
  }
  Local *arg(unsigned I) const {
    return operand(I + (hasReceiver() ? 1 : 0));
  }

  /// Operand index -> callee formal index. Identity: operand 0 is the
  /// receiver, which is formal 0 (`this`) for instance methods, and
  /// arguments follow in order for both kinds.
  unsigned formalIndexOfOperand(unsigned OpIdx) const { return OpIdx; }

  static bool classof(const Instr *I) { return I->kind() == InstrKind::Call; }

private:
  Method *Target;
  bool IsVirtual;
};

/// dest = (T) src. A checked downcast; ThinJ does not model the
/// exceptional edge (the paper's tool treats potential exceptions as
/// control dependences it deliberately leaves out of thin slices).
class CastInstr : public Instr {
public:
  CastInstr(Local *Dest, const Type *TargetTy, Local *Src)
      : Instr(InstrKind::Cast, Dest), TargetTy(TargetTy) {
    addOperand(Src, OperandRole::Value);
  }
  const Type *targetType() const { return TargetTy; }
  Local *src() const { return operand(0); }
  static bool classof(const Instr *I) { return I->kind() == InstrKind::Cast; }

private:
  const Type *TargetTy;
};

/// dest = src instanceof T
class InstanceOfInstr : public Instr {
public:
  InstanceOfInstr(Local *Dest, Local *Src, const Type *TestTy)
      : Instr(InstrKind::InstanceOf, Dest), TestTy(TestTy) {
    addOperand(Src, OperandRole::Value);
  }
  const Type *testType() const { return TestTy; }
  Local *src() const { return operand(0); }
  static bool classof(const Instr *I) {
    return I->kind() == InstrKind::InstanceOf;
  }

private:
  const Type *TestTy;
};

//===----------------------------------------------------------------------===//
// SSA
//===----------------------------------------------------------------------===//

/// dest = phi(in0, in1, ...). Incoming operand I corresponds to the
/// block at position I of incomingBlocks(). Inserted only by SSA
/// construction.
class PhiInstr : public Instr {
public:
  explicit PhiInstr(Local *Dest) : Instr(InstrKind::Phi, Dest) {}

  void addIncoming(Local *Value, BasicBlock *Pred) {
    addOperand(Value, OperandRole::Value);
    Blocks.push_back(Pred);
  }
  const std::vector<BasicBlock *> &incomingBlocks() const { return Blocks; }
  static bool classof(const Instr *I) { return I->kind() == InstrKind::Phi; }

private:
  std::vector<BasicBlock *> Blocks;
};

//===----------------------------------------------------------------------===//
// Effects
//===----------------------------------------------------------------------===//

/// print(src) — the observable output sink, a natural slicing seed.
class PrintInstr : public Instr {
public:
  explicit PrintInstr(Local *Src) : Instr(InstrKind::Print, nullptr) {
    addOperand(Src, OperandRole::Value);
  }
  Local *src() const { return operand(0); }
  static bool classof(const Instr *I) { return I->kind() == InstrKind::Print; }
};

//===----------------------------------------------------------------------===//
// Terminators
//===----------------------------------------------------------------------===//

/// goto target
class GotoInstr : public Instr {
public:
  explicit GotoInstr(BasicBlock *Target)
      : Instr(InstrKind::Goto, nullptr), Target(Target) {}
  BasicBlock *target() const { return Target; }
  void setTarget(BasicBlock *BB) { Target = BB; }
  static bool classof(const Instr *I) { return I->kind() == InstrKind::Goto; }

private:
  BasicBlock *Target;
};

/// if (cond) goto trueTarget else goto falseTarget
class BranchInstr : public Instr {
public:
  BranchInstr(Local *Cond, BasicBlock *TrueTarget, BasicBlock *FalseTarget)
      : Instr(InstrKind::Branch, nullptr), TrueTarget(TrueTarget),
        FalseTarget(FalseTarget) {
    addOperand(Cond, OperandRole::Value);
  }
  Local *cond() const { return operand(0); }
  BasicBlock *trueTarget() const { return TrueTarget; }
  BasicBlock *falseTarget() const { return FalseTarget; }
  static bool classof(const Instr *I) {
    return I->kind() == InstrKind::Branch;
  }

private:
  BasicBlock *TrueTarget;
  BasicBlock *FalseTarget;
};

/// return [src]
class RetInstr : public Instr {
public:
  explicit RetInstr(Local *Src) : Instr(InstrKind::Ret, nullptr) {
    if (Src)
      addOperand(Src, OperandRole::Value);
  }
  Local *src() const { return numOperands() ? operand(0) : nullptr; }
  static bool classof(const Instr *I) { return I->kind() == InstrKind::Ret; }
};

/// throw src — terminates the method (ThinJ has no catch).
class ThrowInstr : public Instr {
public:
  explicit ThrowInstr(Local *Src) : Instr(InstrKind::Throw, nullptr) {
    addOperand(Src, OperandRole::Value);
  }
  Local *src() const { return operand(0); }
  static bool classof(const Instr *I) { return I->kind() == InstrKind::Throw; }
};

//===----------------------------------------------------------------------===//
// BasicBlock
//===----------------------------------------------------------------------===//

/// A straight-line sequence of instructions ending in one terminator.
class BasicBlock {
public:
  BasicBlock(Method *Parent, unsigned Id) : Parent(Parent), Id(Id) {}

  Method *parent() const { return Parent; }
  /// Dense id within the owning method.
  unsigned id() const { return Id; }
  void setId(unsigned NewId) { Id = NewId; }

  const std::vector<std::unique_ptr<Instr>> &instrs() const { return Instrs; }
  bool empty() const { return Instrs.empty(); }

  /// Appends \p I; terminators must be appended last.
  Instr *append(std::unique_ptr<Instr> I);

  /// Inserts \p I at the front (used for phi insertion).
  Instr *prepend(std::unique_ptr<Instr> I);

  /// The block's terminator, or null while under construction.
  Instr *terminator() const {
    if (Instrs.empty() || !Instrs.back()->isTerminator())
      return nullptr;
    return Instrs.back().get();
  }

  /// Successor blocks derived from the terminator.
  std::vector<BasicBlock *> successors() const;

  /// Predecessors; maintained by Method::renumber().
  const std::vector<BasicBlock *> &preds() const { return Preds; }
  void clearPreds() { Preds.clear(); }
  void addPred(BasicBlock *BB) { Preds.push_back(BB); }

private:
  Method *Parent;
  unsigned Id;
  std::vector<std::unique_ptr<Instr>> Instrs;
  std::vector<BasicBlock *> Preds;
};

/// 64-bit dense key of one instruction: owner method id in the high
/// word, method-local (renumbered) instruction id in the low word.
/// The pointer-free identity the SDG codec writes and cg/ keys its
/// maps by instead of Instr* — see the dense identity note in
/// ir/Program.h. Valid after Method::renumber().
inline uint64_t denseInstrKey(const Instr *I) {
  return (static_cast<uint64_t>(I->parent()->parent()->id()) << 32) |
         I->id();
}

} // namespace tsl

#endif // THINSLICER_IR_INSTR_H
