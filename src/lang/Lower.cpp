//===-- Lower.cpp - AST -> IR lowering --------------------------------------==//

#include "lang/Lower.h"

#include "ir/Instr.h"
#include "ir/SSA.h"
#include "ir/Verifier.h"
#include "lang/Parser.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace tsl;

namespace {

/// A typed value produced by expression lowering. Null Val with void
/// type marks a void call result; null Val with null type marks a
/// lowering error (already diagnosed).
struct RValue {
  Local *Val = nullptr;
  const Type *Ty = nullptr;

  bool isError() const { return !Ty; }
  bool isVoid() const { return Ty && Ty->isVoid(); }
};

class Lowering;

/// Lowers one method body into basic blocks of instructions.
class BodyLowering {
public:
  BodyLowering(Lowering &Outer, Method *M, ClassDef *Enclosing)
      : Outer(Outer), M(M), Enclosing(Enclosing) {}

  /// Lowers the declared parameters and \p Body.
  void run(const MethodDeclAst *Decl);

  /// Lowers a synthetic body that stores each static field's
  /// initializer (used for $clinit).
  void runClinit(const std::vector<std::pair<Field *, const FieldDeclAst *>>
                     &StaticFields);

private:
  friend class Lowering;

  //===------------------------------------------------------------------===//
  // Infrastructure
  //===------------------------------------------------------------------===//

  void error(SourceLoc Loc, const std::string &Msg);
  Program &program();
  const Type *typeOf(const TypeExprAst &T, bool AllowVoid);

  Local *newTemp(const Type *Ty) {
    return M->addLocal(/*BaseName=*/0, Ty, /*IsTemp=*/true);
  }

  template <typename T, typename... ArgTs> Instr *emit(SourceLoc Loc,
                                                       ArgTs &&...Args) {
    auto I = std::make_unique<T>(std::forward<ArgTs>(Args)...);
    I->setLoc(Loc);
    return Cur->append(std::move(I));
  }

  /// Starts a fresh block and makes it current.
  BasicBlock *startBlock() {
    Cur = M->addBlock();
    return Cur;
  }

  bool blockTerminated() const { return Cur->terminator() != nullptr; }

  //===------------------------------------------------------------------===//
  // Scopes
  //===------------------------------------------------------------------===//

  void pushScope() { Scopes.emplace_back(); }
  void popScope() { Scopes.pop_back(); }
  Local *lookupLocal(Symbol Name) const {
    for (auto It = Scopes.rbegin(), E = Scopes.rend(); It != E; ++It) {
      auto Found = It->find(Name);
      if (Found != It->end())
        return Found->second;
    }
    return nullptr;
  }
  bool declareLocal(Symbol Name, Local *L, SourceLoc Loc) {
    if (Scopes.back().count(Name)) {
      error(Loc, "redeclaration of '" + program().strings().str(Name) + "'");
      return false;
    }
    Scopes.back().emplace(Name, L);
    return true;
  }

  //===------------------------------------------------------------------===//
  // Types
  //===------------------------------------------------------------------===//

  bool isAssignable(const Type *To, const Type *From) const;
  std::string typeName(const Type *Ty) const;

  //===------------------------------------------------------------------===//
  // Statements
  //===------------------------------------------------------------------===//

  void lowerStmt(const StmtAst *S);
  void lowerBlock(const BlockStmt *B);
  void lowerVarDecl(const VarDeclStmt *S);
  void lowerAssign(const AssignStmt *S);
  void lowerIf(const IfStmt *S);
  void lowerWhile(const WhileStmt *S);
  void lowerReturn(const ReturnStmt *S);
  void lowerSuperCall(const SuperCallStmt *S);

  //===------------------------------------------------------------------===//
  // Expressions
  //===------------------------------------------------------------------===//

  RValue lowerExpr(const ExprAst *E);
  RValue lowerValue(const ExprAst *E); ///< lowerExpr + reject void.
  RValue lowerNameRef(const NameRefExpr *E);
  RValue lowerBinary(const BinaryExpr *E);
  RValue lowerLogical(const LogicalExpr *E);
  RValue lowerFieldAccess(const FieldAccessExpr *E);
  RValue lowerCall(const CallExprAst *E);
  RValue lowerNewObject(const NewObjectExpr *E);
  RValue lowerStringMethod(const CallExprAst *E, RValue Recv,
                           const std::string &Name);
  RValue lowerMethodCall(SourceLoc Loc, RValue Recv, Method *Target,
                         bool IsVirtual, const CallExprAst *E);
  std::vector<Local *> lowerArgs(Method *Target, const CallExprAst *E,
                                 bool &Ok);

  /// Resolves a bare or dotted name to a class when it denotes one.
  ClassDef *asClassName(const ExprAst *E) const;

  RValue errorValue() { return RValue{}; }

  Lowering &Outer;
  Method *M;
  ClassDef *Enclosing;
  BasicBlock *Cur = nullptr;
  Local *ThisLocal = nullptr;
  std::vector<std::unordered_map<Symbol, Local *>> Scopes;

  struct LoopCtx {
    BasicBlock *ContinueTarget;
    BasicBlock *BreakTarget;
  };
  std::vector<LoopCtx> Loops;
};

/// Whole-module lowering: builds the class hierarchy and signatures,
/// then lowers bodies.
class Lowering {
public:
  Lowering(const AstModule &Module, DiagnosticEngine &Diag)
      : Module(Module), Diag(Diag), P(std::make_unique<Program>()) {}

  /// Adopt mode, for incremental relowering: operates on an existing
  /// program instead of building a fresh one. run() must not be called
  /// on an adopted Lowering; use relowerBody().
  Lowering(Program &Existing, const AstModule &Module, DiagnosticEngine &Diag)
      : Module(Module), Diag(Diag), Adopted(&Existing) {}

  std::unique_ptr<Program> run();

  /// Lowers one method body against the adopted program. The caller
  /// has already detached the method's previous body.
  void relowerBody(Method &M, const MethodDeclAst &Decl) {
    Program &PP = prog();
    if (TopLevel.empty())
      for (const auto &MP : PP.methods())
        if (!MP->owner() && PP.strings().str(MP->name()) != "$clinit")
          TopLevel[PP.strings().str(MP->name())] = MP.get();
    BodyLowering BL(*this, &M, M.owner());
    BL.run(&Decl);
  }

private:
  friend class BodyLowering;

  /// The program being built (cold) or patched (adopt mode).
  Program &prog() const { return Adopted ? *Adopted : *P; }

  void declareClasses();
  void declareMembers();
  void checkOverrides();
  void buildClinit();
  void lowerBodies();
  void selectMain();

  const AstModule &Module;
  DiagnosticEngine &Diag;
  std::unique_ptr<Program> P;
  Program *Adopted = nullptr;

  // AST back-pointers for body lowering.
  std::unordered_map<const MethodDeclAst *, Method *> MethodOf;
  std::unordered_map<Method *, ClassDef *> EnclosingOf;
  std::unordered_map<std::string, Method *> TopLevel;
  std::vector<std::pair<Field *, const FieldDeclAst *>> StaticFields;
  Method *Clinit = nullptr;
};

} // namespace

//===----------------------------------------------------------------------===//
// BodyLowering: infrastructure
//===----------------------------------------------------------------------===//

void BodyLowering::error(SourceLoc Loc, const std::string &Msg) {
  Outer.Diag.error(Loc, Msg);
}

Program &BodyLowering::program() { return Outer.prog(); }

const Type *BodyLowering::typeOf(const TypeExprAst &T, bool AllowVoid) {
  Program &P = program();
  const Type *Base = nullptr;
  switch (T.BaseKind) {
  case TypeExprAst::Base::Int:
    Base = P.types().intType();
    break;
  case TypeExprAst::Base::Bool:
    Base = P.types().boolType();
    break;
  case TypeExprAst::Base::String:
    Base = P.types().stringType();
    break;
  case TypeExprAst::Base::Void:
    if (!AllowVoid || T.ArrayRank) {
      error(T.Loc, "'void' is not usable here");
      return nullptr;
    }
    return P.types().voidType();
  case TypeExprAst::Base::Named: {
    ClassDef *C = P.findClass(P.strings().lookup(T.Name));
    if (!C) {
      error(T.Loc, "unknown class '" + T.Name + "'");
      return nullptr;
    }
    Base = P.types().classType(C);
    break;
  }
  }
  for (unsigned I = 0; I != T.ArrayRank; ++I)
    Base = P.types().arrayType(Base);
  return Base;
}

bool BodyLowering::isAssignable(const Type *To, const Type *From) const {
  if (To == From)
    return true;
  if (From->isNull() && To->isReference())
    return true;
  if (To->isClass() && To->classDef() == Outer.prog().objectClass() &&
      From->isReference())
    return true;
  if (To->isClass() && From->isClass() &&
      From->classDef()->isSubclassOf(To->classDef()))
    return true;
  return false;
}

std::string BodyLowering::typeName(const Type *Ty) const {
  if (Ty->isClass())
    return Outer.prog().strings().str(Ty->classDef()->name());
  if (Ty->isArray())
    return typeName(Ty->element()) + "[]";
  return Ty->str();
}

//===----------------------------------------------------------------------===//
// BodyLowering: entry points
//===----------------------------------------------------------------------===//

void BodyLowering::run(const MethodDeclAst *Decl) {
  Program &P = program();
  startBlock();
  M->setEntry(Cur);
  pushScope();

  unsigned FormalIdx = 0;
  if (!M->isStatic()) {
    ThisLocal = M->addLocal(P.strings().intern("this"),
                            P.types().classType(Enclosing));
    emit<ParamInstr>(Decl->Loc, ThisLocal, FormalIdx++);
  }
  for (const ParamSig &Sig : M->params()) {
    Local *L = M->addLocal(Sig.Name, Sig.Ty);
    emit<ParamInstr>(Decl->Loc, L, FormalIdx++);
    declareLocal(Sig.Name, L, Decl->Loc);
  }

  if (Decl->Body)
    lowerBlock(Decl->Body);

  if (!blockTerminated()) {
    // Fall-off-the-end: synthesize a default return so the CFG is
    // complete. (ThinJ does not enforce definite return.)
    const Type *Ret = M->returnType();
    if (Ret->isVoid()) {
      emit<RetInstr>(SourceLoc(), nullptr);
    } else {
      Local *Default = newTemp(Ret);
      if (Ret->isInt())
        emit<ConstIntInstr>(SourceLoc(), Default, 0);
      else if (Ret->isBool())
        emit<ConstBoolInstr>(SourceLoc(), Default, false);
      else
        emit<ConstNullInstr>(SourceLoc(), Default);
      emit<RetInstr>(SourceLoc(), Default);
    }
  }
  popScope();
  M->removeUnreachableBlocks();
}

void BodyLowering::runClinit(
    const std::vector<std::pair<Field *, const FieldDeclAst *>>
        &StaticFields) {
  startBlock();
  M->setEntry(Cur);
  pushScope();
  for (const auto &[F, Decl] : StaticFields) {
    RValue V;
    if (Decl->Init) {
      V = lowerValue(Decl->Init);
      if (V.isError())
        continue;
      if (!isAssignable(F->type(), V.Ty)) {
        error(Decl->Loc, "static initializer type mismatch for '" +
                             program().strings().str(F->name()) + "'");
        continue;
      }
    } else {
      // Default-initialize so every static load has a producer.
      Local *T = newTemp(F->type());
      if (F->type()->isInt())
        emit<ConstIntInstr>(Decl->Loc, T, 0);
      else if (F->type()->isBool())
        emit<ConstBoolInstr>(Decl->Loc, T, false);
      else
        emit<ConstNullInstr>(Decl->Loc, T);
      V = RValue{T, F->type()};
    }
    emit<StoreInstr>(Decl->Loc, nullptr, F, V.Val);
  }
  emit<RetInstr>(SourceLoc(), nullptr);
  popScope();
  M->removeUnreachableBlocks();
}

//===----------------------------------------------------------------------===//
// BodyLowering: statements
//===----------------------------------------------------------------------===//

void BodyLowering::lowerStmt(const StmtAst *S) {
  if (!S)
    return;
  if (blockTerminated()) {
    // Unreachable code after return/break/...; lower it into a fresh
    // (dead) block so diagnostics still fire, then drop it later.
    startBlock();
  }
  switch (S->kind()) {
  case StmtKind::Block:
    lowerBlock(cast<BlockStmt>(S));
    return;
  case StmtKind::VarDecl:
    lowerVarDecl(cast<VarDeclStmt>(S));
    return;
  case StmtKind::Assign:
    lowerAssign(cast<AssignStmt>(S));
    return;
  case StmtKind::ExprStmt:
    lowerExpr(cast<ExprStmt>(S)->E);
    return;
  case StmtKind::If:
    lowerIf(cast<IfStmt>(S));
    return;
  case StmtKind::While:
    lowerWhile(cast<WhileStmt>(S));
    return;
  case StmtKind::Return:
    lowerReturn(cast<ReturnStmt>(S));
    return;
  case StmtKind::Throw: {
    const auto *T = cast<ThrowStmt>(S);
    RValue V = lowerValue(T->Value);
    if (V.isError())
      return;
    if (!V.Ty->isReference()) {
      error(T->Loc, "throw requires a reference value");
      return;
    }
    emit<ThrowInstr>(T->Loc, V.Val);
    return;
  }
  case StmtKind::Break:
    if (Loops.empty()) {
      error(S->Loc, "'break' outside a loop");
      return;
    }
    emit<GotoInstr>(S->Loc, Loops.back().BreakTarget);
    return;
  case StmtKind::Continue:
    if (Loops.empty()) {
      error(S->Loc, "'continue' outside a loop");
      return;
    }
    emit<GotoInstr>(S->Loc, Loops.back().ContinueTarget);
    return;
  case StmtKind::Print: {
    const auto *Pr = cast<PrintStmt>(S);
    RValue V = lowerValue(Pr->Value);
    if (V.isError())
      return;
    emit<PrintInstr>(Pr->Loc, V.Val);
    return;
  }
  case StmtKind::SuperCall:
    lowerSuperCall(cast<SuperCallStmt>(S));
    return;
  }
}

void BodyLowering::lowerBlock(const BlockStmt *B) {
  pushScope();
  for (const StmtAst *S : B->Stmts)
    lowerStmt(S);
  popScope();
}

void BodyLowering::lowerVarDecl(const VarDeclStmt *S) {
  RValue Init = lowerValue(S->Init);
  if (Init.isError())
    return;
  const Type *DeclTy = Init.Ty;
  if (S->HasType) {
    DeclTy = typeOf(S->Type, /*AllowVoid=*/false);
    if (!DeclTy)
      return;
    if (!isAssignable(DeclTy, Init.Ty)) {
      error(S->Loc, "cannot initialize '" + S->Name + "' of type " +
                        typeName(DeclTy) + " with " + typeName(Init.Ty));
      return;
    }
  } else if (Init.Ty->isNull()) {
    error(S->Loc, "cannot infer a type from 'null'; annotate '" + S->Name +
                      "'");
    return;
  }
  Symbol Name = program().strings().intern(S->Name);
  Local *L = M->addLocal(Name, DeclTy);
  if (!declareLocal(Name, L, S->Loc))
    return;
  emit<MoveInstr>(S->Loc, L, Init.Val);
}

void BodyLowering::lowerAssign(const AssignStmt *S) {
  Program &P = program();

  // Array element: a[i] = v.
  if (const auto *Idx = dyn_cast<IndexExpr>(S->LHS)) {
    RValue Base = lowerValue(Idx->Base);
    RValue Index = lowerValue(Idx->Index);
    RValue V = lowerValue(S->RHS);
    if (Base.isError() || Index.isError() || V.isError())
      return;
    if (!Base.Ty->isArray()) {
      error(S->Loc, "indexed assignment into non-array " + typeName(Base.Ty));
      return;
    }
    if (!Index.Ty->isInt()) {
      error(S->Loc, "array index must be int");
      return;
    }
    if (!isAssignable(Base.Ty->element(), V.Ty)) {
      error(S->Loc, "cannot store " + typeName(V.Ty) + " into " +
                        typeName(Base.Ty));
      return;
    }
    emit<ArrayStoreInstr>(S->Loc, Base.Val, Index.Val, V.Val);
    return;
  }

  // Field: x.f = v, C.f = v, or this.f = v.
  if (const auto *FA = dyn_cast<FieldAccessExpr>(S->LHS)) {
    Symbol FName = P.strings().intern(FA->Name);
    if (ClassDef *C = asClassName(FA->Base)) {
      Field *F = C->findField(FName);
      if (!F || !F->isStatic()) {
        error(S->Loc, "unknown static field '" + FA->Name + "'");
        return;
      }
      RValue V = lowerValue(S->RHS);
      if (V.isError())
        return;
      if (!isAssignable(F->type(), V.Ty)) {
        error(S->Loc, "type mismatch storing to static field '" + FA->Name +
                          "'");
        return;
      }
      emit<StoreInstr>(S->Loc, nullptr, F, V.Val);
      return;
    }
    RValue Base = lowerValue(FA->Base);
    RValue V = lowerValue(S->RHS);
    if (Base.isError() || V.isError())
      return;
    if (!Base.Ty->isClass()) {
      error(S->Loc, "field store into non-object " + typeName(Base.Ty));
      return;
    }
    Field *F = Base.Ty->classDef()->findField(FName);
    if (!F) {
      error(S->Loc, "class " + typeName(Base.Ty) + " has no field '" +
                        FA->Name + "'");
      return;
    }
    if (F->isStatic()) {
      error(S->Loc, "static field '" + FA->Name +
                        "' must be accessed via its class name");
      return;
    }
    if (!isAssignable(F->type(), V.Ty)) {
      error(S->Loc, "type mismatch storing to field '" + FA->Name + "'");
      return;
    }
    emit<StoreInstr>(S->Loc, Base.Val, F, V.Val);
    return;
  }

  // Bare name: local, implicit-this field, or static field of the
  // enclosing class.
  const auto *NR = cast<NameRefExpr>(S->LHS);
  Symbol Name = P.strings().intern(NR->Name);
  RValue V = lowerValue(S->RHS);
  if (V.isError())
    return;
  if (Local *L = lookupLocal(Name)) {
    if (!isAssignable(L->type(), V.Ty)) {
      error(S->Loc, "cannot assign " + typeName(V.Ty) + " to '" + NR->Name +
                        "' of type " + typeName(L->type()));
      return;
    }
    emit<MoveInstr>(S->Loc, L, V.Val);
    return;
  }
  if (Enclosing) {
    if (Field *F = Enclosing->findField(Name)) {
      if (!isAssignable(F->type(), V.Ty)) {
        error(S->Loc, "type mismatch storing to field '" + NR->Name + "'");
        return;
      }
      if (F->isStatic()) {
        emit<StoreInstr>(S->Loc, nullptr, F, V.Val);
      } else if (!ThisLocal) {
        error(S->Loc, "cannot use instance field '" + NR->Name +
                          "' in a static method");
      } else {
        emit<StoreInstr>(S->Loc, ThisLocal, F, V.Val);
      }
      return;
    }
  }
  error(S->Loc, "unknown variable '" + NR->Name + "'");
}

void BodyLowering::lowerIf(const IfStmt *S) {
  RValue Cond = lowerValue(S->Cond);
  if (Cond.isError())
    return;
  if (!Cond.Ty->isBool())
    error(S->Loc, "if condition must be bool");

  BasicBlock *CondBlock = Cur;
  BasicBlock *ThenBB = M->addBlock();
  BasicBlock *ElseBB = S->Else ? M->addBlock() : nullptr;
  BasicBlock *JoinBB = M->addBlock();

  auto Br = std::make_unique<BranchInstr>(Cond.Val, ThenBB,
                                           ElseBB ? ElseBB : JoinBB);
  Br->setLoc(S->Loc);
  CondBlock->append(std::move(Br));

  Cur = ThenBB;
  lowerStmt(S->Then);
  if (!blockTerminated())
    emit<GotoInstr>(SourceLoc(), JoinBB);

  if (ElseBB) {
    Cur = ElseBB;
    lowerStmt(S->Else);
    if (!blockTerminated())
      emit<GotoInstr>(SourceLoc(), JoinBB);
  }
  Cur = JoinBB;
}

void BodyLowering::lowerWhile(const WhileStmt *S) {
  BasicBlock *Header = M->addBlock();
  emit<GotoInstr>(S->Loc, Header);
  Cur = Header;
  RValue Cond = lowerValue(S->Cond);
  if (Cond.isError())
    return;
  if (!Cond.Ty->isBool())
    error(S->Loc, "while condition must be bool");

  BasicBlock *CondEnd = Cur; // Condition lowering may have branched.
  BasicBlock *Body = M->addBlock();
  BasicBlock *Exit = M->addBlock();
  auto Br = std::make_unique<BranchInstr>(Cond.Val, Body, Exit);
  Br->setLoc(S->Loc);
  CondEnd->append(std::move(Br));

  Loops.push_back({Header, Exit});
  Cur = Body;
  lowerStmt(S->Body);
  if (!blockTerminated())
    emit<GotoInstr>(SourceLoc(), Header);
  Loops.pop_back();
  Cur = Exit;
}

void BodyLowering::lowerReturn(const ReturnStmt *S) {
  const Type *Ret = M->returnType();
  if (!S->Value) {
    if (!Ret->isVoid()) {
      error(S->Loc, "non-void method must return a value");
      return;
    }
    emit<RetInstr>(S->Loc, nullptr);
    return;
  }
  RValue V = lowerValue(S->Value);
  if (V.isError())
    return;
  if (Ret->isVoid()) {
    error(S->Loc, "void method cannot return a value");
    return;
  }
  if (!isAssignable(Ret, V.Ty)) {
    error(S->Loc, "return type mismatch: expected " + typeName(Ret) +
                      ", got " + typeName(V.Ty));
    return;
  }
  emit<RetInstr>(S->Loc, V.Val);
}

void BodyLowering::lowerSuperCall(const SuperCallStmt *S) {
  Program &P = program();
  if (!Enclosing || M->isStatic() ||
      M->name() != P.strings().lookup("init")) {
    error(S->Loc, "super(...) is only valid inside 'init'");
    return;
  }
  ClassDef *Super = Enclosing->superclass();
  Method *Target = Super ? Super->findMethod(P.strings().intern("init"))
                         : nullptr;
  if (!Target) {
    error(S->Loc, "superclass has no 'init'");
    return;
  }
  if (Target->params().size() != S->Args.size()) {
    error(S->Loc, "super(...) argument count mismatch");
    return;
  }
  std::vector<Local *> Args;
  for (size_t I = 0; I != S->Args.size(); ++I) {
    RValue A = lowerValue(S->Args[I]);
    if (A.isError())
      return;
    if (!isAssignable(Target->params()[I].Ty, A.Ty)) {
      error(S->Loc, "super(...) argument " + std::to_string(I + 1) +
                        " type mismatch");
      return;
    }
    Args.push_back(A.Val);
  }
  emit<CallInstr>(S->Loc, nullptr, Target, /*IsVirtual=*/false, ThisLocal,
                  Args);
}

//===----------------------------------------------------------------------===//
// BodyLowering: expressions
//===----------------------------------------------------------------------===//

RValue BodyLowering::lowerValue(const ExprAst *E) {
  RValue V = lowerExpr(E);
  if (V.isError())
    return V;
  if (V.isVoid()) {
    error(E->Loc, "expression of type void used as a value");
    return errorValue();
  }
  return V;
}

ClassDef *BodyLowering::asClassName(const ExprAst *E) const {
  const auto *NR = dyn_cast<NameRefExpr>(E);
  if (!NR)
    return nullptr;
  Program &P = Outer.prog();
  Symbol Name = P.strings().lookup(NR->Name);
  if (!Name)
    return nullptr;
  if (lookupLocal(Name))
    return nullptr; // A local shadows the class name.
  if (Enclosing && Enclosing->findField(Name))
    return nullptr; // A field shadows it too.
  return P.findClass(Name);
}

RValue BodyLowering::lowerExpr(const ExprAst *E) {
  // A parser-recovery placeholder was already diagnosed at parse
  // time; lowering it as a value would only cascade.
  if (E->Recovered)
    return errorValue();
  Program &P = program();
  switch (E->kind()) {
  case ExprKind::IntLit: {
    Local *T = newTemp(P.types().intType());
    emit<ConstIntInstr>(E->Loc, T, cast<IntLitExpr>(E)->Value);
    return {T, T->type()};
  }
  case ExprKind::BoolLit: {
    Local *T = newTemp(P.types().boolType());
    emit<ConstBoolInstr>(E->Loc, T, cast<BoolLitExpr>(E)->Value);
    return {T, T->type()};
  }
  case ExprKind::StrLit: {
    Local *T = newTemp(P.types().stringType());
    emit<ConstStringInstr>(E->Loc, T,
                           P.strings().intern(cast<StrLitExpr>(E)->Value));
    return {T, T->type()};
  }
  case ExprKind::NullLit: {
    Local *T = newTemp(P.types().nullType());
    emit<ConstNullInstr>(E->Loc, T);
    return {T, T->type()};
  }
  case ExprKind::This:
    if (!ThisLocal) {
      error(E->Loc, "'this' outside an instance method");
      return errorValue();
    }
    return {ThisLocal, ThisLocal->type()};
  case ExprKind::NameRef:
    return lowerNameRef(cast<NameRefExpr>(E));
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    RValue V = lowerValue(U->Sub);
    if (V.isError())
      return V;
    if (U->O == UnaryExpr::Op::Neg && !V.Ty->isInt()) {
      error(E->Loc, "unary '-' requires int");
      return errorValue();
    }
    if (U->O == UnaryExpr::Op::Not && !V.Ty->isBool()) {
      error(E->Loc, "'!' requires bool");
      return errorValue();
    }
    Local *T = newTemp(V.Ty);
    emit<UnOpInstr>(E->Loc, T,
                    U->O == UnaryExpr::Op::Neg ? UnOpKind::Neg : UnOpKind::Not,
                    V.Val);
    return {T, V.Ty};
  }
  case ExprKind::Binary:
    return lowerBinary(cast<BinaryExpr>(E));
  case ExprKind::Logical:
    return lowerLogical(cast<LogicalExpr>(E));
  case ExprKind::FieldAccess:
    return lowerFieldAccess(cast<FieldAccessExpr>(E));
  case ExprKind::Index: {
    const auto *Idx = cast<IndexExpr>(E);
    RValue Base = lowerValue(Idx->Base);
    RValue Index = lowerValue(Idx->Index);
    if (Base.isError() || Index.isError())
      return errorValue();
    if (!Base.Ty->isArray()) {
      error(E->Loc, "indexing non-array " + typeName(Base.Ty));
      return errorValue();
    }
    if (!Index.Ty->isInt()) {
      error(E->Loc, "array index must be int");
      return errorValue();
    }
    Local *T = newTemp(Base.Ty->element());
    emit<ArrayLoadInstr>(E->Loc, T, Base.Val, Index.Val);
    return {T, T->type()};
  }
  case ExprKind::Call:
    return lowerCall(cast<CallExprAst>(E));
  case ExprKind::NewObject:
    return lowerNewObject(cast<NewObjectExpr>(E));
  case ExprKind::NewArray: {
    const auto *NA = cast<NewArrayExpr>(E);
    const Type *Elem = typeOf(NA->ElemType, /*AllowVoid=*/false);
    if (!Elem)
      return errorValue();
    RValue Len = lowerValue(NA->Length);
    if (Len.isError())
      return errorValue();
    if (!Len.Ty->isInt()) {
      error(E->Loc, "array length must be int");
      return errorValue();
    }
    Local *T = newTemp(P.types().arrayType(Elem));
    emit<NewArrayInstr>(E->Loc, T, Elem, Len.Val);
    return {T, T->type()};
  }
  case ExprKind::Cast: {
    const auto *C = cast<CastExpr>(E);
    const Type *Target = typeOf(C->Target, /*AllowVoid=*/false);
    RValue V = lowerValue(C->Sub);
    if (!Target || V.isError())
      return errorValue();
    if (Target == V.Ty) {
      Local *T = newTemp(Target);
      emit<MoveInstr>(E->Loc, T, V.Val);
      return {T, Target};
    }
    if (!Target->isReference() || !V.Ty->isReference()) {
      error(E->Loc, "invalid cast from " + typeName(V.Ty) + " to " +
                        typeName(Target));
      return errorValue();
    }
    Local *T = newTemp(Target);
    emit<CastInstr>(E->Loc, T, Target, V.Val);
    return {T, Target};
  }
  case ExprKind::InstanceOf: {
    const auto *IO = cast<InstanceOfExpr>(E);
    const Type *Target = typeOf(IO->Target, /*AllowVoid=*/false);
    RValue V = lowerValue(IO->Sub);
    if (!Target || V.isError())
      return errorValue();
    if (!Target->isReference() || !V.Ty->isReference()) {
      error(E->Loc, "instanceof requires reference types");
      return errorValue();
    }
    Local *T = newTemp(P.types().boolType());
    emit<InstanceOfInstr>(E->Loc, T, V.Val, Target);
    return {T, T->type()};
  }
  case ExprKind::Read: {
    const auto *R = cast<ReadExpr>(E);
    const Type *Ty =
        R->IsLine ? P.types().stringType() : P.types().intType();
    Local *T = newTemp(Ty);
    emit<ReadInstr>(E->Loc, T, R->IsLine ? ReadKind::Line : ReadKind::Int);
    return {T, Ty};
  }
  }
  return errorValue();
}

RValue BodyLowering::lowerNameRef(const NameRefExpr *E) {
  Program &P = program();
  Symbol Name = P.strings().intern(E->Name);
  if (Local *L = lookupLocal(Name))
    return {L, L->type()};
  if (Enclosing) {
    if (Field *F = Enclosing->findField(Name)) {
      Local *T = newTemp(F->type());
      if (F->isStatic()) {
        emit<LoadInstr>(E->Loc, T, nullptr, F);
      } else if (!ThisLocal) {
        error(E->Loc, "cannot use instance field '" + E->Name +
                          "' in a static method");
        return errorValue();
      } else {
        emit<LoadInstr>(E->Loc, T, ThisLocal, F);
      }
      return {T, F->type()};
    }
  }
  error(E->Loc, "unknown variable '" + E->Name + "'");
  return errorValue();
}

RValue BodyLowering::lowerBinary(const BinaryExpr *E) {
  Program &P = program();
  RValue L = lowerValue(E->LHS);
  RValue R = lowerValue(E->RHS);
  if (L.isError() || R.isError())
    return errorValue();

  auto Emit = [&](BinOpKind Op, const Type *ResTy) -> RValue {
    Local *T = newTemp(ResTy);
    emit<BinOpInstr>(E->Loc, T, Op, L.Val, R.Val);
    return {T, ResTy};
  };

  switch (E->O) {
  case BinaryExpr::Op::Add: {
    if (L.Ty->isInt() && R.Ty->isInt())
      return Emit(BinOpKind::Add, P.types().intType());
    // String concatenation, with implicit int -> string rendering.
    if (L.Ty->isString() || R.Ty->isString()) {
      auto ToString = [&](RValue V) -> Local * {
        if (V.Ty->isString())
          return V.Val;
        if (V.Ty->isInt()) {
          Local *T = newTemp(P.types().stringType());
          emit<StrOpInstr>(E->Loc, T, StrOpKind::FromInt,
                           std::vector<Local *>{V.Val});
          return T;
        }
        return nullptr;
      };
      Local *LS = ToString(L);
      Local *RS = ToString(R);
      if (LS && RS) {
        Local *T = newTemp(P.types().stringType());
        emit<StrOpInstr>(E->Loc, T, StrOpKind::Concat,
                         std::vector<Local *>{LS, RS});
        return {T, T->type()};
      }
    }
    error(E->Loc, "invalid operands to '+'");
    return errorValue();
  }
  case BinaryExpr::Op::Sub:
  case BinaryExpr::Op::Mul:
  case BinaryExpr::Op::Div:
  case BinaryExpr::Op::Rem: {
    if (!L.Ty->isInt() || !R.Ty->isInt()) {
      error(E->Loc, "arithmetic requires int operands");
      return errorValue();
    }
    BinOpKind Op = E->O == BinaryExpr::Op::Sub   ? BinOpKind::Sub
                   : E->O == BinaryExpr::Op::Mul ? BinOpKind::Mul
                   : E->O == BinaryExpr::Op::Div ? BinOpKind::Div
                                                 : BinOpKind::Rem;
    return Emit(Op, P.types().intType());
  }
  case BinaryExpr::Op::Lt:
  case BinaryExpr::Op::Le:
  case BinaryExpr::Op::Gt:
  case BinaryExpr::Op::Ge: {
    if (!L.Ty->isInt() || !R.Ty->isInt()) {
      error(E->Loc, "comparison requires int operands");
      return errorValue();
    }
    BinOpKind Op = E->O == BinaryExpr::Op::Lt   ? BinOpKind::Lt
                   : E->O == BinaryExpr::Op::Le ? BinOpKind::Le
                   : E->O == BinaryExpr::Op::Gt ? BinOpKind::Gt
                                                : BinOpKind::Ge;
    return Emit(Op, P.types().boolType());
  }
  case BinaryExpr::Op::Eq:
  case BinaryExpr::Op::Ne: {
    bool Ok = (L.Ty->isInt() && R.Ty->isInt()) ||
              (L.Ty->isBool() && R.Ty->isBool()) ||
              (L.Ty->isReference() && R.Ty->isReference());
    if (!Ok) {
      error(E->Loc, "invalid operands to equality comparison");
      return errorValue();
    }
    return Emit(E->O == BinaryExpr::Op::Eq ? BinOpKind::Eq : BinOpKind::Ne,
                P.types().boolType());
  }
  }
  return errorValue();
}

RValue BodyLowering::lowerLogical(const LogicalExpr *E) {
  Program &P = program();
  // Short-circuit lowering through a shared mutable temp; SSA turns it
  // into a phi at the join.
  Local *Result = M->addLocal(/*BaseName=*/0, P.types().boolType(),
                              /*IsTemp=*/true);
  RValue L = lowerValue(E->LHS);
  if (L.isError())
    return errorValue();
  if (!L.Ty->isBool()) {
    error(E->Loc, "logical operator requires bool operands");
    return errorValue();
  }

  BasicBlock *EvalRHS = M->addBlock();
  BasicBlock *Shortcut = M->addBlock();
  BasicBlock *Join = M->addBlock();
  bool IsAnd = E->O == LogicalExpr::Op::And;
  auto Br = std::make_unique<BranchInstr>(L.Val, IsAnd ? EvalRHS : Shortcut,
                                           IsAnd ? Shortcut : EvalRHS);
  Br->setLoc(E->Loc);
  Cur->append(std::move(Br));

  Cur = EvalRHS;
  RValue R = lowerValue(E->RHS);
  if (R.isError())
    return errorValue();
  if (!R.Ty->isBool()) {
    error(E->Loc, "logical operator requires bool operands");
    return errorValue();
  }
  emit<MoveInstr>(E->Loc, Result, R.Val);
  emit<GotoInstr>(E->Loc, Join);

  Cur = Shortcut;
  emit<ConstBoolInstr>(E->Loc, Result, !IsAnd);
  emit<GotoInstr>(E->Loc, Join);

  Cur = Join;
  return {Result, P.types().boolType()};
}

RValue BodyLowering::lowerFieldAccess(const FieldAccessExpr *E) {
  Program &P = program();
  Symbol FName = P.strings().intern(E->Name);

  // Static field via class name.
  if (ClassDef *C = asClassName(E->Base)) {
    Field *F = C->findField(FName);
    if (!F || !F->isStatic()) {
      error(E->Loc, "unknown static field '" + E->Name + "' in class " +
                        P.strings().str(C->name()));
      return errorValue();
    }
    Local *T = newTemp(F->type());
    emit<LoadInstr>(E->Loc, T, nullptr, F);
    return {T, F->type()};
  }

  RValue Base = lowerValue(E->Base);
  if (Base.isError())
    return errorValue();

  // array.length
  if (Base.Ty->isArray() && E->Name == "length") {
    Local *T = newTemp(P.types().intType());
    emit<ArrayLenInstr>(E->Loc, T, Base.Val);
    return {T, T->type()};
  }

  if (!Base.Ty->isClass()) {
    error(E->Loc, "member access into non-object " + typeName(Base.Ty));
    return errorValue();
  }
  Field *F = Base.Ty->classDef()->findField(FName);
  if (!F) {
    error(E->Loc, "class " + typeName(Base.Ty) + " has no field '" + E->Name +
                      "'");
    return errorValue();
  }
  if (F->isStatic()) {
    error(E->Loc, "static field '" + E->Name +
                      "' must be accessed via its class name");
    return errorValue();
  }
  Local *T = newTemp(F->type());
  emit<LoadInstr>(E->Loc, T, Base.Val, F);
  return {T, F->type()};
}

std::vector<Local *> BodyLowering::lowerArgs(Method *Target,
                                             const CallExprAst *E, bool &Ok) {
  Ok = true;
  std::vector<Local *> Args;
  if (Target->params().size() != E->Args.size()) {
    error(E->Loc, "call to " + Target->qualifiedName(program().strings()) +
                      " expects " + std::to_string(Target->params().size()) +
                      " arguments, got " + std::to_string(E->Args.size()));
    Ok = false;
    return Args;
  }
  for (size_t I = 0; I != E->Args.size(); ++I) {
    RValue A = lowerValue(E->Args[I]);
    if (A.isError()) {
      Ok = false;
      return Args;
    }
    if (!isAssignable(Target->params()[I].Ty, A.Ty)) {
      error(E->Args[I]->Loc,
            "argument " + std::to_string(I + 1) + " type mismatch: expected " +
                typeName(Target->params()[I].Ty) + ", got " + typeName(A.Ty));
      Ok = false;
      return Args;
    }
    Args.push_back(A.Val);
  }
  return Args;
}

RValue BodyLowering::lowerMethodCall(SourceLoc Loc, RValue Recv,
                                     Method *Target, bool IsVirtual,
                                     const CallExprAst *E) {
  bool Ok = true;
  std::vector<Local *> Args = lowerArgs(Target, E, Ok);
  if (!Ok)
    return errorValue();
  Local *Dest = nullptr;
  if (!Target->returnType()->isVoid())
    Dest = newTemp(Target->returnType());
  emit<CallInstr>(Loc, Dest, Target, IsVirtual, Recv.Val, Args);
  return {Dest, Target->returnType()};
}

RValue BodyLowering::lowerStringMethod(const CallExprAst *E, RValue Recv,
                                       const std::string &Name) {
  Program &P = program();
  auto LowerIntArg = [&](size_t I) -> Local * {
    RValue A = lowerValue(E->Args[I]);
    if (A.isError() || !A.Ty->isInt()) {
      if (!A.isError())
        error(E->Args[I]->Loc, "string method expects an int here");
      return nullptr;
    }
    return A.Val;
  };
  auto LowerStrArg = [&](size_t I) -> Local * {
    RValue A = lowerValue(E->Args[I]);
    if (A.isError() || !A.Ty->isString()) {
      if (!A.isError())
        error(E->Args[I]->Loc, "string method expects a string here");
      return nullptr;
    }
    return A.Val;
  };
  auto Mk = [&](StrOpKind Op, const Type *ResTy,
                std::vector<Local *> Ops) -> RValue {
    for (Local *L : Ops)
      if (!L)
        return errorValue();
    Local *T = newTemp(ResTy);
    emit<StrOpInstr>(E->Loc, T, Op, Ops);
    return {T, ResTy};
  };

  if (Name == "substring" && E->Args.size() == 2)
    return Mk(StrOpKind::Substring, P.types().stringType(),
              {Recv.Val, LowerIntArg(0), LowerIntArg(1)});
  if (Name == "indexOf" && E->Args.size() == 1)
    return Mk(StrOpKind::IndexOf, P.types().intType(),
              {Recv.Val, LowerStrArg(0)});
  if (Name == "length" && E->Args.empty())
    return Mk(StrOpKind::Length, P.types().intType(), {Recv.Val});
  if (Name == "charAt" && E->Args.size() == 1)
    return Mk(StrOpKind::CharAt, P.types().intType(),
              {Recv.Val, LowerIntArg(0)});
  if (Name == "equals" && E->Args.size() == 1)
    return Mk(StrOpKind::Equals, P.types().boolType(),
              {Recv.Val, LowerStrArg(0)});
  if (Name == "concat" && E->Args.size() == 1)
    return Mk(StrOpKind::Concat, P.types().stringType(),
              {Recv.Val, LowerStrArg(0)});
  error(E->Loc, "unknown string method '" + Name + "'");
  return errorValue();
}

RValue BodyLowering::lowerCall(const CallExprAst *E) {
  Program &P = program();

  // Method call on an explicit receiver, a class name, or a string.
  if (const auto *FA = dyn_cast<FieldAccessExpr>(E->Callee)) {
    if (ClassDef *C = asClassName(FA->Base)) {
      Method *Target = C->findMethod(P.strings().intern(FA->Name));
      if (!Target || !Target->isStatic()) {
        error(E->Loc, "unknown static method '" + FA->Name + "' in class " +
                          P.strings().str(C->name()));
        return errorValue();
      }
      return lowerMethodCall(E->Loc, RValue{}, Target, /*IsVirtual=*/false,
                             E);
    }
    RValue Recv = lowerValue(FA->Base);
    if (Recv.isError())
      return errorValue();
    if (Recv.Ty->isString())
      return lowerStringMethod(E, Recv, FA->Name);
    if (!Recv.Ty->isClass()) {
      error(E->Loc, "method call on non-object " + typeName(Recv.Ty));
      return errorValue();
    }
    Method *Target = Recv.Ty->classDef()->findMethod(
        P.strings().intern(FA->Name));
    if (!Target) {
      error(E->Loc, "class " + typeName(Recv.Ty) + " has no method '" +
                        FA->Name + "'");
      return errorValue();
    }
    if (Target->isStatic()) {
      error(E->Loc, "static method '" + FA->Name +
                        "' must be called via its class name");
      return errorValue();
    }
    return lowerMethodCall(E->Loc, Recv, Target, /*IsVirtual=*/true, E);
  }

  // Bare-name call: builtin, enclosing-class method, or top-level
  // function.
  const auto *NR = cast<NameRefExpr>(E->Callee);

  // Builtin str(int) -> string.
  if (NR->Name == "str" && E->Args.size() == 1) {
    RValue A = lowerValue(E->Args[0]);
    if (A.isError())
      return errorValue();
    if (!A.Ty->isInt()) {
      error(E->Loc, "str() expects an int");
      return errorValue();
    }
    Local *T = newTemp(P.types().stringType());
    emit<StrOpInstr>(E->Loc, T, StrOpKind::FromInt,
                     std::vector<Local *>{A.Val});
    return {T, T->type()};
  }

  Symbol Name = P.strings().intern(NR->Name);
  if (Enclosing) {
    if (Method *Target = Enclosing->findMethod(Name)) {
      if (Target->isStatic())
        return lowerMethodCall(E->Loc, RValue{}, Target, /*IsVirtual=*/false,
                               E);
      if (!ThisLocal) {
        error(E->Loc, "cannot call instance method '" + NR->Name +
                          "' from a static method");
        return errorValue();
      }
      return lowerMethodCall(E->Loc, RValue{ThisLocal, ThisLocal->type()},
                             Target, /*IsVirtual=*/true, E);
    }
  }
  auto It = Outer.TopLevel.find(NR->Name);
  if (It != Outer.TopLevel.end())
    return lowerMethodCall(E->Loc, RValue{}, It->second, /*IsVirtual=*/false,
                           E);
  error(E->Loc, "unknown function '" + NR->Name + "'");
  return errorValue();
}

RValue BodyLowering::lowerNewObject(const NewObjectExpr *E) {
  Program &P = program();
  ClassDef *C = P.findClass(P.strings().lookup(E->ClassName));
  if (!C) {
    error(E->Loc, "unknown class '" + E->ClassName + "'");
    return errorValue();
  }
  const Type *Ty = P.types().classType(C);
  Local *Obj = newTemp(Ty);
  emit<NewInstr>(E->Loc, Obj, C);

  Method *Init = C->findMethod(P.strings().intern("init"));
  if (!Init) {
    if (!E->Args.empty()) {
      error(E->Loc, "class " + E->ClassName +
                        " has no 'init' but arguments were given");
      return errorValue();
    }
    return {Obj, Ty};
  }
  if (Init->isStatic()) {
    error(E->Loc, "'init' must be an instance method");
    return errorValue();
  }
  if (Init->params().size() != E->Args.size()) {
    error(E->Loc, "constructor of " + E->ClassName + " expects " +
                      std::to_string(Init->params().size()) +
                      " arguments, got " + std::to_string(E->Args.size()));
    return errorValue();
  }
  std::vector<Local *> Args;
  for (size_t I = 0; I != E->Args.size(); ++I) {
    RValue A = lowerValue(E->Args[I]);
    if (A.isError())
      return errorValue();
    if (!isAssignable(Init->params()[I].Ty, A.Ty)) {
      error(E->Args[I]->Loc, "constructor argument " + std::to_string(I + 1) +
                                 " type mismatch");
      return errorValue();
    }
    Args.push_back(A.Val);
  }
  // Constructors dispatch statically.
  emit<CallInstr>(E->Loc, nullptr, Init, /*IsVirtual=*/false, Obj, Args);
  return {Obj, Ty};
}

//===----------------------------------------------------------------------===//
// Lowering: module-level passes
//===----------------------------------------------------------------------===//

/// Static initialization runs before main's body: prepends the call to
/// \p Clinit, when there is one, to \p Main's entry block. The caller
/// renumbers \p Main. Both the cold compile and the relowering of an
/// edited main go through here.
static void prependClinitCall(Method &Main, Method *Clinit) {
  if (!Clinit || !Main.entry())
    return;
  Main.entry()->prepend(std::make_unique<CallInstr>(
      nullptr, Clinit, /*IsVirtual=*/false, nullptr, std::vector<Local *>{}));
}

std::unique_ptr<Program> Lowering::run() {
  // Gate on errors *this* lowering adds, not on pre-existing ones: a
  // recovered parse hands us a partial AST with parse errors already
  // in Diag, and sema must still run so one compile reports every
  // diagnostic.
  const unsigned EntryErrors = Diag.errorCount();
  declareClasses();
  if (Diag.errorCount() != EntryErrors)
    return nullptr;
  declareMembers();
  if (Diag.errorCount() != EntryErrors)
    return nullptr;
  checkOverrides();
  buildClinit();
  lowerBodies();
  selectMain();
  if (Diag.errorCount() != EntryErrors)
    return nullptr;
  LineTable &Lines = P->lineTable();
  for (const auto &M : P->methods()) {
    M->renumber();
    buildSSA(*P, *M);
    Lines.indexMethod(*M);
  }
  Lines.link(*P);
  return std::move(P);
}

void Lowering::declareClasses() {
  for (const ClassDeclAst &C : Module.Classes) {
    Symbol Name = P->strings().intern(C.Name);
    if (P->findClass(Name)) {
      Diag.error(C.Loc, "duplicate class '" + C.Name + "'");
      continue;
    }
    P->addClass(Name);
  }
  // Resolve superclasses and reject cycles.
  for (const ClassDeclAst &C : Module.Classes) {
    ClassDef *Class = P->findClass(P->strings().lookup(C.Name));
    if (!Class)
      continue;
    ClassDef *Super = P->objectClass();
    if (!C.SuperName.empty()) {
      Super = P->findClass(P->strings().lookup(C.SuperName));
      if (!Super) {
        Diag.error(C.Loc, "unknown superclass '" + C.SuperName + "'");
        continue;
      }
    }
    Class->setSuperclass(Super);
  }
  for (const ClassDeclAst &C : Module.Classes) {
    ClassDef *Class = P->findClass(P->strings().lookup(C.Name));
    if (!Class)
      continue;
    // Cycle check: walk at most #classes steps.
    ClassDef *Walk = Class->superclass();
    size_t Steps = 0;
    while (Walk && Steps++ <= P->classes().size()) {
      if (Walk == Class) {
        Diag.error(C.Loc, "inheritance cycle involving '" + C.Name + "'");
        Class->setSuperclass(P->objectClass());
        break;
      }
      Walk = Walk->superclass();
    }
  }
}

void Lowering::declareMembers() {
  // A scratch BodyLowering provides typeOf; it never emits (no body).
  for (const ClassDeclAst &C : Module.Classes) {
    ClassDef *Class = P->findClass(P->strings().lookup(C.Name));
    if (!Class)
      continue;
    BodyLowering Scratch(*this, nullptr, Class);
    for (const FieldDeclAst &F : C.Fields) {
      Symbol Name = P->strings().intern(F.Name);
      if (Class->findOwnField(Name)) {
        Diag.error(F.Loc, "duplicate field '" + F.Name + "'");
        continue;
      }
      const Type *Ty = Scratch.typeOf(F.Type, /*AllowVoid=*/false);
      if (!Ty)
        continue;
      Field *Fld = P->addField(Name, Ty, Class, F.IsStatic);
      if (F.IsStatic)
        StaticFields.emplace_back(Fld, &F);
    }
    for (const MethodDeclAst &MD : C.Methods) {
      Symbol Name = P->strings().intern(MD.Name);
      if (Class->findOwnMethod(Name)) {
        Diag.error(MD.Loc, "duplicate method '" + MD.Name + "'");
        continue;
      }
      const Type *Ret = MD.HasReturnType
                            ? Scratch.typeOf(MD.ReturnType, /*AllowVoid=*/true)
                            : P->types().voidType();
      if (!Ret)
        continue;
      std::vector<ParamSig> Params;
      bool Bad = false;
      for (const ParamAst &PA : MD.Params) {
        const Type *Ty = Scratch.typeOf(PA.Type, /*AllowVoid=*/false);
        if (!Ty) {
          Bad = true;
          break;
        }
        Params.push_back({P->strings().intern(PA.Name), Ty});
      }
      if (Bad)
        continue;
      Method *M = P->addMethod(Name, Class, MD.IsStatic, Ret,
                               std::move(Params));
      MethodOf[&MD] = M;
      EnclosingOf[M] = Class;
    }
  }
  for (const MethodDeclAst &MD : Module.Functions) {
    if (TopLevel.count(MD.Name)) {
      Diag.error(MD.Loc, "duplicate function '" + MD.Name + "'");
      continue;
    }
    BodyLowering Scratch(*this, nullptr, nullptr);
    const Type *Ret = MD.HasReturnType
                          ? Scratch.typeOf(MD.ReturnType, /*AllowVoid=*/true)
                          : P->types().voidType();
    if (!Ret)
      continue;
    std::vector<ParamSig> Params;
    bool Bad = false;
    for (const ParamAst &PA : MD.Params) {
      const Type *Ty = Scratch.typeOf(PA.Type, /*AllowVoid=*/false);
      if (!Ty) {
        Bad = true;
        break;
      }
      Params.push_back({P->strings().intern(PA.Name), Ty});
    }
    if (Bad)
      continue;
    Method *M = P->addMethod(P->strings().intern(MD.Name), nullptr,
                             /*IsStatic=*/true, Ret, std::move(Params));
    MethodOf[&MD] = M;
    EnclosingOf[M] = nullptr;
    TopLevel[MD.Name] = M;
  }
}

void Lowering::checkOverrides() {
  for (const auto &ClassPtr : P->classes()) {
    ClassDef *Super = ClassPtr->superclass();
    if (!Super)
      continue;
    Symbol InitName = P->strings().lookup("init");
    for (Method *M : ClassPtr->methods()) {
      // Constructors dispatch statically; subclasses may freely declare
      // 'init' with a different signature.
      if (InitName && M->name() == InitName)
        continue;
      Method *Overridden = Super->findMethod(M->name());
      if (!Overridden)
        continue;
      bool Compatible = !M->isStatic() && !Overridden->isStatic() &&
                        M->returnType() == Overridden->returnType() &&
                        M->params().size() == Overridden->params().size();
      if (Compatible)
        for (size_t I = 0; I != M->params().size(); ++I)
          if (M->params()[I].Ty != Overridden->params()[I].Ty)
            Compatible = false;
      if (!Compatible)
        Diag.error(SourceLoc(), "method '" +
                                    M->qualifiedName(P->strings()) +
                                    "' overrides '" +
                                    Overridden->qualifiedName(P->strings()) +
                                    "' with an incompatible signature");
    }
  }
}

void Lowering::buildClinit() {
  if (StaticFields.empty())
    return;
  Clinit = P->addMethod(P->strings().intern("$clinit"), nullptr,
                        /*IsStatic=*/true, P->types().voidType(), {});
  BodyLowering BL(*this, Clinit, nullptr);
  BL.runClinit(StaticFields);
}

void Lowering::lowerBodies() {
  auto LowerOne = [&](const MethodDeclAst &MD) {
    auto It = MethodOf.find(&MD);
    if (It == MethodOf.end())
      return;
    Method *M = It->second;
    BodyLowering BL(*this, M, EnclosingOf[M]);
    BL.run(&MD);
  };
  for (const ClassDeclAst &C : Module.Classes)
    for (const MethodDeclAst &MD : C.Methods)
      LowerOne(MD);
  for (const MethodDeclAst &MD : Module.Functions)
    LowerOne(MD);
}

void Lowering::selectMain() {
  Method *Main = nullptr;
  auto It = TopLevel.find("main");
  if (It != TopLevel.end())
    Main = It->second;
  if (!Main) {
    for (const auto &M : P->methods())
      if (M->isStatic() && M->owner() &&
          P->strings().str(M->name()) == "main")
        Main = M.get();
  }
  if (Main && !Main->params().empty()) {
    Diag.error(SourceLoc(), "'main' must take no parameters");
    return;
  }
  if (!Main) {
    Diag.error(SourceLoc(), "no entry point: define a top-level or "
                            "static 'main()'");
    return;
  }
  P->setMainMethod(Main);
  prependClinitCall(*Main, Clinit);
}

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

std::unique_ptr<Program> tsl::lowerModule(const AstModule &Module,
                                          DiagnosticEngine &Diag) {
  return Lowering(Module, Diag).run();
}

std::unique_ptr<Program> tsl::compileThinJ(std::string_view Source,
                                           DiagnosticEngine &Diag) {
  Expected<std::unique_ptr<Program>> R = compileThinJChecked(Source, Diag);
  return R.ok() ? std::move(*R) : nullptr;
}

Expected<std::unique_ptr<Program>>
tsl::compileThinJChecked(std::string_view Source, DiagnosticEngine &Diag) {
  auto summarize = [&Diag](StatusCode Code, unsigned Since) {
    unsigned N = Diag.errorCount() - Since;
    std::string Msg = std::to_string(N) + " error(s)";
    for (const Diagnostic &D : Diag.diagnostics())
      if (D.Kind == DiagKind::Error) {
        Msg += "; first: " + D.str();
        break;
      }
    return Status(Code, std::move(Msg));
  };

  unsigned Entry = Diag.errorCount();
  AstModule Module;
  bool ParseOk = parseModule(Source, Module, Diag);
  unsigned AfterParse = Diag.errorCount();
  // Sema runs even over the partial AST of a failed parse, so a file
  // with both syntax and semantic errors reports all of them at once.
  std::unique_ptr<Program> P = lowerModule(Module, Diag);
  if (!ParseOk)
    return summarize(StatusCode::ParseError, Entry);
  if (!P)
    return summarize(StatusCode::SemaError, AfterParse);
  // Nothing malformed reaches the analyses: violations are compile
  // errors, not asserts inside a solver.
  std::vector<std::string> Violations = verifyProgram(*P);
  if (!Violations.empty()) {
    for (const std::string &V : Violations)
      Diag.error(SourceLoc(), "verifier: " + V);
    return Status(StatusCode::VerifyError,
                  std::to_string(Violations.size()) +
                      " IR verifier violation(s); first: " + Violations[0]);
  }
  return P;
}

//===----------------------------------------------------------------------===//
// Incremental recompilation
//===----------------------------------------------------------------------===//

bool tsl::relowerMethodBody(Program &P, Method &M, const MethodDeclAst &Decl,
                            DiagnosticEngine &Diag) {
  const unsigned EntryErrors = Diag.errorCount();
  AstModule Empty;
  Lowering L(P, Empty, Diag);
  L.relowerBody(M, Decl);
  if (Diag.errorCount() != EntryErrors)
    return false;

  // A relowered main gets the $clinit call re-prepended, as in
  // selectMain().
  if (P.mainMethod() == &M) {
    Method *Clinit = nullptr;
    for (const auto &MP : P.methods())
      if (!MP->owner() && P.strings().str(MP->name()) == "$clinit")
        Clinit = MP.get();
    prependClinitCall(M, Clinit);
  }
  // Instruction ids are method-local and dense, so renumbering here
  // cannot disturb any other method's artifacts.
  M.renumber();
  buildSSA(P, M);
  std::vector<std::string> Violations = verifyMethod(P, M);
  for (const std::string &V : Violations)
    Diag.error(SourceLoc(), "verifier: " + V);
  return Violations.empty();
}

IncrementalCompileResult
tsl::applyIncrementalCompile(Program &P, const SourceDiff &Diff) {
  IncrementalCompileResult R;
  if (!Diff.Eligible) {
    R.Reason = Diff.Reason.empty() ? "ineligible diff" : Diff.Reason;
    return R;
  }

  // Resolve every dirty function and parse every fragment up front, so
  // failures here leave the program untouched.
  struct Job {
    Method *M = nullptr;
    AstModule Ast;
    const MethodDeclAst *Decl = nullptr;
  };
  std::vector<Job> Jobs;
  for (const SourceDiff::DirtyFn &Fn : Diff.Dirty) {
    Job J;
    Symbol Name = P.strings().lookup(Fn.Name);
    if (!Fn.ClassName.empty()) {
      ClassDef *C = P.findClass(P.strings().lookup(Fn.ClassName));
      J.M = C && Name ? C->findOwnMethod(Name) : nullptr;
    } else if (Name) {
      for (const auto &MP : P.methods())
        if (!MP->owner() && MP->name() == Name) {
          J.M = MP.get();
          break;
        }
    }
    if (!J.M) {
      R.Reason = "cannot resolve edited function '" + Fn.Name + "'";
      return R;
    }
    DiagnosticEngine FragDiag;
    if (!parseModule(Fn.Fragment, J.Ast, FragDiag) || FragDiag.hasErrors()) {
      R.Reason = "parse error in edited '" + Fn.Name + "'";
      return R;
    }
    Jobs.push_back(std::move(J));
  }
  // Decl pointers are taken only once Jobs stops reallocating.
  for (Job &J : Jobs) {
    if (!J.Ast.Classes.empty() || J.Ast.Functions.size() != 1) {
      R.Reason = "unexpected fragment shape";
      return R;
    }
    J.Decl = &J.Ast.Functions[0];
  }

  // Swap in the new bodies. From here on a failure leaves the program
  // in a mixed state: the caller must discard it and cold-compile (the
  // returned RetiredBodies keep the detached storage alive until then).
  DiagnosticEngine Diag;
  for (Job &J : Jobs) {
    R.DirtyMethods.push_back(J.M);
    R.RetiredBodies.push_back(J.M->takeBody());
    if (!relowerMethodBody(P, *J.M, *J.Decl, Diag)) {
      R.Reason = "relower failed";
      for (const Diagnostic &D : Diag.diagnostics())
        if (D.Kind == DiagKind::Error) {
          R.Reason += ": " + D.str();
          break;
        }
      return R;
    }
  }

  // An edit that moved no line re-indexes only the relowered bodies.
  // Otherwise retained source locations of unchanged bodies shift past
  // edits that grew or shrank a body's line count, and every body is
  // re-indexed in the same loop.
  LineTable &Lines = P.lineTable();
  if (!Diff.shiftsLines()) {
    Lines.patch(R.DirtyMethods);
  } else {
    std::unordered_set<const Method *> DirtySet(R.DirtyMethods.begin(),
                                                R.DirtyMethods.end());
    for (const auto &MP : P.methods()) {
      if (!DirtySet.count(MP.get()))
        for (Instr *I : MP->instrs()) {
          SourceLoc L = I->loc();
          if (L.Line == 0)
            continue;
          long D = Diff.shiftForOldLine(L.Line);
          if (D)
            I->setLoc(SourceLoc(static_cast<uint32_t>(
                                    static_cast<long>(L.Line) + D),
                                L.Col));
        }
      Lines.indexMethod(*MP);
    }
    Lines.link(P);
  }
  R.Applied = true;
  return R;
}
