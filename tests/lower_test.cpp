//===-- lower_test.cpp - Sema and lowering unit tests ---------------------------==//

#include "ir/IRPrinter.h"
#include "ir/Instr.h"
#include "ir/Verifier.h"
#include "lang/Lower.h"

#include <gtest/gtest.h>

using namespace tsl;

namespace {

std::unique_ptr<Program> compileOk(const std::string &Source) {
  DiagnosticEngine Diag;
  std::unique_ptr<Program> P = compileThinJ(Source, Diag);
  EXPECT_NE(P, nullptr) << Diag.str();
  if (P) {
    auto Violations = verifyProgram(*P);
    EXPECT_TRUE(Violations.empty())
        << Violations.front() << "\n"
        << printProgram(*P);
  }
  return P;
}

void compileFails(const std::string &Source, const std::string &Needle) {
  DiagnosticEngine Diag;
  std::unique_ptr<Program> P = compileThinJ(Source, Diag);
  EXPECT_EQ(P, nullptr) << "expected a sema error containing: " << Needle;
  EXPECT_NE(Diag.str().find(Needle), std::string::npos)
      << "diagnostics were:\n"
      << Diag.str();
}

/// Finds the first instruction of the given kind in the whole program.
const Instr *findInstr(const Program &P, InstrKind K) {
  for (const auto &M : P.methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs())
        if (I->kind() == K)
          return I.get();
  return nullptr;
}

unsigned countInstrs(const Program &P, InstrKind K) {
  unsigned N = 0;
  for (const auto &M : P.methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs())
        N += I->kind() == K;
  return N;
}

} // namespace

//===----------------------------------------------------------------------===//
// Basic lowering shapes
//===----------------------------------------------------------------------===//

TEST(Lower, MinimalMain) {
  auto P = compileOk("def main() { print(1 + 2); }");
  ASSERT_NE(P->mainMethod(), nullptr);
  EXPECT_NE(findInstr(*P, InstrKind::BinOp), nullptr);
  EXPECT_NE(findInstr(*P, InstrKind::Print), nullptr);
}

TEST(Lower, FieldsAndMethods) {
  auto P = compileOk(R"(
class Box {
  var value: int;
  def set(v: int) { value = v; }
  def get(): int { return value; }
}
def main() {
  var b = new Box();
  b.set(41);
  print(b.get());
}
)");
  EXPECT_NE(findInstr(*P, InstrKind::New), nullptr);
  EXPECT_NE(findInstr(*P, InstrKind::Store), nullptr);
  EXPECT_NE(findInstr(*P, InstrKind::Load), nullptr);
  // b.set / b.get are virtual calls.
  const auto *Call = cast<CallInstr>(findInstr(*P, InstrKind::Call));
  EXPECT_TRUE(Call->isVirtual());
}

TEST(Lower, ImplicitThisFieldAccess) {
  auto P = compileOk(R"(
class Counter {
  var n: int;
  def bump() { n = n + 1; }
}
def main() { var c = new Counter(); c.bump(); }
)");
  // "n = n + 1" lowers to a load and a store through this.
  const auto *St = cast<StoreInstr>(findInstr(*P, InstrKind::Store));
  EXPECT_FALSE(St->isStaticAccess());
}

TEST(Lower, StaticFieldsGetClinit) {
  auto P = compileOk(R"(
class Config {
  static var level: int = 3;
}
def main() { print(Config.level); }
)");
  // $clinit stores the initializer; main calls $clinit first.
  bool FoundClinit = false;
  for (const auto &M : P->methods())
    if (P->strings().str(M->name()) == "$clinit")
      FoundClinit = true;
  EXPECT_TRUE(FoundClinit);
  const auto *St = cast<StoreInstr>(findInstr(*P, InstrKind::Store));
  EXPECT_TRUE(St->isStaticAccess());
}

TEST(Lower, ConstructorAndSuper) {
  auto P = compileOk(R"(
class A {
  var tag: int;
  def init(t: int) { tag = t; }
}
class B extends A {
  def init() { super(7); }
}
def main() { var b = new B(); print(b.tag); }
)");
  // Constructor calls dispatch statically but carry a receiver.
  unsigned StaticDispatchCalls = 0;
  for (const auto &M : P->methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs())
        if (const auto *C = dyn_cast<CallInstr>(I.get()))
          if (!C->isVirtual() && C->hasReceiver())
            ++StaticDispatchCalls;
  EXPECT_EQ(StaticDispatchCalls, 2u); // new B() -> init, super(7).
}

TEST(Lower, StringOperations) {
  auto P = compileOk(R"(
def main() {
  var s = "hello world";
  var i = s.indexOf(" ");
  var w = s.substring(0, i);
  print(w + "!" + s.length());
  print(str(42));
  if (w.equals("hello")) { print(s.charAt(0)); }
}
)");
  EXPECT_GE(countInstrs(*P, InstrKind::StrOp), 6u);
}

TEST(Lower, StringConcatCoercesInt) {
  auto P = compileOk("def main() { print(\"n=\" + 3); }");
  bool SawFromInt = false;
  for (const auto &M : P->methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs())
        if (const auto *SO = dyn_cast<StrOpInstr>(I.get()))
          SawFromInt |= SO->op() == StrOpKind::FromInt;
  EXPECT_TRUE(SawFromInt);
}

TEST(Lower, ShortCircuitCreatesBranches) {
  auto P = compileOk(R"(
def main() {
  var a = readInt() > 0;
  var b = readInt() > 1;
  if (a && b) { print("both"); }
  if (a || b) { print("either"); }
}
)");
  // Each logical operator lowers to its own branch, plus one per if.
  EXPECT_GE(countInstrs(*P, InstrKind::Branch), 4u);
}

TEST(Lower, ArraysEndToEnd) {
  auto P = compileOk(R"(
def main() {
  var a = new int[4];
  a[0] = 7;
  var x = a[0] + a.length;
  var grid = new string[2][];
  grid[0] = new string[3];
  grid[0][1] = "cell";
  print(x);
  print(grid[0][1]);
}
)");
  EXPECT_GE(countInstrs(*P, InstrKind::ArrayStore), 3u);
  EXPECT_GE(countInstrs(*P, InstrKind::ArrayLoad), 3u);
  EXPECT_EQ(countInstrs(*P, InstrKind::ArrayLen), 1u);
}

TEST(Lower, BreakAndContinueTargets) {
  auto P = compileOk(R"(
def main() {
  var i = 0;
  while (true) {
    i = i + 1;
    if (i > 5) { break; }
    if (i == 2) { continue; }
    print(i);
  }
  print("done");
}
)");
  (void)P;
}

TEST(Lower, FallOffEndSynthesizesReturn) {
  auto P = compileOk("def f(): int { var x = 1; } def main() { print(f()); }");
  // Every block is terminated (verifier already checked); the implicit
  // return exists.
  const Method *F = nullptr;
  for (const auto &M : P->methods())
    if (P->strings().str(M->name()) == "f")
      F = M.get();
  ASSERT_NE(F, nullptr);
  bool HasRet = false;
  for (const auto &BB : F->blocks())
    if (BB->terminator() && isa<RetInstr>(BB->terminator()))
      HasRet = true;
  EXPECT_TRUE(HasRet);
}

TEST(Lower, UnreachableCodeIsDropped) {
  auto P = compileOk(R"(
def f(): int {
  return 1;
  print("never");
}
def main() { print(f()); }
)");
  EXPECT_EQ(countInstrs(*P, InstrKind::Print), 1u); // Only main's.
}

TEST(Lower, OperandRolesOnHeapAccesses) {
  auto P = compileOk(R"(
class C { var f: Object; }
def main() {
  var c = new C();
  var a = new Object[3];
  c.f = a;
  a[1] = c.f;
}
)");
  const auto *St = cast<StoreInstr>(findInstr(*P, InstrKind::Store));
  EXPECT_EQ(St->operandRole(0), OperandRole::Base);
  EXPECT_EQ(St->operandRole(1), OperandRole::Value);
  const auto *AS =
      cast<ArrayStoreInstr>(findInstr(*P, InstrKind::ArrayStore));
  EXPECT_EQ(AS->operandRole(0), OperandRole::Base);
  EXPECT_EQ(AS->operandRole(1), OperandRole::Index);
  EXPECT_EQ(AS->operandRole(2), OperandRole::Value);
}

//===----------------------------------------------------------------------===//
// Sema errors
//===----------------------------------------------------------------------===//

TEST(LowerErrors, UnknownVariable) {
  compileFails("def main() { print(nope); }", "unknown variable");
}

TEST(LowerErrors, UnknownClass) {
  compileFails("def main() { var x = new Nope(); }", "unknown class");
}

TEST(LowerErrors, TypeMismatchAssign) {
  compileFails("def main() { var x = 1; x = \"s\"; }", "cannot assign");
}

TEST(LowerErrors, ConditionMustBeBool) {
  compileFails("def main() { if (1) { } }", "must be bool");
}

TEST(LowerErrors, ReturnTypeChecked) {
  compileFails("def f(): int { return \"s\"; } def main() { }",
               "return type mismatch");
}

TEST(LowerErrors, ArgumentCount) {
  compileFails("def f(x: int) { } def main() { f(); }", "expects 1");
}

TEST(LowerErrors, ArgumentType) {
  compileFails("def f(x: int) { } def main() { f(\"s\"); }",
               "type mismatch");
}

TEST(LowerErrors, NoMain) { compileFails("def helper() { }", "no entry"); }

TEST(LowerErrors, MainWithParamsRejected) {
  compileFails("def main(x: int) { }", "must take no parameters");
}

TEST(LowerErrors, DuplicateClass) {
  compileFails("class A { } class A { } def main() { }", "duplicate class");
}

TEST(LowerErrors, DuplicateLocal) {
  compileFails("def main() { var x = 1; var x = 2; }", "redeclaration");
}

TEST(LowerErrors, InheritanceCycle) {
  compileFails("class A extends B { } class B extends A { } def main() { }",
               "cycle");
}

TEST(LowerErrors, IncompatibleOverride) {
  compileFails(R"(
class A { def m(x: int) { } }
class B extends A { def m(x: string) { } }
def main() { }
)",
               "incompatible signature");
}

TEST(LowerErrors, ThisInStaticMethod) {
  compileFails(R"(
class A { static def s() { print(this); } }
def main() { }
)",
               "'this' outside an instance method");
}

TEST(LowerErrors, InstanceFieldFromStatic) {
  compileFails(R"(
class A {
  var f: int;
  static def s(): int { return f; }
}
def main() { }
)",
               "in a static method");
}

TEST(LowerErrors, SuperOutsideInit) {
  compileFails(R"(
class A { def init(x: int) { } }
class B extends A { def other() { super(1); } }
def main() { }
)",
               "only valid inside 'init'");
}

TEST(LowerErrors, NullNeedsAnnotation) {
  compileFails("def main() { var x = null; }", "cannot infer");
}

TEST(LowerErrors, InvalidCast) {
  compileFails("def main() { var x = 1; var y = (string) x; }",
               "invalid cast");
}

TEST(LowerErrors, ArithmeticTypeChecked) {
  compileFails("def main() { var x = true + 1; }", "invalid operands");
}

TEST(LowerErrors, VoidUsedAsValue) {
  compileFails("def v() { } def main() { var x = v(); }",
               "void used as a value");
}

TEST(LowerErrors, UnknownField) {
  compileFails(R"(
class A { }
def main() { var a = new A(); print(a.nope); }
)",
               "has no field");
}

TEST(LowerErrors, UnknownMethod) {
  compileFails(R"(
class A { }
def main() { var a = new A(); a.nope(); }
)",
               "has no method");
}

TEST(LowerErrors, SubtypingEnforcedOnArguments) {
  // A Vector is an Object, but an Object is not a Vector.
  compileFails(R"(
class Vector2 { }
def f(v: Vector2) { }
def main() {
  var o: Object = new Vector2();
  f(o);
}
)",
               "type mismatch");
}

TEST(Lower, SubtypingUpcastsAllowed) {
  compileOk(R"(
class Animal { }
class Cat extends Animal { }
def feed(a: Animal) { }
def main() {
  feed(new Cat());
  var a: Animal = new Cat();
  var c = (Cat) a;
  print(a == c);
}
)");
}
