//===-- GenProgram.h - Seeded ThinJ source generators for tests --*- C++ -*-==//
//
// Deterministic random-program generators shared by the fuzz smoke
// test (fuzz_test.cpp) and the heap-wiring differential test
// (sdg_test.cpp). Every program is a pure function of the generator
// state, so a failure reproduces from the seed alone.
//
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_TESTS_GENPROGRAM_H
#define THINSLICER_TESTS_GENPROGRAM_H

#include <cstdint>
#include <string>
#include <vector>

namespace tsl {
namespace testgen {

/// splitmix64: deterministic across platforms (no libc rand).
struct Rng {
  uint64_t State;
  uint64_t next() {
    State += 0x9E3779B97F4A7C15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  uint64_t operator()(uint64_t N) { return next() % N; }
};

/// "<Prefix><N>", built by appending: GCC 12 at -O3 misreports
/// operator+(const char *, std::string &&) under -Wrestrict.
inline std::string named(const char *Prefix, uint64_t N) {
  std::string S = Prefix;
  S += std::to_string(N);
  return S;
}

/// A random expression over the in-scope int variables in \p Scope.

inline std::string genExpr(Rng &R, const std::vector<unsigned> &Scope,
                           unsigned Depth) {
  if (Depth == 0 || R(3) == 0) {
    if (!Scope.empty() && R(2))
      return named("v", Scope[R(Scope.size())]);
    return std::to_string(R(100));
  }
  const char *Ops[] = {" + ", " - ", " * "};
  // Right operand first: the order GCC evaluated the operator+ chain
  // this replaces in, so every seed still generates the same program.
  const std::string Rhs = genExpr(R, Scope, Depth - 1);
  const char *Op = Ops[R(3)];
  const std::string Lhs = genExpr(R, Scope, Depth - 1);
  std::string Out = "(";
  Out += Lhs;
  Out += Op;
  Out += Rhs;
  Out += ')';
  return Out;
}

/// A random statement list. \p Scope is the list of variable names
/// visible here (nested blocks get a copy, so names declared inside a
/// block are never referenced after it closes); \p NextName is the
/// program-wide name counter (shared, so no name is declared twice).
inline std::string genStmts(Rng &R, std::vector<unsigned> &Scope,
                            unsigned &NextName, unsigned Budget,
                            unsigned Indent) {
  std::string Pad(Indent, ' ');
  std::string Out;
  for (unsigned I = 0; I != Budget; ++I) {
    switch (R(6)) {
    case 0:
    case 1:
      Out += Pad + "var v" + std::to_string(NextName) + " = " +
             genExpr(R, Scope, 2) + ";\n";
      Scope.push_back(NextName++);
      break;
    case 2:
      if (!Scope.empty()) {
        Out += Pad + "v" + std::to_string(Scope[R(Scope.size())]) + " = " +
               genExpr(R, Scope, 2) + ";\n";
        break;
      }
      [[fallthrough]];
    case 3:
      Out += Pad + "print(\"s" + std::to_string(R(10)) + "\");\n";
      break;
    case 4:
      if (!Scope.empty()) {
        Out += Pad + "if (v" + std::to_string(Scope[R(Scope.size())]) +
               " < " + std::to_string(R(50)) + ") {\n";
        std::vector<unsigned> Inner = Scope;
        Out += genStmts(R, Inner, NextName, 1 + R(2), Indent + 2);
        Out += Pad + "}\n";
        break;
      }
      [[fallthrough]];
    default: {
      unsigned Loop = NextName++;
      Out += Pad + "var v" + std::to_string(Loop) + " = 0;\n";
      Scope.push_back(Loop);
      Out += Pad + "while (v" + std::to_string(Loop) + " < " +
             std::to_string(1 + R(4)) + ") {\n";
      std::vector<unsigned> Inner = Scope;
      Out += genStmts(R, Inner, NextName, 1 + R(2), Indent + 2);
      Out += Pad + "  v" + std::to_string(Loop) + " = v" +
             std::to_string(Loop) + " + 1;\n";
      Out += Pad + "}\n";
      break;
    }
    }
  }
  return Out;
}

/// One whole program: a class with an int field, a helper that stores
/// through it, and a main built from the random statement grammar.
inline std::string genProgram(Rng &R) {
  std::string Out;
  Out += "class Box { var f: int; }\n";
  Out += "def poke(b: Box, x: int) {\n  b.f = x;\n}\n";
  Out += "def main() {\n";
  Out += "  var b = new Box();\n";
  std::vector<unsigned> Scope;
  unsigned NextName = 0;
  Out += genStmts(R, Scope, NextName, 3 + R(5), 2);
  if (!Scope.empty())
    Out += "  poke(b, v" + std::to_string(Scope[R(Scope.size())]) + ");\n";
  Out += "  print(\"end\");\n";
  Out += "}\n";

  // A fraction of the corpus is mutated to exercise the recovering
  // parser: truncation or a spliced-in junk byte.
  switch (R(5)) {
  case 0:
    Out = Out.substr(0, R(Out.size()) + 1);
    break;
  case 1: {
    std::size_t Pos = R(Out.size());
    Out[Pos] = static_cast<char>(32 + R(95));
    break;
  }
  default:
    break;
  }
  return Out;
}


/// A well-formed program dense in heap traffic: instance-field,
/// static-field and array stores and loads through a random alias
/// graph of locals, some through helper methods. Never mutated, so it
/// always compiles; it is analyzed, not run.
inline std::string genHeapProgram(Rng &R) {
  std::string Out = "class A { var f: A; var g: int; var arr: int[]; }\n"
                    "class S { static var s: A; static var n: int; }\n"
                    "def set(x: A, y: A) {\n  x.f = y;\n}\n"
                    "def get(x: A): A {\n  return x.f;\n}\n"
                    "def main() {\n";
  const unsigned NumObjs = 2 + R(4);
  for (unsigned I = 0; I != NumObjs; ++I)
    Out += "  var o" + std::to_string(I) + " = new A();\n";
  unsigned NextInt = 0;
  for (unsigned N = 6 + R(14); N; --N) {
    // Draw every operand first, in declaration order: the evaluation
    // order of a chain of operator+ calls is unspecified.
    const std::string X = named("o", R(NumObjs));
    const std::string Y = named("o", R(NumObjs));
    const std::string K = std::to_string(R(100));
    const std::string Idx = std::to_string(R(3));
    const std::string Int = "  var v" + std::to_string(NextInt++) + " = ";
    switch (R(10)) {
    case 0:
      Out += "  " + X + " = " + Y + ";\n";
      break;
    case 1:
      Out += "  " + X + ".f = " + Y + ";\n";
      break;
    case 2:
      Out += "  " + X + " = " + Y + ".f;\n";
      break;
    case 3:
      Out += "  " + X + ".g = " + K + ";\n" + Int + Y + ".g;\n";
      break;
    case 4:
      Out += "  S.s = " + X + ";\n  S.n = " + K + ";\n";
      break;
    case 5:
      Out += "  " + X + " = S.s;\n" + Int + "S.n;\n";
      break;
    case 6:
      Out += "  " + X + ".arr = new int[3];\n";
      Out += "  " + Y + ".arr[" + Idx + "] = " + K + ";\n";
      break;
    case 7:
      Out += Int + X + ".arr[" + Idx + "];\n";
      break;
    case 8:
      Out += "  set(" + X + ", " + Y + ");\n";
      break;
    default:
      Out += "  " + X + " = get(" + Y + ");\n";
      break;
    }
  }
  Out += "  print(\"end\");\n}\n";
  return Out;
}

} // namespace testgen
} // namespace tsl

#endif // THINSLICER_TESTS_GENPROGRAM_H
