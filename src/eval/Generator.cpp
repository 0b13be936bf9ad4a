//===-- Generator.cpp - Program generators --------------------------------------==//

#include "eval/Generator.h"

#include "eval/Runtime.h"

using namespace tsl;

namespace {

/// Tiny deterministic PRNG (xorshift64*) so generated programs are
/// reproducible across platforms.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed ? Seed : 0x9e3779b97f4a7c15ull) {}

  uint64_t next() {
    State ^= State >> 12;
    State ^= State << 25;
    State ^= State >> 27;
    return State * 0x2545F4914F6CDD1Dull;
  }

  /// Uniform in [0, Bound).
  unsigned below(unsigned Bound) {
    return Bound ? static_cast<unsigned>(next() % Bound) : 0;
  }

private:
  uint64_t State;
};

std::string num(uint64_t N) { return std::to_string(N); }

} // namespace

//===----------------------------------------------------------------------===//
// javac-style Node hierarchy
//===----------------------------------------------------------------------===//

std::string tsl::generateJavacModel(const std::string &Prefix,
                                    unsigned NumSubclasses) {
  std::string S;
  std::string Base = Prefix + "Node";

  S += "class " + Base + " {\n";
  S += "  var op: int;\n";
  S += "  var left: " + Base + ";\n";
  S += "  var right: " + Base + ";\n";
  S += "  def init(op0: int) {\n";
  S += "    this.op = op0; //@ " + Prefix + "-seedstore\n";
  S += "    left = null;\n";
  S += "    right = null;\n";
  S += "  }\n";
  S += "}\n\n";

  for (unsigned I = 0; I != NumSubclasses; ++I) {
    std::string Sub = Base + num(I);
    S += "class " + Sub + " extends " + Base + " {\n";
    S += "  var payload" + num(I) + ": int;\n";
    S += "  def init(p: int, l: " + Base + ") {\n";
    S += "    super(" + Prefix + "Opcode(" + num(I) + ")); //@ " + Prefix +
         "-tag-" + num(I) + "\n";
    S += "    payload" + num(I) + " = p;\n";
    S += "    left = l;\n";
    S += "  }\n";
    S += "}\n\n";
  }

  // Opcode assignment goes through one level of indirection, as
  // javac's ByteCodes constants do; the defining computation is part
  // of every cast-safety argument.
  S += "def " + Prefix + "Opcode(k: int): int {\n";
  S += "  return k + 1; //@ " + Prefix + "-opfun\n";
  S += "}\n\n";

  // Payload computation with some arithmetic depth; its flow is
  // value-level and ends up in the thin slice frontier of payload
  // reads, not of the opcode.
  S += "def " + Prefix + "Payload(seed: int): int {\n";
  S += "  var a = seed * 7 + 3;\n";
  S += "  var b = a % 101;\n";
  S += "  if (b < 0) {\n    b = 0 - b;\n  }\n";
  S += "  return b * 2 + seed;\n";
  S += "}\n\n";

  // Builder constructing one node of each kind into a Vector, chained
  // as children of each other (tree plumbing that only traditional
  // slices wade through).
  S += "def " + Prefix + "BuildNodes(): Vector {\n";
  S += "  var nodes = new Vector();\n";
  S += "  var prev: " + Base + " = new " + Base + num(0) + "(" + Prefix +
       "Payload(0), null); //@ " + Prefix + "-build-0\n";
  S += "  nodes.add(prev);\n";
  for (unsigned I = 1; I != NumSubclasses; ++I) {
    S += "  var n" + num(I) + " = new " + Base + num(I) + "(" + Prefix +
         "Payload(" + num(I) + "), prev); //@ " + Prefix + "-build-" +
         num(I) + "\n";
    S += "  nodes.add(n" + num(I) + ");\n";
    S += "  prev = n" + num(I) + ";\n";
  }
  S += "  return nodes;\n";
  S += "}\n\n";

  // A normalization pass copying nodes through a second Vector, plus a
  // registry keyed by rendered opcode — more base-pointer plumbing.
  S += "def " + Prefix + "Normalize(nodes: Vector): Vector {\n";
  S += "  var out = new Vector();\n";
  S += "  var registry = new HashMap();\n";
  S += "  for (var i = 0; i < nodes.size(); i = i + 1) {\n";
  S += "    var n = (" + Base + ") nodes.get(i);\n";
  S += "    if (n.op % 2 == 0) {\n";
  S += "      out.add(n);\n";
  S += "    } else {\n";
  S += "      registry.put(\"op\" + n.op, n);\n";
  S += "      out.add(n);\n";
  S += "    }\n";
  S += "  }\n";
  S += "  return out;\n";
  S += "}\n\n";

  // Simplifier with opcode-guarded downcasts (Figure 5 at scale). Four
  // cast sites exercise different subclasses.
  S += "def " + Prefix + "Simplify(n: " + Base + "): int {\n";
  S += "  var op = n.op; //@ " + Prefix + "-opread\n";
  S += "  var rest = 0;\n";
  S += "  if (n.left != null) {\n";
  S += "    rest = " + Prefix + "Simplify(n.left);\n";
  S += "  }\n";
  for (unsigned K = 0; K != 4 && K < NumSubclasses; ++K) {
    std::string Sub = Base + num(K);
    S += "  if (op == " + num(K + 1) + ") {\n";
    S += "    var c" + num(K) + " = (" + Sub + ") n; //@ " + Prefix +
         "-cast-" + num(K) + "\n";
    S += "    return rest + c" + num(K) + ".payload" + num(K) + ";\n";
    S += "  }\n";
  }
  S += "  return rest;\n";
  S += "}\n\n";

  // An evaluation pass that routes nodes through a work Stack before
  // simplification — more of the base-pointer plumbing a traditional
  // slice must wade through.
  S += "def " + Prefix + "Drain(nodes: Vector): int {\n";
  S += "  var work = new Stack();\n";
  S += "  for (var i = 0; i < nodes.size(); i = i + 1) {\n";
  S += "    work.push(nodes.get(i));\n";
  S += "  }\n";
  S += "  var total = 0;\n";
  S += "  while (!work.isEmpty()) {\n";
  S += "    var n = (" + Base + ") work.pop();\n";
  S += "    total = total + " + Prefix + "Simplify(n);\n";
  S += "  }\n";
  S += "  return total;\n";
  S += "}\n\n";

  S += "def " + Prefix + "Run(): int {\n";
  S += "  var built = " + Prefix + "BuildNodes();\n";
  S += "  var nodes = " + Prefix + "Normalize(built);\n";
  S += "  var total = " + Prefix + "Drain(nodes);\n";
  S += "  for (var i = 0; i < nodes.size(); i = i + 1) {\n";
  S += "    var n = (" + Base + ") nodes.get(i);\n";
  S += "    total = total + " + Prefix + "Simplify(n);\n";
  S += "  }\n";
  S += "  return total;\n";
  S += "}\n\n";
  return S;
}

//===----------------------------------------------------------------------===//
// Reachable padding
//===----------------------------------------------------------------------===//

std::string tsl::generatePadding(const std::string &Tag, unsigned NumClasses,
                                 unsigned MethodsPerClass) {
  std::string S;
  auto ClassName = [&](unsigned I) { return "Pad" + Tag + num(I); };

  for (unsigned C = 0; C != NumClasses; ++C) {
    S += "class " + ClassName(C) + " {\n";
    S += "  var total: int;\n";
    S += "  var label: string;\n";
    S += "  var cache: Vector;\n";
    S += "  def init() {\n";
    S += "    total = " + num(C) + ";\n";
    S += "    label = \"pad" + num(C) + "\";\n";
    S += "    cache = new Vector();\n";
    S += "  }\n";
    for (unsigned M = 0; M != MethodsPerClass; ++M) {
      S += "  def work" + num(M) + "(x: int): int {\n";
      S += "    var acc = x + " + num(M * 7 + 1) + ";\n";
      S += "    if (acc % 2 == 0) {\n";
      S += "      acc = acc * 3 + total;\n";
      S += "    } else {\n";
      S += "      acc = acc - total;\n";
      S += "    }\n";
      S += "    cache.add(label + acc);\n";
      S += "    total = total + acc % 17;\n";
      S += "    return acc;\n";
      S += "  }\n";
    }
    S += "  def summary(): string {\n";
    S += "    if (cache.size() > 0) {\n";
    S += "      return (string) cache.get(cache.size() - 1);\n";
    S += "    }\n";
    S += "    return label;\n";
    S += "  }\n";
    S += "}\n\n";
  }

  // Entry: touch every class and method so the on-the-fly call graph
  // reaches all of it.
  S += "def padEntry" + Tag + "(budget: int): int {\n";
  S += "  var sum = budget;\n";
  for (unsigned C = 0; C != NumClasses; ++C) {
    std::string Var = "p" + num(C);
    S += "  var " + Var + " = new " + ClassName(C) + "();\n";
    for (unsigned M = 0; M != MethodsPerClass; ++M)
      S += "  sum = sum + " + Var + ".work" + num(M) + "(sum);\n";
    S += "  print(" + Var + ".summary());\n";
  }
  S += "  return sum;\n";
  S += "}\n\n";
  return S;
}

//===----------------------------------------------------------------------===//
// Random programs for property tests
//===----------------------------------------------------------------------===//

std::string tsl::generateRandomProgram(uint64_t Seed) {
  Rng R(Seed);
  // Generated programs use the container runtime (Vector etc.).
  std::string S = runtimeLibrarySource();

  unsigned NumClasses = 1 + R.below(3);
  unsigned NumFuncs = 2 + R.below(3);

  // Classes with an int field, a string field, and an Object field,
  // plus simple accessor logic.
  for (unsigned C = 0; C != NumClasses; ++C) {
    std::string Name = "R";
    Name += num(C);
    S += "class " + Name + " {\n";
    S += "  var num: int;\n";
    S += "  var tag: string;\n";
    S += "  var link: Object;\n";
    S += "  def init(n: int) {\n";
    S += "    num = n;\n";
    S += "    tag = \"r" + num(C) + "-\" + n;\n";
    S += "    link = null;\n";
    S += "  }\n";
    S += "  def bump(d: int): int {\n";
    S += "    num = num + d;\n";
    S += "    return num;\n";
    S += "  }\n";
    S += "  def describe(): string {\n";
    S += "    return tag + \":\" + num;\n";
    S += "  }\n";
    S += "}\n\n";
  }

  // Leaf functions performing arithmetic / string work.
  for (unsigned F = 0; F != NumFuncs; ++F) {
    std::string Name = "calc" + num(F);
    S += "def " + Name + "(a: int, b: int): int {\n";
    S += "  var x = a * " + num(1 + R.below(5)) + " + b;\n";
    switch (R.below(3)) {
    case 0:
      S += "  if (x % 2 == 0) {\n    x = x + " + num(R.below(9)) +
           ";\n  } else {\n    x = x - 1;\n  }\n";
      break;
    case 1:
      S += "  for (var i = 0; i < " + num(1 + R.below(4)) +
           "; i = i + 1) {\n    x = x + i;\n  }\n";
      break;
    default:
      S += "  x = x % 1000 + " + num(R.below(7)) + ";\n";
      break;
    }
    S += "  return x;\n";
    S += "}\n\n";
  }

  // A container round-trip: store objects and strings, read back.
  S += "def roundTrip(count: int): Vector {\n";
  S += "  var box = new Vector();\n";
  S += "  for (var i = 0; i < count; i = i + 1) {\n";
  S += "    var obj = new R0(calc0(i, i + 1));\n";
  S += "    box.add(obj);\n";
  S += "  }\n";
  S += "  return box;\n";
  S += "}\n\n";

  S += "def main() {\n";
  S += "  var total = " + num(R.below(10)) + ";\n";
  for (unsigned F = 0; F != NumFuncs; ++F)
    S += "  total = total + calc" + num(F) + "(total, " + num(R.below(20)) +
         ");\n";
  S += "  var box = roundTrip(" + num(2 + R.below(4)) + ");\n";
  S += "  for (var i = 0; i < box.size(); i = i + 1) {\n";
  S += "    var r = (R0) box.get(i);\n";
  S += "    total = total + r.bump(i);\n";
  S += "    print(r.describe());\n";
  S += "  }\n";
  unsigned Extra = R.below(NumClasses);
  S += "  var holder = new R" + num(Extra) + "(total);\n";
  S += "  holder.link = box;\n";
  S += "  print(holder.describe());\n";
  S += "  print(\"total=\" + total);\n";
  S += "}\n";
  return S;
}
