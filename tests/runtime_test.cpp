//===-- runtime_test.cpp - Container runtime semantics and analysis -------------==//
//
// The ThinJ container library (Vector/Stack/LinkedList/HashMap) is
// analyzed source, so its behavior matters twice: the interpreter must
// execute it correctly (growth, collisions, traversal), and the
// analyses must trace values through its internals.
//
//===----------------------------------------------------------------------===//

#include "dyn/Interp.h"
#include "eval/Runtime.h"
#include "lang/Lower.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"
#include "slicer/Slicer.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace tsl;

namespace {

InterpResult runWithRuntime(const std::string &Body,
                            InterpOptions Opts = {}) {
  DiagnosticEngine Diag;
  auto P = compileThinJ(runtimeLibrarySource() + Body, Diag);
  EXPECT_NE(P, nullptr) << Diag.str();
  if (!P)
    return {};
  return interpret(*P, Opts);
}

} // namespace

TEST(Runtime, VectorGrowsPastInitialCapacity) {
  InterpResult R = runWithRuntime(R"(
def main() {
  var v = new Vector();
  for (var i = 0; i < 40; i = i + 1) {
    v.add("item" + i);
  }
  print(v.size());
  print((string) v.get(0));
  print((string) v.get(39));
}
)");
  ASSERT_TRUE(R.Completed) << R.Error;
  EXPECT_EQ(R.Output,
            (std::vector<std::string>{"40", "item0", "item39"}));
}

TEST(Runtime, VectorSetAndRemoveLast) {
  InterpResult R = runWithRuntime(R"(
def main() {
  var v = new Vector();
  v.add("a");
  v.add("b");
  v.set(0, "z");
  print((string) v.removeLast());
  print(v.size());
  print(v.isEmpty());
  print((string) v.get(0));
}
)");
  ASSERT_TRUE(R.Completed) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"b", "1", "false", "z"}));
}

TEST(Runtime, StackLifo) {
  InterpResult R = runWithRuntime(R"(
def main() {
  var s = new Stack();
  s.push("first");
  s.push("second");
  print((string) s.peek());
  print((string) s.pop());
  print((string) s.pop());
  print(s.isEmpty());
}
)");
  ASSERT_TRUE(R.Completed) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"second", "second", "first",
                                                "true"}));
}

TEST(Runtime, LinkedListOrder) {
  InterpResult R = runWithRuntime(R"(
def main() {
  var l = new LinkedList();
  l.addLast("x");
  l.addLast("y");
  l.addLast("z");
  print(l.size());
  for (var i = 0; i < l.size(); i = i + 1) {
    print((string) l.get(i));
  }
}
)");
  ASSERT_TRUE(R.Completed) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"3", "x", "y", "z"}));
}

TEST(Runtime, HashMapBasics) {
  InterpResult R = runWithRuntime(R"(
def main() {
  var m = new HashMap();
  m.put("alpha", "1");
  m.put("beta", "2");
  m.put("alpha", "updated");
  print((string) m.get("alpha"));
  print((string) m.get("beta"));
  print(m.get("gamma") == null);
  print(m.containsKey("beta"));
  print(m.size());
}
)");
  ASSERT_TRUE(R.Completed) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"updated", "2", "true",
                                                "true", "2"}));
}

TEST(Runtime, HashMapManyKeysCollide) {
  // 64 keys in 16 buckets force chains; every key must survive.
  InterpResult R = runWithRuntime(R"(
def main() {
  var m = new HashMap();
  for (var i = 0; i < 64; i = i + 1) {
    m.put("key" + i, "val" + i);
  }
  var ok = true;
  for (var i = 0; i < 64; i = i + 1) {
    var got = (string) m.get("key" + i);
    if (!got.equals("val" + i)) {
      ok = false;
    }
  }
  print(ok);
  print(m.size());
}
)");
  ASSERT_TRUE(R.Completed) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<std::string>{"true", "64"}));
}

TEST(Runtime, RecursionDepthLimit) {
  InterpOptions Opts;
  Opts.MaxCallDepth = 100;
  InterpResult R = runWithRuntime(R"(
def dive(n: int): int {
  return dive(n + 1);
}
def main() {
  print(dive(0));
}
)",
                                  Opts);
  EXPECT_FALSE(R.Completed);
  EXPECT_NE(R.Error.find("depth"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Analysis through the runtime
//===----------------------------------------------------------------------===//

namespace {

struct Analyzed {
  std::unique_ptr<Program> P;
  std::unique_ptr<PointsToResult> PTA;
  std::unique_ptr<SDG> G;

  explicit Analyzed(const std::string &Body) {
    DiagnosticEngine Diag;
    P = compileThinJ(runtimeLibrarySource() + Body, Diag);
    EXPECT_NE(P, nullptr) << Diag.str();
    if (!P)
      return;
    PTA = runPointsTo(*P);
    G = buildSDG(*P, *PTA, nullptr);
  }
};

} // namespace

TEST(Runtime, ThinSliceThroughHashMap) {
  unsigned Offset = runtimeLibraryLines();
  Analyzed A(R"(
def main() {
  var m = new HashMap();
  var secret = readLine();
  m.put("k", secret);
  var out = (string) m.get("k");
  print(out);
}
)");
  const Instr *Seed = nullptr;
  for (const auto &M : A.P->methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs())
        if (isa<PrintInstr>(I.get()))
          Seed = I.get();
  SliceResult Thin = sliceBackward(*A.G, Seed, SliceMode::Thin);
  // The secret's producers: readLine (user line 4), the put call
  // (line 5), and inside the runtime the MapEntry value store.
  EXPECT_TRUE(A.P->mainMethod() &&
              Thin.containsLine(A.P->mainMethod(), Offset + 4));
  EXPECT_TRUE(Thin.containsLine(A.P->mainMethod(), Offset + 5));
  bool TouchesMapEntry = false;
  for (const Instr *I : Thin.statements())
    if (const auto *St = dyn_cast<StoreInstr>(I))
      if (A.P->strings().str(St->field()->name()) == "value")
        TouchesMapEntry = true;
  EXPECT_TRUE(TouchesMapEntry);
  // The hashing arithmetic (indexFor) is index material: not thin.
  const Method *IndexFor = nullptr;
  for (const auto &M : A.P->methods())
    if (M->qualifiedName(A.P->strings()) == "HashMap.indexFor")
      IndexFor = M.get();
  ASSERT_NE(IndexFor, nullptr);
  bool TouchesIndexFor = false;
  for (const SourceLine &L : Thin.sourceLines())
    TouchesIndexFor |= L.M == IndexFor;
  EXPECT_FALSE(TouchesIndexFor);
  // But traditional slicing does wade into it.
  SliceResult Trad = sliceBackward(*A.G, Seed, SliceMode::Traditional);
  bool TradTouchesIndexFor = false;
  for (const SourceLine &L : Trad.sourceLines())
    TradTouchesIndexFor |= L.M == IndexFor;
  EXPECT_TRUE(TradTouchesIndexFor);
}

TEST(Runtime, TwoHashMapsStayApartUnderObjSens) {
  Analyzed A(R"(
def main() {
  var m1 = new HashMap();
  var m2 = new HashMap();
  m1.put("k", "one");
  m2.put("k", "two");
  var r1 = (string) m1.get("k");
  var r2 = (string) m2.get("k");
  print(r1);
  print(r2);
}
)");
  const Local *R1 = nullptr, *R2 = nullptr;
  for (const auto &L : A.P->mainMethod()->locals()) {
    std::string Name = A.P->strings().str(L->baseName());
    if (Name == "r1" && L->version())
      R1 = L.get();
    if (Name == "r2" && L->version())
      R2 = L.get();
  }
  ASSERT_TRUE(R1 && R2);
  EXPECT_FALSE(A.PTA->mayAlias(R1, R2));
}

TEST(Runtime, DeepContainerNestingBoundedCloning) {
  // Vectors of vectors of vectors, and a container class whose methods
  // allocate the next container and call into it: the solver's nesting
  // bound (3 allocation contexts) keeps the context chains finite while
  // the analysis stays sound. Queue is on the solver's container list
  // but not in the runtime library, so the program defines it.
  DiagnosticEngine Diag;
  auto P = compileThinJ(runtimeLibrarySource() + R"(
class Queue {
  var next: Queue;
  def grow(depth: int) {
    if (depth > 0) {
      next = new Queue();
      next.grow(depth - 1);
    }
  }
}
def nest(depth: int): Vector {
  var v = new Vector();
  if (depth > 0) {
    v.add(nest(depth - 1));
  }
  return v;
}
def main() {
  var root = nest(5);
  var inner = (Vector) root.get(0);
  print(inner.size());
  var q = new Queue();
  q.grow(6);
}
)",
                        Diag);
  ASSERT_NE(P, nullptr) << Diag.str();
  auto PTA = runPointsTo(*P);
  // Terminates (bounded contexts) and the cast target is a Vector.
  EXPECT_GT(PTA->callGraph().nodes().size(), 0u);
  // The Queue chain clones down to the bound and no further.
  unsigned MaxDepth = 0;
  for (const AbstractObject &O : PTA->objects())
    MaxDepth = std::max(MaxDepth, O.CtxDepth);
  EXPECT_EQ(MaxDepth, 3u);
  InterpResult R = interpret(*P);
  ASSERT_TRUE(R.Completed) << R.Error;
  EXPECT_EQ(R.Output.front(), "1");
}
