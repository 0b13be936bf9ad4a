//===-- modref_test.cpp - Mod-ref analysis unit tests ---------------------------==//

#include "lang/Lower.h"
#include "modref/ModRef.h"
#include "pta/PointsTo.h"

#include <gtest/gtest.h>

using namespace tsl;

namespace {

struct Fixture {
  std::unique_ptr<Program> P;
  std::unique_ptr<PointsToResult> PTA;
  std::unique_ptr<ModRefResult> MR;

  explicit Fixture(const std::string &Source) {
    DiagnosticEngine Diag;
    P = compileThinJ(Source, Diag);
    EXPECT_NE(P, nullptr) << Diag.str();
    if (P) {
      PTA = runPointsTo(*P);
      MR = std::make_unique<ModRefResult>(*P, *PTA);
    }
  }

  Method *fn(const std::string &Name) {
    for (const auto &M : P->methods())
      if (M->qualifiedName(P->strings()) == Name)
        return M.get();
    return nullptr;
  }
};

const char *Source = R"(
class Cell {
  var value: Object;
}
def writeCell(c: Cell, v: Object) {
  c.value = v;
}
def readCell(c: Cell): Object {
  return c.value;
}
def writeViaHelper(c: Cell, v: Object) {
  writeCell(c, v);
}
def pureMath(x: int): int {
  return x * x + 1;
}
def main() {
  var c = new Cell();
  writeViaHelper(c, new Object());
  var r = readCell(c);
  print(pureMath(3));
  print(r == null);
}
)";

} // namespace

TEST(ModRef, DirectEffects) {
  Fixture F(Source);
  Method *Write = F.fn("writeCell");
  Method *Read = F.fn("readCell");
  EXPECT_EQ(F.MR->modOf(Write).count(), 1u);
  EXPECT_TRUE(F.MR->refOf(Write).empty());
  EXPECT_TRUE(F.MR->modOf(Read).empty());
  EXPECT_EQ(F.MR->refOf(Read).count(), 1u);
  // The same partition on both sides.
  EXPECT_TRUE(F.MR->modOf(Write) == F.MR->refOf(Read));
}

TEST(ModRef, TransitiveThroughCallees) {
  Fixture F(Source);
  Method *Helper = F.fn("writeViaHelper");
  Method *Main = F.fn("main");
  EXPECT_EQ(F.MR->modOf(Helper).count(), 1u);
  // main transitively mods the cell and refs it (via readCell).
  EXPECT_GE(F.MR->modOf(Main).count(), 1u);
  EXPECT_GE(F.MR->refOf(Main).count(), 1u);
}

TEST(ModRef, PureFunctionHasNoEffects) {
  Fixture F(Source);
  Method *Pure = F.fn("pureMath");
  EXPECT_TRUE(F.MR->modOf(Pure).empty());
  EXPECT_TRUE(F.MR->refOf(Pure).empty());
}

TEST(ModRef, PartitionsOfAccess) {
  Fixture F(Source);
  // Find the store in writeCell and the load in readCell.
  const Instr *Store = nullptr, *Load = nullptr;
  for (const auto &BB : F.fn("writeCell")->blocks())
    for (const auto &I : BB->instrs())
      if (isa<StoreInstr>(I.get()))
        Store = I.get();
  for (const auto &BB : F.fn("readCell")->blocks())
    for (const auto &I : BB->instrs())
      if (isa<LoadInstr>(I.get()))
        Load = I.get();
  ASSERT_NE(Store, nullptr);
  ASSERT_NE(Load, nullptr);
  SparseBitSet SP = F.MR->partitionsOf(Store);
  SparseBitSet LP = F.MR->partitionsOf(Load);
  EXPECT_EQ(SP.count(), 1u);
  EXPECT_TRUE(SP == LP);
}

TEST(ModRef, DistinctObjectsDistinctPartitions) {
  Fixture F(R"(
class Cell { var value: Object; }
def main() {
  var a = new Cell();
  var b = new Cell();
  a.value = new Object();
  b.value = new Object();
  var r = a.value;
  print(r == null);
}
)");
  // Two (object, field) partitions exist for the two cells.
  EXPECT_GE(F.MR->numPartitions(), 2u);
  Method *Main = F.fn("main");
  EXPECT_EQ(F.MR->modOf(Main).count(), 2u);
  EXPECT_EQ(F.MR->refOf(Main).count(), 1u);
}

TEST(ModRef, ArraysAndStatics) {
  Fixture F(R"(
class G { static var flag: Object; }
def touchArray(a: Object[]) {
  a[0] = G.flag;
}
def main() {
  G.flag = new Object();
  var arr = new Object[2];
  touchArray(arr);
  var r = arr[1];
  print(r == null);
}
)");
  Method *Touch = F.fn("touchArray");
  EXPECT_EQ(F.MR->modOf(Touch).count(), 1u); // The array elements.
  EXPECT_EQ(F.MR->refOf(Touch).count(), 1u); // The static field.
  std::string ModName =
      F.MR->partitionName(F.MR->modOf(Touch).toVector().front(), *F.P);
  EXPECT_NE(ModName.find("[*]"), std::string::npos);
  std::string RefName =
      F.MR->partitionName(F.MR->refOf(Touch).toVector().front(), *F.P);
  EXPECT_EQ(RefName, "G.flag");
}
