//===-- support_test.cpp - Support library unit tests -------------------------==//

#include "support/BitSet.h"
#include "support/Budget.h"
#include "support/Casting.h"
#include "support/Diagnostics.h"
#include "support/ParseInt.h"
#include "support/SparseBitSet.h"
#include "support/StringTable.h"
#include "support/Worklist.h"

#include <gtest/gtest.h>

#include <random>

using namespace tsl;

//===----------------------------------------------------------------------===//
// BitSet
//===----------------------------------------------------------------------===//

TEST(BitSet, InsertAndTest) {
  BitSet S;
  EXPECT_FALSE(S.test(5));
  EXPECT_TRUE(S.insert(5));
  EXPECT_FALSE(S.insert(5)); // Second insert reports no change.
  EXPECT_TRUE(S.test(5));
  EXPECT_FALSE(S.test(4));
  EXPECT_EQ(S.count(), 1u);
}

TEST(BitSet, GrowsAcrossWordBoundaries) {
  BitSet S;
  EXPECT_TRUE(S.insert(0));
  EXPECT_TRUE(S.insert(63));
  EXPECT_TRUE(S.insert(64));
  EXPECT_TRUE(S.insert(1000));
  EXPECT_EQ(S.count(), 4u);
  EXPECT_TRUE(S.test(1000));
  EXPECT_FALSE(S.test(999));
}

TEST(BitSet, UnionSubtractIntersect) {
  BitSet A, B;
  A.insert(1);
  A.insert(100);
  B.insert(100);
  B.insert(200);

  BitSet U = A;
  EXPECT_TRUE(U.unionWith(B));
  EXPECT_FALSE(U.unionWith(B)); // Idempotent.
  EXPECT_EQ(U.toVector(), (std::vector<unsigned>{1, 100, 200}));

  BitSet D = A;
  D.subtract(B);
  EXPECT_EQ(D.toVector(), (std::vector<unsigned>{1}));

  BitSet I = A;
  I.intersectWith(B);
  EXPECT_EQ(I.toVector(), (std::vector<unsigned>{100}));

  EXPECT_TRUE(A.intersects(B));
  BitSet C;
  C.insert(7);
  EXPECT_FALSE(A.intersects(C));
}

TEST(BitSet, EqualityIgnoresTrailingZeros) {
  BitSet A, B;
  A.insert(3);
  B.reserveIds(1000);
  B.insert(3);
  EXPECT_TRUE(A == B);
  B.insert(999);
  EXPECT_TRUE(A != B);
  B.erase(999);
  EXPECT_TRUE(A == B);
}

TEST(BitSet, ForEachAscending) {
  BitSet S;
  for (unsigned Id : {70u, 3u, 64u, 0u})
    S.insert(Id);
  std::vector<unsigned> Seen;
  S.forEach([&Seen](unsigned Id) { Seen.push_back(Id); });
  EXPECT_EQ(Seen, (std::vector<unsigned>{0, 3, 64, 70}));
}

TEST(BitSet, CountPopcountsAcrossWords) {
  BitSet S;
  EXPECT_EQ(S.count(), 0u);
  for (unsigned Id : {0u, 1u, 63u, 64u, 127u, 128u, 700u})
    S.insert(Id);
  EXPECT_EQ(S.count(), 7u);
  S.erase(64);
  EXPECT_EQ(S.count(), 6u);
}

TEST(BitSet, EmptyAndClear) {
  BitSet S;
  EXPECT_TRUE(S.empty());
  S.insert(42);
  EXPECT_FALSE(S.empty());
  S.clear();
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(S.count(), 0u);
}

//===----------------------------------------------------------------------===//
// SparseBitSet
//===----------------------------------------------------------------------===//

namespace {

/// Words a canonical sparse set must store: one per distinct id / 64.
std::size_t distinctWords(const std::vector<unsigned> &Ids) {
  std::size_t N = 0;
  for (std::size_t I = 0; I != Ids.size(); ++I)
    N += I == 0 || Ids[I] / 64 != Ids[I - 1] / 64;
  return N;
}

/// Checks \p S against the dense oracle \p D: same elements, strictly
/// ascending iteration, same count/emptiness, and canonical storage
/// (exactly one stored word per occupied word index, none zero).
void expectSameSet(const SparseBitSet &S, const BitSet &D,
                   const std::string &Where) {
  std::vector<unsigned> Ids;
  S.forEach([&](unsigned Id) {
    EXPECT_TRUE(Ids.empty() || Ids.back() < Id) << Where << ": not ascending";
    Ids.push_back(Id);
  });
  ASSERT_EQ(Ids, D.toVector()) << Where;
  EXPECT_EQ(S.toVector(), Ids) << Where;
  EXPECT_EQ(S.count(), D.count()) << Where;
  EXPECT_EQ(S.empty(), D.empty()) << Where;
  EXPECT_EQ(S.numWords(), distinctWords(Ids)) << Where << ": not canonical";
}

/// Ids that straddle word boundaries and one far word near 2^20, plus
/// random fill, so sets are both sparse and locally dense.
unsigned drawId(std::mt19937_64 &R) {
  static const unsigned Edges[] = {0,         63,        64,       127,
                                   128,       1u << 20,  (1u << 20) + 63,
                                   (1u << 20) + 64};
  switch (R() % 4) {
  case 0:
    return Edges[R() % (sizeof(Edges) / sizeof(Edges[0]))];
  case 1:
    return static_cast<unsigned>(R() % 256);
  case 2:
    return static_cast<unsigned>((1u << 20) - 200 + R() % 400);
  default:
    return static_cast<unsigned>(R() % 5000);
  }
}

} // namespace

TEST(SparseBitSet, RandomOpsMatchDenseBitSet) {
  constexpr unsigned NumSets = 4, OpsPerSeed = 12000;
  for (uint64_t Seed : {1u, 2u, 3u}) {
    std::mt19937_64 R(Seed);
    std::vector<SparseBitSet> S(NumSets);
    std::vector<BitSet> D(NumSets);
    for (unsigned Op = 0; Op != OpsPerSeed; ++Op) {
      const unsigned A = R() % NumSets, B = R() % NumSets;
      const std::string Where = "seed " + std::to_string(Seed) + " op " +
                                std::to_string(Op);
      switch (R() % 12) {
      case 0:
      case 1:
      case 2: { // Inserts dominate so the sets grow.
        unsigned Id = drawId(R);
        ASSERT_EQ(S[A].insert(Id), D[A].insert(Id)) << Where;
        break;
      }
      case 3: {
        unsigned Id = drawId(R);
        S[A].erase(Id);
        D[A].erase(Id);
        break;
      }
      case 4: {
        unsigned Id = drawId(R);
        ASSERT_EQ(S[A].test(Id), D[A].test(Id)) << Where;
        break;
      }
      case 5: // Includes self-union (A == B): a no-op.
        ASSERT_EQ(S[A].unionWith(S[B]), D[A].unionWith(D[B])) << Where;
        break;
      case 6: {
        // Exactly the fresh ids reach NewBits, on top of what it held.
        if (A == B)
          break;
        const unsigned N = (A + 1 + R() % (NumSets - 1)) % NumSets;
        if (N == B)
          break;
        BitSet Fresh = D[B];
        Fresh.subtract(D[A]);
        const bool Changed = S[A].unionWithReturningChanged(S[B], S[N]);
        ASSERT_EQ(Changed, !Fresh.empty()) << Where;
        D[A].unionWith(D[B]);
        D[N].unionWith(Fresh);
        expectSameSet(S[N], D[N], Where + " (NewBits)");
        break;
      }
      case 7:
        S[A].subtract(S[B]);
        D[A].subtract(D[B]);
        break;
      case 8:
        S[A].intersectWith(S[B]);
        D[A].intersectWith(D[B]);
        break;
      case 9:
        ASSERT_EQ(S[A].intersects(S[B]), D[A].intersects(D[B])) << Where;
        break;
      case 10:
        ASSERT_EQ(S[A] == S[B], D[A] == D[B]) << Where;
        ASSERT_EQ(S[A] != S[B], D[A] != D[B]) << Where;
        break;
      default:
        if (R() % 8 == 0) { // Rare, so sets get large between clears.
          S[A].clear();
          D[A].clear();
        }
        break;
      }
      // The dense oracle scans ~16k words per check, so compare whole
      // sets every few operations (and always at the end).
      if (Op % 64 == 0 || Op + 1 == OpsPerSeed)
        for (unsigned I = 0; I != NumSets; ++I)
          expectSameSet(S[I], D[I], Where);
      if (HasFatalFailure())
        return;
    }
  }
}

TEST(SparseBitSet, EraseToEmptyIsCanonical) {
  SparseBitSet A, Empty;
  for (unsigned Id : {0u, 63u, 64u, 127u, 1u << 20})
    A.insert(Id);
  EXPECT_EQ(A.numWords(), 3u);
  for (unsigned Id : {64u, 0u, 1u << 20, 127u, 63u})
    A.erase(Id);
  EXPECT_TRUE(A.empty());
  EXPECT_EQ(A.numWords(), 0u); // No zero words left behind.
  EXPECT_TRUE(A == Empty);

  // Subtract and intersect drop the words they zero, too.
  SparseBitSet B, C;
  B.insert(5);
  B.insert(700);
  C.insert(700);
  B.subtract(C);
  EXPECT_EQ(B.numWords(), 1u);
  B.intersectWith(C);
  EXPECT_EQ(B.numWords(), 0u);
  EXPECT_TRUE(B == Empty);
}

TEST(SparseBitSet, UnionWithReturningChanged) {
  SparseBitSet A, B, Delta;
  A.insert(1);
  A.insert(100);
  B.insert(100);
  B.insert(200);
  B.insert(65);

  // Only the genuinely new bits land in Delta.
  EXPECT_TRUE(A.unionWithReturningChanged(B, Delta));
  EXPECT_EQ(A.toVector(), (std::vector<unsigned>{1, 65, 100, 200}));
  EXPECT_EQ(Delta.toVector(), (std::vector<unsigned>{65, 200}));

  // Idempotent: a second union adds nothing and leaves Delta alone.
  EXPECT_FALSE(A.unionWithReturningChanged(B, Delta));
  EXPECT_EQ(Delta.toVector(), (std::vector<unsigned>{65, 200}));

  // New bits accumulate into an already-populated Delta.
  SparseBitSet C;
  C.insert(3);
  EXPECT_TRUE(A.unionWithReturningChanged(C, Delta));
  EXPECT_EQ(Delta.toVector(), (std::vector<unsigned>{3, 65, 200}));
}

TEST(SparseBitSet, SelfUnionIsANoOp) {
  SparseBitSet A, Delta;
  A.insert(7);
  A.insert(1u << 20);
  const SparseBitSet Before = A;
  EXPECT_FALSE(A.unionWith(A));
  EXPECT_FALSE(A.unionWithReturningChanged(A, Delta));
  EXPECT_TRUE(A == Before);
  EXPECT_TRUE(Delta.empty());
}

// A one-object delta merged into a large set is located by a search,
// not a walk of the large set: the words touched stay logarithmic.
TEST(SparseBitSet, SmallIntoLargeUnionSearchesInsteadOfWalking) {
  SparseBitSet Large;
  for (unsigned W = 0; W != 4096; ++W)
    Large.insert(W * 64 * 3); // 4096 stored words, every third index.
  ASSERT_EQ(Large.numWords(), 4096u);
  SparseBitSet Full = Large;

  for (unsigned Id : {0u * 64 + 1, 3u * 64 * 2048 + 5, 3u * 64 * 4095 + 9,
                      64u * 1000, 3u * 64 * 5000}) {
    SparseBitSet One, Delta;
    One.insert(Id);
    const uint64_t Before = SparseBitSet::wordsTouched();
    EXPECT_TRUE(Large.unionWithReturningChanged(One, Delta)) << Id;
    const uint64_t Touched = SparseBitSet::wordsTouched() - Before;
    // A stored word is found in O(log n) probes; an absent word also
    // pays the move of the words after it.
    const unsigned Word = Id / 64;
    if (Word % 3 == 0 && Word <= 3 * 4095) {
      EXPECT_LE(Touched, 64u) << Id;
    }
    EXPECT_TRUE(Large.test(Id)) << Id;
    EXPECT_EQ(Delta.toVector(), (std::vector<unsigned>{Id})) << Id;
    Full.insert(Id);
    EXPECT_TRUE(Large == Full) << Id;
  }
}

TEST(SparseBitSet, WordsTouchedCountsWork) {
  SparseBitSet A;
  const uint64_t Before = SparseBitSet::wordsTouched();
  A.insert(3);
  A.insert(1u << 20);
  (void)A.count();
  EXPECT_GT(SparseBitSet::wordsTouched(), Before);
}

//===----------------------------------------------------------------------===//
// Worklist
//===----------------------------------------------------------------------===//

TEST(Worklist, FifoWithDedup) {
  Worklist WL;
  EXPECT_TRUE(WL.push(1));
  EXPECT_TRUE(WL.push(2));
  EXPECT_FALSE(WL.push(1)); // Already pending.
  EXPECT_EQ(WL.size(), 2u);
  EXPECT_EQ(WL.pop(), 1u);
  EXPECT_TRUE(WL.push(1)); // Re-push after pop is allowed.
  EXPECT_EQ(WL.pop(), 2u);
  EXPECT_EQ(WL.pop(), 1u);
  EXPECT_TRUE(WL.empty());
}

TEST(PriorityWorklist, PopsSmallestPriorityFirst) {
  PriorityWorklist WL;
  WL.setPriority(1, 30);
  WL.setPriority(2, 10);
  WL.setPriority(3, 20);
  EXPECT_TRUE(WL.push(1));
  EXPECT_TRUE(WL.push(2));
  EXPECT_TRUE(WL.push(3));
  EXPECT_FALSE(WL.push(2)); // Already pending.
  EXPECT_EQ(WL.size(), 3u);
  EXPECT_EQ(WL.pop(), 2u);
  EXPECT_EQ(WL.pop(), 3u);
  EXPECT_EQ(WL.pop(), 1u);
  EXPECT_TRUE(WL.empty());
}

TEST(PriorityWorklist, DefaultPriorityIsZero) {
  PriorityWorklist WL;
  WL.setPriority(7, 100);
  WL.push(7);
  WL.push(9); // Never prioritized: comes out first.
  EXPECT_EQ(WL.pop(), 9u);
  EXPECT_EQ(WL.pop(), 7u);
}

TEST(PriorityWorklist, ReprioritizingPendingIdReorders) {
  PriorityWorklist WL;
  WL.setPriority(1, 10);
  WL.setPriority(2, 20);
  WL.push(1);
  WL.push(2);
  WL.setPriority(1, 30); // Demote while pending.
  EXPECT_EQ(WL.pop(), 2u);
  EXPECT_EQ(WL.pop(), 1u);
  EXPECT_TRUE(WL.empty());

  // Promote while pending; the stale higher-priority entry must not
  // produce a duplicate pop.
  WL.push(1);
  WL.push(2);
  WL.setPriority(2, 5);
  EXPECT_EQ(WL.pop(), 2u);
  EXPECT_EQ(WL.pop(), 1u);
  EXPECT_TRUE(WL.empty());
}

TEST(PriorityWorklist, RePushAfterPopAllowed) {
  PriorityWorklist WL;
  WL.push(4);
  EXPECT_EQ(WL.pop(), 4u);
  EXPECT_TRUE(WL.push(4));
  EXPECT_EQ(WL.pop(), 4u);
  EXPECT_TRUE(WL.empty());
}

//===----------------------------------------------------------------------===//
// StringTable
//===----------------------------------------------------------------------===//

TEST(StringTable, InternIsStable) {
  StringTable T;
  Symbol A = T.intern("alpha");
  Symbol B = T.intern("beta");
  EXPECT_NE(A, B);
  EXPECT_EQ(T.intern("alpha"), A);
  EXPECT_EQ(T.str(A), "alpha");
  EXPECT_EQ(T.str(B), "beta");
}

TEST(StringTable, LookupWithoutIntern) {
  StringTable T;
  EXPECT_EQ(T.lookup("missing"), 0u);
  Symbol A = T.intern("present");
  EXPECT_EQ(T.lookup("present"), A);
}

TEST(StringTable, ManyStringsNoDangling) {
  // Regression: interned keys must survive storage growth.
  StringTable T;
  std::vector<Symbol> Syms;
  for (int I = 0; I != 1000; ++I)
    Syms.push_back(T.intern("sym" + std::to_string(I)));
  for (int I = 0; I != 1000; ++I) {
    EXPECT_EQ(T.str(Syms[I]), "sym" + std::to_string(I));
    EXPECT_EQ(T.lookup("sym" + std::to_string(I)), Syms[I]);
  }
}

TEST(StringTable, EmptyStringIsSymbolZero) {
  StringTable T;
  EXPECT_EQ(T.intern(""), 0u);
  EXPECT_EQ(T.str(0), "");
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

TEST(Diagnostics, CountsAndRendering) {
  DiagnosticEngine D;
  EXPECT_FALSE(D.hasErrors());
  D.warning(SourceLoc(1, 2), "suspicious thing");
  EXPECT_FALSE(D.hasErrors());
  D.error(SourceLoc(3, 4), "broken thing");
  D.note(SourceLoc(3, 5), "because of this");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.errorCount(), 1u);
  std::string Text = D.str();
  EXPECT_NE(Text.find("1:2: warning: suspicious thing"), std::string::npos);
  EXPECT_NE(Text.find("3:4: error: broken thing"), std::string::npos);
  EXPECT_NE(Text.find("3:5: note: because of this"), std::string::npos);
}

TEST(Diagnostics, InvalidLocRendersUnknown) {
  DiagnosticEngine D;
  D.error(SourceLoc(), "global problem");
  EXPECT_NE(D.str().find("<unknown>"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Casting
//===----------------------------------------------------------------------===//

namespace {

struct BaseThing {
  enum class Kind { Square, Circle } K;
  explicit BaseThing(Kind K) : K(K) {}
};

struct Square : BaseThing {
  Square() : BaseThing(Kind::Square) {}
  static bool classof(const BaseThing *B) {
    return B->K == BaseThing::Kind::Square;
  }
};

struct Circle : BaseThing {
  Circle() : BaseThing(Kind::Circle) {}
  static bool classof(const BaseThing *B) {
    return B->K == BaseThing::Kind::Circle;
  }
};

} // namespace

TEST(Casting, IsaAndDynCast) {
  Square Sq;
  BaseThing *B = &Sq;
  EXPECT_TRUE(isa<Square>(B));
  EXPECT_FALSE(isa<Circle>(B));
  EXPECT_EQ(dyn_cast<Square>(B), &Sq);
  EXPECT_EQ(dyn_cast<Circle>(B), nullptr);
  EXPECT_EQ(cast<Square>(B), &Sq);
  EXPECT_EQ(dyn_cast_or_null<Square>(static_cast<BaseThing *>(nullptr)),
            nullptr);
}

//===----------------------------------------------------------------------===//
// AnalysisBudget / BudgetGate / FaultInjector
//===----------------------------------------------------------------------===//

TEST(Budget, NullBudgetGateNeverTrips) {
  FaultInjector::instance().reset();
  BudgetGate Gate(nullptr, "slice.pop", 0);
  for (unsigned I = 0; I != 10'000; ++I)
    EXPECT_FALSE(Gate.spend());
  EXPECT_FALSE(Gate.exhausted());
  EXPECT_EQ(Gate.used(), 10'000u);
}

TEST(Budget, StepCapTripsAndIsSticky) {
  FaultInjector::instance().reset();
  AnalysisBudget B;
  BudgetGate Gate(&B, "slice.pop", 10);
  for (unsigned I = 0; I != 10; ++I)
    EXPECT_FALSE(Gate.spend()) << "step " << I;
  EXPECT_TRUE(Gate.spend()); // 11 > 10.
  EXPECT_TRUE(Gate.exhausted());
  EXPECT_EQ(Gate.reason(), "step-cap");
  EXPECT_TRUE(Gate.spend()); // Sticky.
  EXPECT_TRUE(Gate.poll(0)); // Even when the counter would be fine.
}

TEST(Budget, DeadlineExpiresOnlyAfterStart) {
  FaultInjector::instance().reset();
  AnalysisBudget B;
  B.BudgetMs = 1;
  // Not started: the deadline never fires.
  BudgetGate Unstarted(&B, "slice.pop", 0);
  for (unsigned I = 0; I != 500; ++I)
    EXPECT_FALSE(Unstarted.spend());

  B.start();
  auto Busy = std::chrono::steady_clock::now() +
              std::chrono::milliseconds(5);
  while (std::chrono::steady_clock::now() < Busy)
    ;
  BudgetGate Gate(&B, "slice.pop", 0);
  bool Tripped = false;
  // The clock is read every 64 polls; a few hundred polls guarantee a
  // check after the deadline has passed.
  for (unsigned I = 0; I != 500 && !Tripped; ++I)
    Tripped = Gate.spend();
  EXPECT_TRUE(Tripped);
  EXPECT_EQ(Gate.reason(), "deadline");
  EXPECT_TRUE(B.deadlineExpired());
  EXPECT_GT(B.elapsedSeconds(), 0.0);
}

TEST(Budget, FaultFiresAtChosenPoll) {
  FaultInjector &FI = FaultInjector::instance();
  FI.reset();
  FI.arm("slice.pop", 3);
  BudgetGate Gate(nullptr, "slice.pop", 0);
  EXPECT_TRUE(FI.reached().count("slice.pop"));
  EXPECT_FALSE(Gate.spend());
  EXPECT_FALSE(Gate.spend());
  EXPECT_TRUE(Gate.spend()); // Third poll.
  EXPECT_EQ(Gate.reason(), "fault:slice.pop");
  EXPECT_TRUE(FI.fired().count("slice.pop"));
  // Unarmed points are unaffected.
  BudgetGate Other(nullptr, "pta.solve", 0);
  EXPECT_FALSE(Other.spend());
  FI.reset();
  EXPECT_FALSE(FI.anyArmed());
}

TEST(Budget, FaultSpecParsing) {
  FaultInjector &FI = FaultInjector::instance();
  FI.reset();
  EXPECT_TRUE(FI.armFromSpec("slice.pop,pta.solve:100"));
  EXPECT_TRUE(FI.anyArmed());
  EXPECT_FALSE(FI.armFromSpec("no.such.point"));
  FI.reset();
  EXPECT_TRUE(FI.armFromSpec("all"));
  for (const std::string &P : FaultInjector::knownPoints()) {
    BudgetGate Gate(nullptr, P.c_str(), 0);
    EXPECT_TRUE(Gate.spend()) << P;
  }
  FI.reset();
}

TEST(Budget, PipelineStatusAggregates) {
  PipelineStatus S;
  S.add({"pta", StageStatus::Complete, "", "", 42, 0.1});
  EXPECT_TRUE(S.complete());
  S.add({"sdg", StageStatus::Degraded, "step-cap", "coarse heap hubs", 7,
         0.2});
  EXPECT_FALSE(S.complete());
  ASSERT_NE(S.find("sdg"), nullptr);
  EXPECT_TRUE(S.find("sdg")->degraded());
  EXPECT_EQ(S.find("nope"), nullptr);
  std::string Str = S.str();
  EXPECT_NE(Str.find("pipeline: degraded"), std::string::npos) << Str;
  EXPECT_NE(Str.find("step-cap"), std::string::npos) << Str;
  EXPECT_NE(Str.find("coarse heap hubs"), std::string::npos) << Str;
}

//===----------------------------------------------------------------------===//
// ParseInt
//===----------------------------------------------------------------------===//

TEST(ParseInt, PositiveAcceptsPlainDecimals) {
  uint64_t Out = 0;
  EXPECT_TRUE(parsePositiveInt("1", Out));
  EXPECT_EQ(Out, 1u);
  EXPECT_TRUE(parsePositiveInt("42", Out));
  EXPECT_EQ(Out, 42u);
  EXPECT_TRUE(parsePositiveInt(std::string("007"), Out));
  EXPECT_EQ(Out, 7u);
  EXPECT_TRUE(parsePositiveInt("18446744073709551615", Out));
  EXPECT_EQ(Out, UINT64_MAX);
}

TEST(ParseInt, PositiveRejectsEverythingElse) {
  uint64_t Out = 99;
  for (const char *Bad :
       {"", "0", "-1", "+1", " 1", "1 ", "1x", "x1", "abc", "1.5", "0x10",
        "18446744073709551616", "99999999999999999999999"})
    EXPECT_FALSE(parsePositiveInt(Bad, Out)) << "'" << Bad << "'";
  EXPECT_FALSE(parsePositiveInt(static_cast<const char *>(nullptr), Out));
  // Out is untouched on failure.
  EXPECT_EQ(Out, 99u);
}

TEST(ParseInt, NonZeroAcceptsSignedDecimals) {
  int64_t Out = 0;
  EXPECT_TRUE(parseNonZeroInt("5", Out));
  EXPECT_EQ(Out, 5);
  EXPECT_TRUE(parseNonZeroInt("-5", Out));
  EXPECT_EQ(Out, -5);
  EXPECT_TRUE(parseNonZeroInt(std::string("9223372036854775807"), Out));
  EXPECT_EQ(Out, INT64_MAX);
  EXPECT_TRUE(parseNonZeroInt("-9223372036854775808", Out));
  EXPECT_EQ(Out, INT64_MIN);
}

TEST(ParseInt, NonZeroRejectsZeroJunkAndOverflow) {
  int64_t Out = 7;
  for (const char *Bad :
       {"", "0", "-0", "+5", "-", "--5", "5-", " 5", "5 ", "1e3",
        "9223372036854775808", "-9223372036854775809"})
    EXPECT_FALSE(parseNonZeroInt(Bad, Out)) << "'" << Bad << "'";
  EXPECT_FALSE(parseNonZeroInt(static_cast<const char *>(nullptr), Out));
  EXPECT_EQ(Out, 7);
}
