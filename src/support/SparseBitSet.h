//===-- SparseBitSet.h - Sparse ordered id set ------------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A set of unsigned ids that stores only its non-zero 64-bit words,
/// sorted by word index. Points-to sets are sparse in a wide domain:
/// a padded program has tens of thousands of abstract objects, yet
/// the average pointer points to about one of them. A dense BitSet
/// sized to the largest id it holds makes every union, count and scan
/// pay the program's width; this set pays only for the words it
/// holds, the representation Hardekopf and Lin's solver uses for the
/// same reason.
///
/// The interface mirrors BitSet's and iteration is in ascending id
/// order, so swapping one for the other changes no visit order. The
/// form is canonical: no zero word is ever stored, so equal sets
/// compare equal word for word.
///
/// Merging a small set into a large one gallops: each source word is
/// located by an exponential then binary search from the previous
/// word's position, so a one-object delta costs O(log n) probes, and
/// a merge of similar-sized sets degrades gracefully to a linear walk.
///
/// Every operation adds the number of words it reads or writes to a
/// per-thread counter, wordsTouched(). The points-to solver reports
/// the difference across a solve as SolverStats::SetWordsTouched, a
/// deterministic measure of set-representation work.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SUPPORT_SPARSEBITSET_H
#define THINSLICER_SUPPORT_SPARSEBITSET_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace tsl {

/// Sparse set of unsigned ids: sorted non-zero (word index, bits) pairs.
class SparseBitSet {
public:
  bool test(unsigned Id) const {
    std::size_t Pos = gallop(Id / 64, 0);
    return Pos != Words.size() && Words[Pos].Index == Id / 64 &&
           ((Words[Pos].Bits >> (Id % 64)) & 1);
  }

  /// Sets \p Id; returns true if it was newly inserted. Ascending
  /// inserts land in the last word or append, without a search.
  bool insert(unsigned Id) {
    uint32_t Index = Id / 64;
    uint64_t Mask = uint64_t(1) << (Id % 64);
    std::size_t Pos = tailPos(Index);
    touch(1);
    if (Pos != Words.size() && Words[Pos].Index == Index) {
      bool WasSet = Words[Pos].Bits & Mask;
      Words[Pos].Bits |= Mask;
      return !WasSet;
    }
    touch(Words.size() - Pos);
    Words.insert(Words.begin() + Pos, Word{Index, Mask});
    return true;
  }

  void erase(unsigned Id) {
    std::size_t Pos = gallop(Id / 64, 0);
    if (Pos == Words.size() || Words[Pos].Index != Id / 64)
      return;
    Words[Pos].Bits &= ~(uint64_t(1) << (Id % 64));
    touch(1);
    if (!Words[Pos].Bits) {
      touch(Words.size() - Pos);
      Words.erase(Words.begin() + Pos);
    }
  }

  /// Adds every element of \p RHS; returns true if this set changed.
  bool unionWith(const SparseBitSet &RHS) { return merge(RHS, nullptr); }

  /// Union that also records which bits were newly set: every id added
  /// to this set is inserted into \p NewBits as well. Returns true if
  /// this set changed. This is the difference-propagation workhorse:
  /// the points-to solver accumulates the newly arrived objects of a
  /// node into its delta set without a per-bit loop.
  bool unionWithReturningChanged(const SparseBitSet &RHS,
                                 SparseBitSet &NewBits) {
    assert(&NewBits != this && &NewBits != &RHS && "aliased delta set");
    return merge(RHS, &NewBits);
  }

  /// Removes every element of \p RHS.
  void subtract(const SparseBitSet &RHS) {
    filter(RHS, [](uint64_t L, uint64_t R) { return L & ~R; });
  }

  /// Keeps only elements also in \p RHS.
  void intersectWith(const SparseBitSet &RHS) {
    filter(RHS, [](uint64_t L, uint64_t R) { return L & R; });
  }

  /// Returns true if this set and \p RHS share any element.
  bool intersects(const SparseBitSet &RHS) const {
    const SparseBitSet &Small = Words.size() <= RHS.Words.size() ? *this : RHS;
    const SparseBitSet &Large = &Small == this ? RHS : *this;
    std::size_t Pos = 0;
    for (const Word &W : Small.Words) {
      touch(1);
      Pos = Large.gallop(W.Index, Pos);
      if (Pos == Large.Words.size())
        return false;
      if (Large.Words[Pos].Index == W.Index && (Large.Words[Pos].Bits & W.Bits))
        return true;
    }
    return false;
  }

  bool empty() const { return Words.empty(); }

  unsigned count() const {
    touch(Words.size());
    unsigned N = 0;
    for (const Word &W : Words)
      N += __builtin_popcountll(W.Bits);
    return N;
  }

  /// Removes every element; keeps the storage for reuse.
  void clear() { Words.clear(); }

  /// Number of stored (non-zero) words.
  std::size_t numWords() const { return Words.size(); }

  bool operator==(const SparseBitSet &RHS) const {
    if (Words.size() != RHS.Words.size())
      return false;
    touch(Words.size());
    for (std::size_t I = 0, E = Words.size(); I != E; ++I)
      if (Words[I].Index != RHS.Words[I].Index ||
          Words[I].Bits != RHS.Words[I].Bits)
        return false;
    return true;
  }
  bool operator!=(const SparseBitSet &RHS) const { return !(*this == RHS); }

  /// Calls \p Fn(Id) for every element in ascending id order.
  template <typename CallableT> void forEach(CallableT Fn) const {
    touch(Words.size());
    for (const Word &W : Words) {
      uint64_t Bits = W.Bits;
      while (Bits) {
        Fn(static_cast<unsigned>(W.Index * 64 + __builtin_ctzll(Bits)));
        Bits &= Bits - 1;
      }
    }
  }

  /// Materializes the set as a sorted id vector (testing convenience).
  std::vector<unsigned> toVector() const {
    std::vector<unsigned> Out;
    Out.reserve(count());
    forEach([&Out](unsigned Id) { Out.push_back(Id); });
    return Out;
  }

  /// Words read or written by set operations on this thread so far.
  static uint64_t wordsTouched() { return WordsTouched; }

private:
  struct Word {
    uint32_t Index; ///< Id / 64.
    uint64_t Bits;  ///< Never zero.
  };

  static void touch(std::size_t N) { WordsTouched += N; }

  /// Position of the first word with index >= \p Index, searching
  /// from \p From (every word before it must have a smaller index):
  /// an exponential probe, then a binary search of the last step.
  std::size_t gallop(uint32_t Index, std::size_t From) const {
    std::size_t N = Words.size(), Lo = From, Hi = From, Step = 1;
    while (Hi < N && Words[Hi].Index < Index) {
      touch(1);
      Lo = Hi + 1;
      Hi += Step;
      Step *= 2;
    }
    Hi = std::min(Hi, N);
    touch(Hi > Lo ? 64 - __builtin_clzll(Hi - Lo) : 1);
    return std::lower_bound(Words.begin() + Lo, Words.begin() + Hi, Index,
                            [](const Word &W, uint32_t I) {
                              return W.Index < I;
                            }) -
           Words.begin();
  }

  /// Position of word \p Index as gallop(Index, 0) finds it, with the
  /// last word and the end tried first.
  std::size_t tailPos(uint32_t Index) const {
    if (Words.empty() || Words.back().Index < Index)
      return Words.size();
    if (Words.back().Index == Index)
      return Words.size() - 1;
    return gallop(Index, 0);
  }

  /// ORs \p Bits into word \p Index, inserting the word if absent.
  void orWord(uint32_t Index, uint64_t Bits) {
    std::size_t Pos = tailPos(Index);
    touch(1);
    if (Pos != Words.size() && Words[Pos].Index == Index) {
      Words[Pos].Bits |= Bits;
      return;
    }
    touch(Words.size() - Pos);
    Words.insert(Words.begin() + Pos, Word{Index, Bits});
  }

  /// unionWith / unionWithReturningChanged. One ascending pass ORs
  /// \p RHS into the words both sets hold (galloping, so a small RHS
  /// costs O(|RHS| log |this|)) and counts the words only RHS holds;
  /// a backward merge then slots those in, moving only the words
  /// after the first insertion point.
  bool merge(const SparseBitSet &RHS, SparseBitSet *NewBits) {
    if (&RHS == this || RHS.Words.empty())
      return false;
    bool Changed = false;
    std::size_t Missing = 0, Pos = 0;
    for (const Word &R : RHS.Words) {
      touch(1);
      Pos = gallop(R.Index, Pos);
      if (Pos != Words.size() && Words[Pos].Index == R.Index) {
        uint64_t Fresh = R.Bits & ~Words[Pos].Bits;
        if (!Fresh)
          continue;
        Words[Pos].Bits |= Fresh;
        if (NewBits)
          NewBits->orWord(R.Index, Fresh);
      } else {
        ++Missing;
        if (NewBits)
          NewBits->orWord(R.Index, R.Bits);
      }
      Changed = true;
    }
    if (!Missing)
      return Changed;

    // Backward merge: I walks the old words, J the RHS words, K the
    // slots of the grown vector. K - I is the number of RHS-only words
    // still to place; once it reaches zero the rest are in place.
    std::ptrdiff_t I = static_cast<std::ptrdiff_t>(Words.size()) - 1;
    std::ptrdiff_t J = static_cast<std::ptrdiff_t>(RHS.Words.size()) - 1;
    Words.resize(Words.size() + Missing);
    std::ptrdiff_t K = static_cast<std::ptrdiff_t>(Words.size()) - 1;
    while (K > I) {
      touch(1);
      if (I >= 0 && Words[I].Index >= RHS.Words[J].Index) {
        if (Words[I].Index == RHS.Words[J].Index)
          --J; // Held by both: already ORed above.
        Words[K--] = Words[I--];
      } else {
        Words[K--] = RHS.Words[J--];
      }
    }
    return true;
  }

  /// Replaces each word with Op(word, RHS word) (RHS word 0 when
  /// absent) and drops the words that become zero.
  template <typename OpT> void filter(const SparseBitSet &RHS, OpT Op) {
    std::size_t Out = 0, Pos = 0;
    for (std::size_t I = 0, E = Words.size(); I != E; ++I) {
      touch(1);
      Pos = RHS.gallop(Words[I].Index, Pos);
      uint64_t R = Pos != RHS.Words.size() &&
                           RHS.Words[Pos].Index == Words[I].Index
                       ? RHS.Words[Pos].Bits
                       : 0;
      if (uint64_t Bits = Op(Words[I].Bits, R))
        Words[Out++] = Word{Words[I].Index, Bits};
    }
    Words.resize(Out);
  }

  std::vector<Word> Words;
  static inline thread_local uint64_t WordsTouched = 0;
};

} // namespace tsl

#endif // THINSLICER_SUPPORT_SPARSEBITSET_H
