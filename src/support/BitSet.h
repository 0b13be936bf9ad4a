//===-- BitSet.h - Dense dynamic bit set ------------------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense, growable bit set keyed by small unsigned ids. Slice
/// membership, reachability marks, batch-engine lanes, SSA liveness
/// and worklist dedup are sets over densely used domains (SDG nodes,
/// locals, blocks), so a word-packed representation with fast union
/// is the right container there. Sets of abstract objects and heap
/// partitions are sparse in a wide domain and use SparseBitSet.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SUPPORT_BITSET_H
#define THINSLICER_SUPPORT_BITSET_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace tsl {

/// Dense bit set over unsigned ids with automatic growth.
class BitSet {
public:
  BitSet() = default;
  explicit BitSet(unsigned UniverseSize) { reserveIds(UniverseSize); }

  /// Ensures ids in [0, UniverseSize) can be stored without growth.
  void reserveIds(unsigned UniverseSize) {
    if (wordsFor(UniverseSize) > Words.size())
      Words.resize(wordsFor(UniverseSize), 0);
  }

  bool test(unsigned Id) const {
    unsigned Word = Id / 64;
    if (Word >= Words.size())
      return false;
    return (Words[Word] >> (Id % 64)) & 1;
  }

  /// Sets \p Id; returns true if it was newly inserted.
  bool insert(unsigned Id) {
    unsigned Word = Id / 64;
    if (Word >= Words.size())
      Words.resize(Word + 1, 0);
    uint64_t Mask = uint64_t(1) << (Id % 64);
    bool WasSet = Words[Word] & Mask;
    Words[Word] |= Mask;
    return !WasSet;
  }

  void erase(unsigned Id) {
    unsigned Word = Id / 64;
    if (Word < Words.size())
      Words[Word] &= ~(uint64_t(1) << (Id % 64));
  }

  /// Adds every element of \p RHS; returns true if this set changed.
  bool unionWith(const BitSet &RHS) {
    if (RHS.Words.size() > Words.size())
      Words.resize(RHS.Words.size(), 0);
    bool Changed = false;
    for (std::size_t I = 0, E = RHS.Words.size(); I != E; ++I) {
      uint64_t Old = Words[I];
      Words[I] |= RHS.Words[I];
      Changed |= Words[I] != Old;
    }
    return Changed;
  }

  /// Removes every element of \p RHS.
  void subtract(const BitSet &RHS) {
    std::size_t N = std::min(Words.size(), RHS.Words.size());
    for (std::size_t I = 0; I != N; ++I)
      Words[I] &= ~RHS.Words[I];
  }

  /// Keeps only elements also in \p RHS.
  void intersectWith(const BitSet &RHS) {
    std::size_t N = std::min(Words.size(), RHS.Words.size());
    for (std::size_t I = 0; I != N; ++I)
      Words[I] &= RHS.Words[I];
    for (std::size_t I = N, E = Words.size(); I != E; ++I)
      Words[I] = 0;
  }

  /// Returns true if this set and \p RHS share any element.
  bool intersects(const BitSet &RHS) const {
    std::size_t N = std::min(Words.size(), RHS.Words.size());
    for (std::size_t I = 0; I != N; ++I)
      if (Words[I] & RHS.Words[I])
        return true;
    return false;
  }

  bool empty() const {
    for (uint64_t W : Words)
      if (W)
        return false;
    return true;
  }

  unsigned count() const {
    unsigned N = 0;
    for (uint64_t W : Words)
      N += __builtin_popcountll(W);
    return N;
  }

  void clear() { Words.assign(Words.size(), 0); }

  bool operator==(const BitSet &RHS) const {
    std::size_t N = std::max(Words.size(), RHS.Words.size());
    for (std::size_t I = 0; I != N; ++I) {
      uint64_t L = I < Words.size() ? Words[I] : 0;
      uint64_t R = I < RHS.Words.size() ? RHS.Words[I] : 0;
      if (L != R)
        return false;
    }
    return true;
  }
  bool operator!=(const BitSet &RHS) const { return !(*this == RHS); }

  /// Calls \p Fn(Id) for every set bit in ascending id order.
  template <typename CallableT> void forEach(CallableT Fn) const {
    for (std::size_t I = 0, E = Words.size(); I != E; ++I) {
      uint64_t W = Words[I];
      while (W) {
        unsigned Bit = __builtin_ctzll(W);
        Fn(static_cast<unsigned>(I * 64 + Bit));
        W &= W - 1;
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

private:
  static std::size_t wordsFor(unsigned UniverseSize) {
    return (std::size_t(UniverseSize) + 63) / 64;
  }

  std::vector<uint64_t> Words;
};

} // namespace tsl

#endif // THINSLICER_SUPPORT_BITSET_H
