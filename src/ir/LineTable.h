//===-- LineTable.h - Source-line index of a program ------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The query path's index from source lines to instructions and back.
/// Every "slice from line N" answer looks up its seed statement here,
/// and every rendered slice lists its (method, line) pairs in the order
/// this table ranks them, so neither scans the program nor sorts.
///
/// Per method the table keeps the method's distinct instruction lines
/// (ascending) and the last instruction on each, in renumbered order;
/// each instruction carries its line's method-local index
/// (Instr::lineRank()). Program-wide it keeps one rank base per method
/// (a prefix sum of the distinct-line counts, in method-id order) and,
/// per line, the highest id of a method with an instruction on it.
/// Base + local rank is then the dense rank of (method id, line), the
/// order SourceLine sorts by.
///
/// The table is filled where bodies are made or moved: lowering
/// indexes each method after SSA and links once, the snapshot decoder
/// does the same after renumbering, and the incremental compiler
/// re-indexes its relowered bodies (patch) or, when an edit shifted
/// lines, every body inside the loop that shifts them (then links).
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_IR_LINETABLE_H
#define THINSLICER_IR_LINETABLE_H

#include <cstdint>
#include <vector>

namespace tsl {

class Instr;
class Method;
class Program;

class LineTable {
public:
  /// Marks "no method has an instruction on this line".
  static constexpr uint32_t NoMethod = ~0u;

  /// Re-derives \p M's entries from its renumbered body: its distinct
  /// lines, the last instruction on each, and every instruction's
  /// lineRank(). The program-wide parts wait for link().
  void indexMethod(Method &M);

  /// Recomputes the rank bases and the line -> method map from the
  /// indexed methods of \p P.
  void link(const Program &P);

  /// Re-indexes \p Dirty, whose bodies were replaced by an edit that
  /// moved no line of any other method, and patches the line -> method
  /// map and the rank bases only where the dirty methods' line sets
  /// changed.
  void patch(const std::vector<Method *> &Dirty);

  /// The last instruction, in method / block / instruction order, whose
  /// line is \p Line, or null.
  const Instr *lastAt(uint32_t Line) const;

  /// The nearest line below \p Line and above \p Floor that carries an
  /// instruction, or 0 when none does.
  uint32_t lineBelow(uint32_t Line, uint32_t Floor) const;
  /// The nearest line above \p Line that carries an instruction, or 0.
  uint32_t lineAbove(uint32_t Line) const;

  /// Number of distinct (method, line) pairs: the rank universe.
  uint32_t numRanks() const { return Base.empty() ? 0 : Base.back(); }
  /// The dense rank of (\p MethodId, line of an instruction of that
  /// method whose lineRank() is \p LocalRank).
  uint32_t rank(uint32_t MethodId, uint32_t LocalRank) const {
    return Base[MethodId] + LocalRank;
  }
  /// The method whose rank range holds \p Rank.
  uint32_t methodOfRank(uint32_t Rank) const;
  /// One past the last rank of method \p MethodId.
  uint32_t rankEnd(uint32_t MethodId) const { return Base[MethodId + 1]; }
  /// The line of rank \p Rank, which lies in method \p MethodId's range.
  uint32_t lineOfRank(uint32_t MethodId, uint32_t Rank) const {
    return PerMethod[MethodId].Lines[Rank - Base[MethodId]];
  }

  /// Table entries written so far (instruction ranks, per-line last
  /// instructions, line -> method entries, rank bases): a deterministic
  /// work counter, so a test can tell an edit-sized patch from a
  /// whole-program rebuild.
  uint64_t entriesWritten() const { return Written; }

private:
  struct MethodLines {
    std::vector<uint32_t> Lines;     ///< Distinct lines, ascending.
    std::vector<const Instr *> Last; ///< Last instruction per entry.
  };

  /// The highest method id below \p Before with an instruction on
  /// \p Line, or NoMethod.
  uint32_t previousOwner(uint32_t Line, uint32_t Before) const;
  /// Recomputes Base past method \p MethodId.
  void rebaseAfter(uint32_t MethodId);

  std::vector<MethodLines> PerMethod; ///< By method id.
  std::vector<uint32_t> Base;         ///< By method id, plus the total.
  std::vector<uint32_t> Owner;        ///< By line.
  uint64_t Written = 0;
};

} // namespace tsl

#endif // THINSLICER_IR_LINETABLE_H
