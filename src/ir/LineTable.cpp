//===-- LineTable.cpp - Source-line index of a program ----------------------==//

#include "ir/LineTable.h"

#include "ir/Instr.h"
#include "ir/Program.h"

#include <algorithm>

using namespace tsl;

void LineTable::indexMethod(Method &M) {
  if (PerMethod.size() <= M.id())
    PerMethod.resize(M.id() + 1);
  MethodLines &E = PerMethod[M.id()];
  E.Lines.clear();
  for (Instr *I : M.instrs())
    E.Lines.push_back(I->loc().Line);
  std::sort(E.Lines.begin(), E.Lines.end());
  E.Lines.erase(std::unique(E.Lines.begin(), E.Lines.end()), E.Lines.end());
  E.Last.assign(E.Lines.size(), nullptr);
  // Renumbered order is block order, instruction order within a block:
  // the later instruction on a line overwrites the earlier.
  for (Instr *I : M.instrs()) {
    auto It = std::lower_bound(E.Lines.begin(), E.Lines.end(), I->loc().Line);
    auto Rank = static_cast<uint32_t>(It - E.Lines.begin());
    I->setLineRank(Rank);
    E.Last[Rank] = I;
  }
  Written += M.instrs().size() + E.Lines.size();
}

void LineTable::link(const Program &P) {
  const auto NumMethods = static_cast<uint32_t>(P.methods().size());
  PerMethod.resize(NumMethods);
  Base.assign(NumMethods + 1, 0);
  uint32_t MaxLine = 0;
  for (uint32_t M = 0; M != NumMethods; ++M) {
    Base[M + 1] = Base[M] + static_cast<uint32_t>(PerMethod[M].Lines.size());
    if (!PerMethod[M].Lines.empty())
      MaxLine = std::max(MaxLine, PerMethod[M].Lines.back());
  }
  Owner.assign(MaxLine + 1, NoMethod);
  for (uint32_t M = 0; M != NumMethods; ++M)
    for (uint32_t Line : PerMethod[M].Lines)
      Owner[Line] = M; // Ascending ids: the last method wins.
  Written += Base.size() + Owner.size();
}

void LineTable::patch(const std::vector<Method *> &Dirty) {
  for (Method *M : Dirty) {
    const uint32_t Id = M->id();
    const std::vector<uint32_t> Old = std::move(PerMethod[Id].Lines);
    indexMethod(*M);
    const std::vector<uint32_t> &New = PerMethod[Id].Lines;
    if (Old == New)
      continue;
    for (uint32_t Line : Old)
      if (Owner[Line] == Id && !std::binary_search(New.begin(), New.end(),
                                                   Line)) {
        Owner[Line] = previousOwner(Line, Id);
        ++Written;
      }
    if (!New.empty() && New.back() >= Owner.size())
      Owner.resize(New.back() + 1, NoMethod);
    for (uint32_t Line : New)
      if (Owner[Line] == NoMethod || Owner[Line] < Id) {
        Owner[Line] = Id;
        ++Written;
      }
    if (Old.size() != New.size())
      rebaseAfter(Id);
  }
}

uint32_t LineTable::previousOwner(uint32_t Line, uint32_t Before) const {
  for (uint32_t M = Before; M-- != 0;) {
    const std::vector<uint32_t> &Lines = PerMethod[M].Lines;
    if (std::binary_search(Lines.begin(), Lines.end(), Line))
      return M;
  }
  return NoMethod;
}

void LineTable::rebaseAfter(uint32_t MethodId) {
  for (std::size_t M = MethodId; M + 1 != Base.size(); ++M) {
    const uint32_t Next =
        Base[M] + static_cast<uint32_t>(PerMethod[M].Lines.size());
    if (Base[M + 1] != Next) {
      Base[M + 1] = Next;
      ++Written;
    }
  }
}

const Instr *LineTable::lastAt(uint32_t Line) const {
  if (Line >= Owner.size() || Owner[Line] == NoMethod)
    return nullptr;
  const MethodLines &E = PerMethod[Owner[Line]];
  auto It = std::lower_bound(E.Lines.begin(), E.Lines.end(), Line);
  return E.Last[It - E.Lines.begin()];
}

uint32_t LineTable::lineBelow(uint32_t Line, uint32_t Floor) const {
  for (std::size_t L = std::min<std::size_t>(Line, Owner.size());
       L > std::size_t(Floor) + 1;)
    if (Owner[--L] != NoMethod)
      return static_cast<uint32_t>(L);
  return 0;
}

uint32_t LineTable::lineAbove(uint32_t Line) const {
  for (std::size_t L = std::size_t(Line) + 1; L < Owner.size(); ++L)
    if (Owner[L] != NoMethod)
      return static_cast<uint32_t>(L);
  return 0;
}

uint32_t LineTable::methodOfRank(uint32_t Rank) const {
  // The last method whose base is at or below Rank: methods without
  // lines share their successor's base and are skipped.
  auto It = std::upper_bound(Base.begin(), Base.end(), Rank);
  return static_cast<uint32_t>(It - Base.begin()) - 1;
}
