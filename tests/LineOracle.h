//===-- LineOracle.h - Scan oracles for the line table ----------*- C++ -*-==//
//
// The query path answers seed lookups and slice line lists from the
// program's LineTable (ir/LineTable.h). These are the whole-program
// scans and the sort it replaced, kept as oracles: a table that misses
// a relowered body, a shifted line or a decoded method disagrees with
// them on some line.
//
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_TESTS_LINEORACLE_H
#define THINSLICER_TESTS_LINEORACLE_H

#include "ir/Instr.h"
#include "ir/Program.h"
#include "slicer/Report.h"
#include "slicer/Slicer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

namespace tsl {
namespace lineoracle {

/// The last instruction on each line, in method / block / instruction
/// order, from one scan of every body (index = line).
inline std::vector<const Instr *> scanLastAtLine(const Program &P) {
  std::vector<const Instr *> Last;
  for (const auto &M : P.methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs()) {
        const unsigned Line = I->loc().Line;
        if (Line >= Last.size())
          Last.resize(Line + 1, nullptr);
        Last[Line] = I.get();
      }
  return Last;
}

/// seedForUserLine's answer, rebuilt from a scan: the seed, or the
/// status text (code and message) of the failure.
inline std::string scanSeedAnswer(const std::vector<const Instr *> &Last,
                                  unsigned UserLine, unsigned LineOffset) {
  if (UserLine == 0 || UserLine > ~0u - LineOffset)
    return "InvalidArgument: line " + std::to_string(UserLine) +
           " is out of range";
  const unsigned Abs = UserLine + LineOffset;
  if (Abs < Last.size() && Last[Abs])
    return "seed " + std::to_string(reinterpret_cast<uintptr_t>(Last[Abs]));
  unsigned Below = 0, Above = 0;
  for (unsigned L = LineOffset + 1; L < Last.size(); ++L) {
    if (!Last[L])
      continue;
    if (L < Abs)
      Below = L;
    else if (L > Abs && !Above)
      Above = L;
  }
  std::string Near;
  if (Below)
    Near += std::to_string(Below - LineOffset);
  if (Above) {
    if (!Near.empty())
      Near += ", ";
    Near += std::to_string(Above - LineOffset);
  }
  std::string Msg = "NotFound: no statement at line ";
  Msg += std::to_string(UserLine);
  if (!Near.empty())
    Msg += " (nearest statement lines: " + Near + ")";
  return Msg;
}

/// seedForUserLine's answer in scanSeedAnswer's form.
inline std::string seedAnswer(const Program &P, unsigned UserLine,
                              unsigned LineOffset) {
  Expected<const Instr *> R = seedForUserLine(P, UserLine, LineOffset);
  if (R)
    return "seed " + std::to_string(reinterpret_cast<uintptr_t>(*R));
  std::string Code = R.status().code() == StatusCode::NotFound
                         ? "NotFound: "
                         : "InvalidArgument: ";
  return Code + R.status().message();
}

/// Checks seedAtLine on every line of \p P (and two past its last),
/// and seedForUserLine, messages included, on every user line below a
/// \p LineOffset-line prefix, against the scan.
inline void expectSeedLookupMatchesScan(const Program &P, unsigned LineOffset,
                                        const std::string &What) {
  const std::vector<const Instr *> Last = scanLastAtLine(P);
  const unsigned End = static_cast<unsigned>(Last.size()) + 2;
  unsigned Mismatches = 0;
  for (unsigned Line = 0; Line != End && Mismatches < 5; ++Line) {
    const Instr *Want = Line < Last.size() ? Last[Line] : nullptr;
    if (seedAtLine(P, Line) != Want) {
      ADD_FAILURE() << What << ": seedAtLine(" << Line << ") differs";
      ++Mismatches;
    }
  }
  for (unsigned User = 0; User + LineOffset != End && Mismatches < 5;
       ++User) {
    const std::string Want = scanSeedAnswer(Last, User, LineOffset);
    const std::string Got = seedAnswer(P, User, LineOffset);
    if (Got != Want) {
      ADD_FAILURE() << What << ": user line " << User << " (offset "
                    << LineOffset << "): got '" << Got << "', want '" << Want
                    << "'";
      ++Mismatches;
    }
  }
  EXPECT_EQ(seedAnswer(P, ~0u, LineOffset),
            scanSeedAnswer(Last, ~0u, LineOffset))
      << What;
}

/// sourceLines() as it was computed before the line table: every
/// positioned statement's (method, line), sorted and deduplicated.
inline std::vector<SourceLine> sortedSourceLines(const SliceResult &R) {
  std::vector<SourceLine> Lines;
  R.nodeSet().forEach([&](unsigned Node) {
    const SDGNode &N = R.graph().node(Node);
    if (N.isSourceStmt() && N.I->loc().isValid())
      Lines.push_back({N.M, N.I->loc().Line});
  });
  std::sort(Lines.begin(), Lines.end());
  Lines.erase(std::unique(Lines.begin(), Lines.end()), Lines.end());
  return Lines;
}

} // namespace lineoracle
} // namespace tsl

#endif // THINSLICER_TESTS_LINEORACLE_H
