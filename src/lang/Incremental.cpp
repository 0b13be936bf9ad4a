//===-- Incremental.cpp - Function-granular source diffing ----------------==//

#include "lang/Incremental.h"

#include "lang/Lexer.h"
#include "support/Diagnostics.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>

using namespace tsl;

namespace {

/// A maximal run of tokens that is either one function body (the brace
/// block of a `def`, including both braces) or the skeleton text
/// between two bodies.
struct Region {
  bool IsBody = false;
  size_t Begin = 0, End = 0; ///< Token index range [Begin, End).
  // Body regions only:
  size_t DefIdx = 0;     ///< Index of the `def` token.
  std::string Name;      ///< Function name.
  std::string ClassName; ///< Enclosing class, empty for top-level.
};

struct ScanResult {
  bool Ok = false;
  std::string Reason;
  std::vector<Token> Toks;
  std::vector<Region> Regions;
};

/// Tokenizes \p Src into \p Toks (Eof included). Returns false on lex
/// errors.
bool lexAll(std::string_view Src, std::vector<Token> &Toks) {
  DiagnosticEngine Diag;
  Lexer Lex(Src, Diag);
  for (;;) {
    Token T = Lex.next();
    bool AtEof = T.is(TokKind::Eof);
    Toks.push_back(std::move(T));
    if (AtEof)
      break;
  }
  return !Diag.hasErrors();
}

/// Splits an already-lexed stream into skeleton and body regions.
/// Tracks the enclosing class of each `def` so the caller can name
/// dirty methods. Bodies are skipped wholesale (statement braces never
/// open a new declaration scope in ThinJ). Sets R.Ok.
void buildRegions(ScanResult &R) {
  const std::vector<Token> &Toks = R.Toks;
  size_t N = Toks.size();
  std::string PendingClass, CurrentClass, PendingFn;
  int Depth = 0, ClassDepth = -1;
  bool ExpectBody = false;
  size_t DefIdx = 0, SkelBegin = 0;
  for (size_t I = 0; I < N; ++I) {
    const Token &T = Toks[I];
    switch (T.Kind) {
    case TokKind::KwClass:
      if (I + 1 < N && Toks[I + 1].is(TokKind::Ident))
        PendingClass = Toks[I + 1].Text;
      break;
    case TokKind::KwDef:
      if (ExpectBody) {
        R.Reason = "malformed declaration";
        return;
      }
      ExpectBody = true;
      DefIdx = I;
      PendingFn = I + 1 < N && Toks[I + 1].is(TokKind::Ident)
                      ? Toks[I + 1].Text
                      : std::string();
      break;
    case TokKind::LBrace: {
      if (!ExpectBody) {
        ++Depth;
        if (!PendingClass.empty()) {
          CurrentClass = std::move(PendingClass);
          PendingClass.clear();
          ClassDepth = Depth;
        }
        break;
      }
      // Body block: find the matching close brace.
      int D = 0;
      size_t J = I;
      for (; J < N; ++J) {
        if (Toks[J].is(TokKind::LBrace))
          ++D;
        else if (Toks[J].is(TokKind::RBrace) && --D == 0)
          break;
        else if (Toks[J].is(TokKind::Eof))
          break;
      }
      if (J >= N || !Toks[J].is(TokKind::RBrace)) {
        R.Reason = "unbalanced braces";
        return;
      }
      if (SkelBegin < I)
        R.Regions.push_back({false, SkelBegin, I, 0, {}, {}});
      Region Body;
      Body.IsBody = true;
      Body.Begin = I;
      Body.End = J + 1;
      Body.DefIdx = DefIdx;
      Body.Name = PendingFn;
      Body.ClassName = CurrentClass;
      R.Regions.push_back(std::move(Body));
      I = J;
      SkelBegin = J + 1;
      ExpectBody = false;
      break;
    }
    case TokKind::RBrace:
      if (Depth == ClassDepth) {
        CurrentClass.clear();
        ClassDepth = -1;
      }
      --Depth;
      break;
    default:
      break;
    }
  }
  if (SkelBegin < N)
    R.Regions.push_back({false, SkelBegin, N, 0, {}, {}});
  R.Ok = true;
}

/// Full scan: lex everything, then split into regions.
ScanResult scanUnit(std::string_view Src) {
  ScanResult R;
  if (!lexAll(Src, R.Toks)) {
    R.Reason = "lex error";
    return R;
  }
  buildRegions(R);
  return R;
}

/// Token equality modulo a uniform line shift: same kind, same payload,
/// same column, and the new line exceeds the old by exactly \p Delta.
bool tokenMatches(const Token &Old, const Token &New, long Delta) {
  return Old.Kind == New.Kind && Old.Text == New.Text &&
         Old.IntValue == New.IntValue && Old.Loc.Col == New.Loc.Col &&
         static_cast<long>(New.Loc.Line) - static_cast<long>(Old.Loc.Line) ==
             Delta;
}

/// Byte offsets of the first character of each line.
std::vector<size_t> lineStarts(std::string_view Src) {
  std::vector<size_t> Starts = {0};
  for (size_t I = 0; I < Src.size(); ++I)
    if (Src[I] == '\n')
      Starts.push_back(I + 1);
  return Starts;
}

size_t byteOffset(const std::vector<size_t> &Starts, SourceLoc Loc) {
  if (Loc.Line == 0 || Loc.Line > Starts.size())
    return 0;
  return Starts[Loc.Line - 1] + (Loc.Col > 0 ? Loc.Col - 1 : 0);
}

} // namespace

/// Memo of the last scanned unit: the source bytes, their scan, the
/// byte offset of each line and the number of function bodies.
/// Guarded by content equality, so a stale cache can only cost time,
/// never correctness.
struct ScanCache::Impl {
  bool Valid = false;
  std::string Src;
  ScanResult Scan;
  std::vector<size_t> LineStarts;
  unsigned NumBodies = 0;
};


namespace {

/// The dirty-function record for body region \p R, whose `def` and
/// closing brace sit at \p Def and \p Close in the new source.
SourceDiff::DirtyFn dirtyFn(const Region &R, const Token &Def,
                            const Token &Close, unsigned OldBeginLine,
                            unsigned OldEndLine, std::string_view NewSrc,
                            const std::vector<size_t> &NewStarts) {
  SourceDiff::DirtyFn Fn;
  Fn.Name = R.Name;
  Fn.ClassName = R.ClassName;
  Fn.DeclLine = Def.Loc.Line;
  Fn.DeclCol = Def.Loc.Col;
  Fn.OldBeginLine = OldBeginLine;
  Fn.OldEndLine = OldEndLine;
  // Fragment: the decl header and body exactly as they appear in the
  // new source, padded so a standalone parse reproduces the cold
  // parse's source locations byte for byte.
  const size_t From = byteOffset(NewStarts, Def.Loc);
  const size_t To = byteOffset(NewStarts, Close.Loc) + 1;
  Fn.Fragment.assign(Fn.DeclLine > 0 ? Fn.DeclLine - 1 : 0, '\n');
  Fn.Fragment.append(Fn.DeclCol > 0 ? Fn.DeclCol - 1 : 0, ' ');
  Fn.Fragment.append(NewSrc.substr(From, To - From));
  return Fn;
}

/// The diff of two full scans, region by region. It defines the
/// result: the splice below must agree with it wherever it decides.
SourceDiff diffScans(const ScanResult &Old, const ScanResult &New,
                     std::string_view NewSrc,
                     const std::vector<size_t> &NewStarts) {
  SourceDiff D;
  auto Fail = [&](const char *Why) {
    D.Eligible = false;
    D.Reason = Why;
    return D;
  };
  if (Old.Regions.size() != New.Regions.size())
    return Fail("declaration structure changed");

  long Cum = 0;
  for (size_t R = 0; R < Old.Regions.size(); ++R) {
    const Region &OR = Old.Regions[R];
    const Region &NR = New.Regions[R];
    if (OR.IsBody != NR.IsBody)
      return Fail("declaration structure changed");

    size_t OLen = OR.End - OR.Begin, NLen = NR.End - NR.Begin;
    if (!OR.IsBody) {
      // Skeleton: every token must survive the edit verbatim, shifted
      // by the cumulative line delta of the dirty bodies above it.
      if (OLen != NLen)
        return Fail("declaration skeleton changed");
      for (size_t I = 0; I < OLen; ++I) {
        ++D.TokensCompared;
        if (!tokenMatches(Old.Toks[OR.Begin + I], New.Toks[NR.Begin + I], Cum))
          return Fail("declaration skeleton changed");
      }
      continue;
    }

    ++D.TotalFunctions;
    // Identity is derived from the (already validated) skeleton, so
    // the k-th old body and the k-th new body name the same function.
    bool Unchanged = OLen == NLen;
    for (size_t I = 0; Unchanged && I < OLen; ++I) {
      ++D.TokensCompared;
      Unchanged =
          tokenMatches(Old.Toks[OR.Begin + I], New.Toks[NR.Begin + I], Cum);
    }
    if (Unchanged)
      continue;

    const Token &OldClose = Old.Toks[OR.End - 1];
    const Token &NewClose = New.Toks[NR.End - 1];
    long NewCum = static_cast<long>(NewClose.Loc.Line) -
                  static_cast<long>(OldClose.Loc.Line);
    if (NewCum != Cum) {
      // The edit changed the body's line count. Retained-location
      // patching is per-line, so refuse layouts where another token
      // shares the closing brace's line (one-decl-per-line is the
      // overwhelmingly common case; falling back is sound).
      if (OR.End < Old.Toks.size() &&
          Old.Toks[OR.End].Loc.Line == OldClose.Loc.Line)
        return Fail("same-line declaration after edited body");
      if (NR.End < New.Toks.size() &&
          New.Toks[NR.End].Loc.Line == NewClose.Loc.Line)
        return Fail("same-line declaration after edited body");
    }

    D.Dirty.push_back(dirtyFn(NR, New.Toks[NR.DefIdx], NewClose,
                              Old.Toks[OR.DefIdx].Loc.Line,
                              OldClose.Loc.Line, NewSrc, NewStarts));
    Cum = NewCum;
    D.Steps.emplace_back(OldClose.Loc.Line, Cum);
  }
  D.Eligible = true;
  return D;
}

/// Diffs \p NewSrc against the cached scan and, when it can decide,
/// splices the new scan into the cache in place. Only the changed
/// lines are re-lexed, and only the regions they overlap (plus the
/// declaration header after the last) are compared; the rest of the
/// scan is reused, shifted by the edit's line delta. Returns false,
/// with the cache untouched, when the edit does not leave the regions
/// outside that span as they were — a changed skeleton, unbalanced
/// braces, a lex error, a same-line declaration after a body that
/// changed its line count, or a line shift the next region would
/// record — and the caller decides with a full scan instead.
bool spliceDiff(std::string_view NewSrc, ScanCache::Impl &C,
                SourceDiff &D) {
  const std::string_view OldSrc = C.Src;
  D.TotalFunctions = C.NumBodies;
  const size_t MinLen = std::min(OldSrc.size(), NewSrc.size());
  const size_t Prefix =
      std::mismatch(OldSrc.begin(), OldSrc.begin() + MinLen, NewSrc.begin())
          .first -
      OldSrc.begin();
  if (Prefix == MinLen && OldSrc.size() == NewSrc.size()) {
    D.Eligible = true; // Same bytes: nothing to diff.
    return true;
  }
  size_t Suffix = 0;
  while (Suffix < MinLen - Prefix &&
         OldSrc[OldSrc.size() - 1 - Suffix] == NewSrc[NewSrc.size() - 1 - Suffix])
    ++Suffix;
  const size_t OldEnd = OldSrc.size() - Suffix, NewEnd = NewSrc.size() - Suffix;
  const long ByteDelta =
      static_cast<long>(NewSrc.size()) - static_cast<long>(OldSrc.size());

  // Widen the changed bytes to whole lines. ThinJ lexing is
  // line-independent (strings cannot span lines, comments run to end
  // of line), so lexing these lines alone yields the tokens a full lex
  // would, and every token after them keeps its column.
  std::vector<Token> &Toks = C.Scan.Toks;
  std::vector<Region> &Regions = C.Scan.Regions;
  std::vector<size_t> &LS = C.LineStarts;
  const auto FirstLine =
      std::prev(std::upper_bound(LS.begin(), LS.end(), Prefix));
  const size_t WinBegin = *FirstLine;
  const size_t Nl = OldSrc.find('\n', OldEnd);
  const size_t OldWinEnd =
      Nl == std::string_view::npos ? OldSrc.size() : Nl + 1;
  const size_t NewWinEnd = static_cast<size_t>(OldWinEnd + ByteDelta);
  const uint32_t LineA = static_cast<uint32_t>(FirstLine - LS.begin()) + 1;
  const long OldNl = std::count(OldSrc.begin() + WinBegin,
                                OldSrc.begin() + OldWinEnd, '\n');
  const long LineDelta =
      std::count(NewSrc.begin() + WinBegin, NewSrc.begin() + NewWinEnd, '\n') -
      OldNl;
  // Old lines [LineA, LineB] are replaced (none for an append at the
  // very end).
  const uint32_t LineB =
      OldWinEnd > WinBegin
          ? static_cast<uint32_t>(
                std::upper_bound(LS.begin(), LS.end(), OldWinEnd - 1) -
                LS.begin())
          : LineA - 1;

  std::vector<Token> Mid;
  {
    DiagnosticEngine Diag;
    Lexer Lex(NewSrc.substr(WinBegin, NewWinEnd - WinBegin), Diag);
    for (;;) {
      Token T = Lex.next();
      if (T.is(TokKind::Eof))
        break;
      T.Loc.Line += LineA - 1;
      Mid.push_back(std::move(T));
    }
    if (Diag.hasErrors())
      return false;
  }
  // Eof sits at the end of the buffer: line = newline count + 1,
  // column = bytes after the last newline + 1 (see Lexer::advance).
  const size_t EofIdx = Toks.size() - 1;
  SourceLoc NewEof;
  NewEof.Line = static_cast<uint32_t>(Toks[EofIdx].Loc.Line + LineDelta);
  const size_t LastNl = NewSrc.rfind('\n');
  NewEof.Col = static_cast<uint32_t>(
      (LastNl == std::string_view::npos ? NewSrc.size()
                                        : NewSrc.size() - LastNl - 1) +
      1);

  // Old tokens [TA, TB) lie on the replaced lines.
  const auto LineOf = [&](uint32_t L) {
    return [L](const Token &T) { return T.Loc.Line < L; };
  };
  const size_t TA =
      std::partition_point(Toks.begin(), Toks.begin() + EofIdx, LineOf(LineA)) -
      Toks.begin();
  const size_t TB = std::partition_point(Toks.begin() + TA,
                                         Toks.begin() + EofIdx,
                                         LineOf(LineB + 1)) -
                    Toks.begin();
  // The span of regions they overlap, closed by a skeleton region so
  // every body in it is followed by a token in it. The last region is
  // always skeleton: it holds Eof.
  const auto RegionOf = [&](size_t Tok) {
    return static_cast<size_t>(
        std::partition_point(Regions.begin(), Regions.end(),
                             [Tok](const Region &R) { return R.End <= Tok; }) -
        Regions.begin());
  };
  const size_t R0 = RegionOf(TA);
  size_t R1 = TB > TA ? RegionOf(TB - 1) : R0;
  if (Regions[R1].IsBody)
    ++R1;
  const size_t SpanBegin = Regions[R0].Begin, SpanEnd = Regions[R1].End;

  // The span's new tokens: old ones before the window, the window's
  // lex, and old ones after it at the new line.
  std::vector<Token> Run;
  Run.reserve(SpanEnd - SpanBegin + Mid.size() - (TB - TA));
  Run.insert(Run.end(), Toks.begin() + SpanBegin, Toks.begin() + TA);
  Run.insert(Run.end(), std::make_move_iterator(Mid.begin()),
             std::make_move_iterator(Mid.end()));
  for (size_t I = TB; I < SpanEnd; ++I) {
    Run.push_back(Toks[I]);
    if (I == EofIdx)
      Run.back().Loc = NewEof;
    else
      Run.back().Loc.Line =
          static_cast<uint32_t>(Run.back().Loc.Line + LineDelta);
  }

  // Match the span's regions against the new tokens the way the full
  // diff does: skeleton tokens verbatim at the cumulative line shift, a
  // body as the balanced brace block buildRegions would find.
  struct Changed {
    size_t Region;
    unsigned OldBeginLine, OldEndLine;
  };
  std::vector<Changed> Dirty;
  std::vector<size_t> NewBegin; // Run offset of each span region, then the end.
  long Cum = 0;
  size_t K = 0;
  for (size_t R = R0; R <= R1; ++R) {
    const Region &OR = Regions[R];
    const size_t OLen = OR.End - OR.Begin;
    NewBegin.push_back(K);
    if (!OR.IsBody) {
      if (Run.size() - K < OLen)
        return false;
      for (size_t I = 0; I < OLen; ++I) {
        ++D.TokensCompared;
        if (!tokenMatches(Toks[OR.Begin + I], Run[K + I], Cum))
          return false;
      }
      K += OLen;
      continue;
    }
    if (K == Run.size() || !Run[K].is(TokKind::LBrace))
      return false;
    size_t J = K;
    for (int Depth = 0; J < Run.size(); ++J) {
      if (Run[J].is(TokKind::LBrace))
        ++Depth;
      else if (Run[J].is(TokKind::RBrace) && --Depth == 0)
        break;
    }
    if (J + 1 >= Run.size())
      return false;
    const size_t NLen = J + 1 - K;
    bool Unchanged = OLen == NLen;
    for (size_t I = 0; Unchanged && I < OLen; ++I) {
      ++D.TokensCompared;
      Unchanged = tokenMatches(Toks[OR.Begin + I], Run[K + I], Cum);
    }
    if (!Unchanged) {
      const Token &OldClose = Toks[OR.End - 1];
      const long NewCum = static_cast<long>(Run[J].Loc.Line) -
                          static_cast<long>(OldClose.Loc.Line);
      if (NewCum != Cum &&
          (Toks[OR.End].Loc.Line == OldClose.Loc.Line ||
           Run[J + 1].Loc.Line == Run[J].Loc.Line))
        return false;
      Dirty.push_back({R, Toks[OR.DefIdx].Loc.Line, OldClose.Loc.Line});
      Cum = NewCum;
      D.Steps.emplace_back(OldClose.Loc.Line, Cum);
    }
    K += NLen;
  }
  NewBegin.push_back(K);
  // Every new token belongs to a span region, and the tokens after the
  // span, moved by LineDelta, must be where the full diff expects them.
  if (K != Run.size() || (R1 + 1 < Regions.size() && Cum != LineDelta))
    return false;

  // Splice: tokens, then region bounds (in the span from the match,
  // after it by the token delta), line starts and bytes.
  const long TokDelta = static_cast<long>(Run.size()) -
                        static_cast<long>(SpanEnd - SpanBegin);
  if (TokDelta == 0) {
    std::move(Run.begin(), Run.end(), Toks.begin() + SpanBegin);
  } else {
    Toks.erase(Toks.begin() + SpanBegin, Toks.begin() + SpanEnd);
    Toks.insert(Toks.begin() + SpanBegin, std::make_move_iterator(Run.begin()),
                std::make_move_iterator(Run.end()));
  }
  if (LineDelta != 0)
    for (size_t I = SpanBegin + Run.size(); I + 1 < Toks.size(); ++I)
      Toks[I].Loc.Line = static_cast<uint32_t>(Toks[I].Loc.Line + LineDelta);
  Toks.back().Loc = NewEof;
  // Descending, so a body's header region still has its old Begin.
  for (size_t R = R1 + 1; R-- > R0;) {
    Region &Reg = Regions[R];
    if (Reg.IsBody && R > R0)
      Reg.DefIdx = SpanBegin + NewBegin[R - 1 - R0] +
                   (Reg.DefIdx - Regions[R - 1].Begin);
    Reg.Begin = SpanBegin + NewBegin[R - R0];
    Reg.End = SpanBegin + NewBegin[R - R0 + 1];
  }
  if (TokDelta != 0)
    for (size_t R = R1 + 1; R < Regions.size(); ++R) {
      Regions[R].Begin = static_cast<size_t>(Regions[R].Begin + TokDelta);
      Regions[R].End = static_cast<size_t>(Regions[R].End + TokDelta);
      if (Regions[R].IsBody)
        Regions[R].DefIdx = static_cast<size_t>(Regions[R].DefIdx + TokDelta);
    }
  // Line starts: drop the old window's, add the new window's, shift
  // the rest by the byte delta.
  auto Lo = std::upper_bound(LS.begin(), LS.end(), Prefix);
  auto Hi = std::upper_bound(Lo, LS.end(), OldEnd);
  for (auto It = Hi; It != LS.end(); ++It)
    *It = static_cast<size_t>(static_cast<long>(*It) + ByteDelta);
  std::vector<size_t> Fresh;
  for (size_t I = Prefix; I < NewEnd; ++I)
    if (NewSrc[I] == '\n')
      Fresh.push_back(I + 1);
  const size_t LoIdx = Lo - LS.begin();
  LS.erase(Lo, Hi);
  LS.insert(LS.begin() + LoIdx, Fresh.begin(), Fresh.end());
  C.Src.replace(Prefix, OldEnd - Prefix, NewSrc.substr(Prefix, NewEnd - Prefix));

  for (const Changed &Ch : Dirty) {
    const Region &Reg = Regions[Ch.Region];
    D.Dirty.push_back(dirtyFn(Reg, Toks[Reg.DefIdx], Toks[Reg.End - 1],
                              Ch.OldBeginLine, Ch.OldEndLine, NewSrc, LS));
  }
  D.Eligible = true;

#ifndef NDEBUG
  // The spliced cache must equal a full scan of the new source.
  {
    ScanResult Full = scanUnit(NewSrc);
    assert(Full.Ok && Full.Toks.size() == Toks.size() &&
           "spliced scan token count differs");
    for (size_t T = 0; T < Toks.size(); ++T) {
      const Token &A = Full.Toks[T], &B = Toks[T];
      assert(A.Kind == B.Kind && A.Text == B.Text &&
             A.IntValue == B.IntValue && A.Loc.Line == B.Loc.Line &&
             A.Loc.Col == B.Loc.Col && "spliced scan token differs");
    }
    assert(Full.Regions.size() == Regions.size() &&
           "spliced scan regions differ");
    for (size_t R = 0; R < Regions.size(); ++R)
      assert(Full.Regions[R].IsBody == Regions[R].IsBody &&
             Full.Regions[R].Begin == Regions[R].Begin &&
             Full.Regions[R].End == Regions[R].End &&
             Full.Regions[R].DefIdx == Regions[R].DefIdx &&
             Full.Regions[R].Name == Regions[R].Name &&
             Full.Regions[R].ClassName == Regions[R].ClassName &&
             "spliced scan regions differ");
    assert(LS == lineStarts(NewSrc) && "spliced line starts differ");
    assert(C.Src == NewSrc && "spliced source differs");
  }
#endif
  return true;
}

} // namespace

ScanCache::ScanCache() : P(std::make_unique<Impl>()) {}
ScanCache::~ScanCache() = default;

long SourceDiff::shiftForOldLine(unsigned OldLine) const {
  if (OldLine == 0)
    return 0;
  long Delta = 0;
  for (const auto &[Threshold, Cum] : Steps) {
    if (OldLine <= Threshold)
      break;
    Delta = Cum;
  }
  return Delta;
}

bool SourceDiff::shiftsLines() const {
  return std::any_of(Steps.begin(), Steps.end(),
                     [](const auto &Step) { return Step.second != 0; });
}

SourceDiff tsl::diffThinJSource(std::string_view OldSrc,
                                std::string_view NewSrc, ScanCache *Cache) {
  auto Fail = [](const std::string &Why) {
    SourceDiff D;
    D.Reason = Why;
    return D;
  };
  // Column→byte-offset mapping assumes one byte per column.
  if (OldSrc.find('\t') != std::string_view::npos ||
      NewSrc.find('\t') != std::string_view::npos)
    return Fail("tab characters in source");

  // Old side: reuse the cached scan when it is for these exact bytes.
  ScanCache::Impl Local;
  ScanCache::Impl &C = Cache ? *Cache->P : Local;
  if (!C.Valid || C.Src != OldSrc) {
    C.Valid = false;
    C.Scan = scanUnit(OldSrc);
    if (!C.Scan.Ok)
      return Fail(C.Scan.Reason);
    C.Src.assign(OldSrc.data(), OldSrc.size());
    C.LineStarts = lineStarts(OldSrc);
    C.NumBodies = static_cast<unsigned>(
        std::count_if(C.Scan.Regions.begin(), C.Scan.Regions.end(),
                      [](const Region &R) { return R.IsBody; }));
    C.Valid = true;
  }

  SourceDiff D;
  if (spliceDiff(NewSrc, C, D)) {
#ifndef NDEBUG
    // The diff of two full scans is the reference.
    const ScanResult New = scanUnit(NewSrc);
    const SourceDiff Ref =
        diffScans(scanUnit(OldSrc), New, NewSrc, lineStarts(NewSrc));
    assert(Ref.Eligible && Ref.TotalFunctions == D.TotalFunctions &&
           Ref.Steps == D.Steps && Ref.Dirty.size() == D.Dirty.size() &&
           "spliced diff differs from the full diff");
    for (size_t I = 0; I < D.Dirty.size(); ++I)
      assert(Ref.Dirty[I].Name == D.Dirty[I].Name &&
             Ref.Dirty[I].ClassName == D.Dirty[I].ClassName &&
             Ref.Dirty[I].DeclLine == D.Dirty[I].DeclLine &&
             Ref.Dirty[I].DeclCol == D.Dirty[I].DeclCol &&
             Ref.Dirty[I].Fragment == D.Dirty[I].Fragment &&
             Ref.Dirty[I].OldBeginLine == D.Dirty[I].OldBeginLine &&
             Ref.Dirty[I].OldEndLine == D.Dirty[I].OldEndLine &&
             "spliced diff differs from the full diff");
#endif
    return D;
  }

  // The splice could not decide: a full scan of the new source does,
  // and names the reason when the edit is ineligible.
  const uint64_t Spliced = D.TokensCompared;
  ScanResult New = scanUnit(NewSrc);
  if (!New.Ok)
    return Fail(New.Reason);
  std::vector<size_t> NewStarts = lineStarts(NewSrc);
  D = diffScans(C.Scan, New, NewSrc, NewStarts);
  D.TokensCompared += Spliced;
  // Memoize the new scan: the next edit in this stream will diff
  // against exactly these bytes. (Ineligible diffs fall back to a cold
  // rebuild, after which the session's source no longer matches the
  // cache — the guard above catches that and rescans.)
  if (D.Eligible) {
    C.Src.assign(NewSrc.data(), NewSrc.size());
    C.Scan = std::move(New);
    C.LineStarts = std::move(NewStarts);
  }
  return D;
}
