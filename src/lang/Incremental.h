//===-- Incremental.h - Function-granular source diffing --------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Token-level diffing of two ThinJ translation units at function
/// granularity, the front end of the incremental reanalysis layer
/// (DESIGN.md section 13). A unit is split into alternating *skeleton*
/// segments (class headers, field declarations, method signatures) and
/// *body* regions (the brace block of each `def`). An edit is eligible
/// for incremental recompilation when the skeleton token stream is
/// unchanged — same declarations, same signatures, same order — and
/// only body regions differ; each differing body is reported as a
/// dirty function together with a positioned source fragment that
/// reparses in isolation with source locations identical to a cold
/// parse of the full unit. Everything else (added/removed/renamed
/// functions, signature changes, class shape changes, lex errors)
/// makes the diff ineligible and the caller falls back to a cold
/// rebuild — fallback is always sound, eligibility is purely a
/// performance fast path.
///
/// Unchanged functions may still *shift lines* when an edit above them
/// grows or shrinks a body. The diff captures that as a piecewise
/// line-delta map over old-source lines; the caller patches retained
/// instruction locations through shiftForOldLine() so rendered slices
/// stay byte-identical to a cold rebuild of the new source.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_LANG_INCREMENTAL_H
#define THINSLICER_LANG_INCREMENTAL_H

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace tsl {

struct SourceDiff;
class ScanCache;

/// Diffs \p OldSrc against \p NewSrc. Never fails: an undiffable pair
/// comes back with Eligible=false and a reason. With a \p Cache the
/// previous call's token scan is reused when OldSrc matches the cached
/// source. Only the lines between the two sources' common byte prefix
/// and suffix are re-lexed (ThinJ lexing is line-independent: strings
/// cannot span lines, comments run to end of line), and only the
/// regions those lines overlap are compared and spliced into the scan,
/// so the diff costs the edit, not the unit. An edit that changes what
/// lies outside that span (a declaration, a brace, a line shift the
/// next body would record) is decided by a full scan of the new source
/// instead. The cache is updated to the new source on every eligible
/// diff.
SourceDiff diffThinJSource(std::string_view OldSrc, std::string_view NewSrc,
                           ScanCache *Cache = nullptr);

/// Opaque memo of the most recent scanned source, keyed by content.
/// One cache serves one edit stream (e.g. one AnalysisSession); it is
/// purely an accelerator — diffThinJSource verifies the key and falls
/// back to a full scan on any mismatch.
class ScanCache {
public:
  ScanCache();
  ~ScanCache();
  ScanCache(const ScanCache &) = delete;
  ScanCache &operator=(const ScanCache &) = delete;

  struct Impl;

private:
  friend SourceDiff tsl::diffThinJSource(std::string_view, std::string_view,
                                         ScanCache *);
  std::unique_ptr<Impl> P;
};

/// Result of diffing two ThinJ sources at function granularity.
struct SourceDiff {
  /// One function whose body changed.
  struct DirtyFn {
    std::string Name;      ///< Method name.
    std::string ClassName; ///< Enclosing class; empty for top-level.
    /// Position of the `def` keyword in the NEW source.
    unsigned DeclLine = 0, DeclCol = 0;
    /// The decl + body text from the NEW source, prefixed with
    /// newline/space padding so a parse of just this fragment yields
    /// the same source locations as a cold parse of the full unit.
    std::string Fragment;
    /// Old-source line span of the body region (first line of `def`
    /// through the body's closing brace), used by tests/telemetry.
    unsigned OldBeginLine = 0, OldEndLine = 0;
  };

  bool Eligible = false;
  std::string Reason; ///< Why the diff is ineligible (empty if eligible).
  std::vector<DirtyFn> Dirty;
  /// Total number of function bodies in the unit (reuse telemetry).
  unsigned TotalFunctions = 0;
  /// Tokens compared old against new: a deterministic work counter.
  /// A diff compares only the regions the changed lines overlap.
  uint64_t TokensCompared = 0;

  /// Piecewise cumulative line shift: a retained instruction whose old
  /// location is line \p OldLine now lives at OldLine +
  /// shiftForOldLine(OldLine). Returns 0 for line 0 (synthesized
  /// locations) and for lines before the first edit.
  long shiftForOldLine(unsigned OldLine) const;

  /// True when the edit moves some retained line: a body grew or
  /// shrank by whole lines.
  bool shiftsLines() const;

  /// Internal form of the shift map: sorted (OldLineThreshold,
  /// CumulativeDelta) steps — the delta applies to old lines strictly
  /// greater than the threshold.
  std::vector<std::pair<unsigned, long>> Steps;
};

} // namespace tsl

#endif // THINSLICER_LANG_INCREMENTAL_H
