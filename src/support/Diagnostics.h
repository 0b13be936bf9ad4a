//===-- Diagnostics.h - Error reporting -------------------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Diagnostic engine shared by the ThinJ frontend and the analyses. The
/// library never throws; failures are reported through this sink and
/// callers test \c hasErrors().
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SUPPORT_DIAGNOSTICS_H
#define THINSLICER_SUPPORT_DIAGNOSTICS_H

#include "support/SourceLoc.h"

#include <string>
#include <vector>

namespace tsl {

/// Severity of a diagnostic message.
enum class DiagKind { Error, Warning, Note };

/// One reported diagnostic: severity, position (optionally a range),
/// and rendered message.
struct Diagnostic {
  DiagKind Kind;
  SourceLoc Loc;
  /// End of the offending range (inclusive); invalid when the
  /// diagnostic points at a single position.
  SourceLoc End;
  std::string Message;

  bool hasRange() const { return End.isValid() && End != Loc; }

  /// Renders "line:col: error: message" in the LLVM style (lowercase
  /// first word, no trailing period); with a range,
  /// "line:col-line:col: error: message".
  std::string str() const;
};

/// Collects diagnostics produced while parsing and analyzing a program.
///
/// A DiagnosticEngine is passed by reference through the frontend; any
/// component may append to it. It deliberately has no global state so
/// tests can assert on exact diagnostic sequences.
class DiagnosticEngine {
public:
  void error(SourceLoc Loc, std::string Message) {
    Diags.push_back({DiagKind::Error, Loc, SourceLoc(), std::move(Message)});
    ++NumErrors;
  }
  /// Range form: the diagnostic covers [Loc, End].
  void error(SourceLoc Loc, SourceLoc End, std::string Message) {
    Diags.push_back({DiagKind::Error, Loc, End, std::move(Message)});
    ++NumErrors;
  }
  void warning(SourceLoc Loc, std::string Message) {
    Diags.push_back({DiagKind::Warning, Loc, SourceLoc(), std::move(Message)});
  }
  void note(SourceLoc Loc, std::string Message) {
    Diags.push_back({DiagKind::Note, Loc, SourceLoc(), std::move(Message)});
  }

  bool hasErrors() const { return NumErrors != 0; }
  unsigned errorCount() const { return NumErrors; }
  const std::vector<Diagnostic> &diagnostics() const { return Diags; }

  /// Renders every diagnostic on its own line; convenient for test
  /// failure messages and tool output.
  std::string str() const;

  /// Renders every diagnostic as "File:line:col: error: message", one
  /// per line, with the \p LineOffset lines the tools prepend to the
  /// user's file (the runtime library) subtracted from the line
  /// numbers: the compile-failure report of the CLI and the daemon.
  std::string render(const std::string &File, unsigned LineOffset) const;

private:
  std::vector<Diagnostic> Diags;
  unsigned NumErrors = 0;
};

} // namespace tsl

#endif // THINSLICER_SUPPORT_DIAGNOSTICS_H
