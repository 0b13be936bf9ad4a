//===-- Diagnostics.cpp - Error reporting ---------------------------------==//

#include "support/Diagnostics.h"

using namespace tsl;

static const char *kindName(DiagKind Kind) {
  switch (Kind) {
  case DiagKind::Error:
    return "error";
  case DiagKind::Warning:
    return "warning";
  case DiagKind::Note:
    return "note";
  }
  return "unknown";
}

std::string Diagnostic::str() const {
  std::string Pos = Loc.str();
  if (hasRange()) {
    Pos += '-';
    Pos += End.str();
  }
  return Pos + ": " + kindName(Kind) + ": " + Message;
}

std::string DiagnosticEngine::str() const {
  std::string Out;
  for (const Diagnostic &D : Diags) {
    Out += D.str();
    Out += '\n';
  }
  return Out;
}

std::string DiagnosticEngine::render(const std::string &File,
                                     unsigned LineOffset) const {
  std::string Out;
  for (const Diagnostic &D : Diags) {
    SourceLoc Loc = D.Loc;
    if (Loc.Line > LineOffset)
      Loc.Line -= LineOffset;
    Out += File + ":" + Loc.str() + ": error: " + D.Message + "\n";
  }
  return Out;
}
