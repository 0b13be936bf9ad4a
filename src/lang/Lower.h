//===-- Lower.h - AST -> IR lowering ----------------------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantic analysis and lowering of a parsed ThinJ module into the
/// analyzable Program IR, plus the one-call compile pipeline used by
/// tools, tests, and workloads.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_LANG_LOWER_H
#define THINSLICER_LANG_LOWER_H

#include "ir/Program.h"
#include "lang/Ast.h"
#include "lang/Incremental.h"
#include "support/Diagnostics.h"
#include "support/Status.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace tsl {

/// Type-checks and lowers \p Module, then builds SSA on every body.
/// The module must define a parameterless static entry point named
/// "main". Returns null after reporting diagnostics when the module
/// has semantic errors. Pre-existing errors in \p Diag (e.g. from a
/// recovered parse) do not stop sema: only errors this call adds do,
/// so a partial AST still gets checked and every diagnostic is
/// reported in one compile.
std::unique_ptr<Program> lowerModule(const AstModule &Module,
                                     DiagnosticEngine &Diag);

/// Full pipeline: parse + lower + SSA + Verifier gate. The verifier
/// turns malformed IR into diagnostics, so it never reaches an
/// analysis. Returns null and reports diagnostics on any error; a file
/// with both syntax and semantic errors reports all of them (the
/// recovering parser hands sema the partial AST).
std::unique_ptr<Program> compileThinJ(std::string_view Source,
                                      DiagnosticEngine &Diag);

/// Status-returning form of compileThinJ: the frontend boundary of
/// the structured error model. Failure carries the phase that
/// rejected the source (ParseError / SemaError / VerifyError) and a
/// one-line summary; the full located diagnostics are in \p Diag
/// either way.
Expected<std::unique_ptr<Program>>
compileThinJChecked(std::string_view Source, DiagnosticEngine &Diag);

//===----------------------------------------------------------------------===//
// Incremental recompilation
//===----------------------------------------------------------------------===//

/// Lowers \p Decl's body into \p M, which must belong to \p P and have
/// had its previous body detached with takeBody(). Re-runs SSA and the
/// per-method verifier, and re-prepends the $clinit call when \p M is
/// the entry point. Returns false (with diagnostics in \p Diag) on any
/// semantic or verifier error; the method body is then in an unusable
/// state and the caller must fall back to a cold compile of the whole
/// unit.
bool relowerMethodBody(Program &P, Method &M, const MethodDeclAst &Decl,
                       DiagnosticEngine &Diag);

/// Outcome of applyIncrementalCompile().
struct IncrementalCompileResult {
  /// True when every dirty body was swapped in successfully; the
  /// program is now byte-equivalent to a cold compile of the new
  /// source. When false, Reason says why — and if RetiredBodies is
  /// non-empty the program was already mutated and must be discarded.
  bool Applied = false;
  std::string Reason;
  /// The relowered methods, in diff order.
  std::vector<Method *> DirtyMethods;
  /// Detached previous bodies, parallel to DirtyMethods. Keep these
  /// alive as long as any analysis artifact may hold the old Instr* /
  /// Local* pointers as (stale) map keys.
  std::vector<Method::DetachedBody> RetiredBodies;
};

/// Applies an eligible SourceDiff to \p P: reparses and relowers each
/// dirty function body in place and shifts retained instruction
/// source locations across line-count changes, so the program matches
/// a cold compile of the new source byte for byte.
IncrementalCompileResult
applyIncrementalCompile(Program &P, const SourceDiff &Diff);

} // namespace tsl

#endif // THINSLICER_LANG_LOWER_H
