//===-- Status.h - Structured error model -----------------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured error model every pipeline boundary speaks. Library
/// code never calls exit()/abort() and never lets an exception escape
/// a module edge: failures cross boundaries as a Status (code +
/// message), and fallible producers return Expected<T> — either the
/// value or the Status explaining its absence. Exceptions remain an
/// *intra*-stage implementation detail (ThreadPool::parallelFor
/// rethrows a lane's exception on the calling stage); the stage boundary
/// — AnalysisSession, SliceEngine, the interpreter, the CLI — is
/// where they are converted. See DESIGN.md section 12 for the policy.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SUPPORT_STATUS_H
#define THINSLICER_SUPPORT_STATUS_H

#include <optional>
#include <string>
#include <utility>

namespace tsl {

/// Coarse failure taxonomy. The code picks the CLI exit code and the
/// retry policy (only Internal / FaultInjected stage failures are
/// retried; user errors like ParseError never are).
enum class StatusCode : unsigned char {
  Ok = 0,
  InvalidArgument,   ///< Caller error: bad seed, bad option value.
  NotFound,          ///< Missing file, missing statement at a line.
  ParseError,        ///< Source has syntax errors (diagnostics carry them).
  SemaError,         ///< Source has semantic errors.
  VerifyError,       ///< Lowered IR failed the verifier gate.
  ResourceExhausted, ///< Budget/deadline refusal (not sound degradation).
  Cancelled,         ///< Watchdog or caller cancelled the computation.
  FaultInjected,     ///< An armed chaos fault crashed the stage.
  Internal,          ///< Unexpected exception escaping a stage.
};

const char *statusCodeName(StatusCode C);

/// One failure crossing a module boundary: code + human-readable
/// message. Ok statuses are cheap (no allocation).
class Status {
public:
  Status() = default; ///< Ok.
  Status(StatusCode Code, std::string Message)
      : Code(Code), Message(std::move(Message)) {}

  static Status ok() { return Status(); }

  bool isOk() const { return Code == StatusCode::Ok; }
  StatusCode code() const { return Code; }
  const std::string &message() const { return Message; }

  /// "parse-error: expected ';' after statement" (or "ok").
  std::string str() const;

  bool operator==(const Status &RHS) const {
    return Code == RHS.Code && Message == RHS.Message;
  }

private:
  StatusCode Code = StatusCode::Ok;
  std::string Message;
};

/// Value-or-Status. The result type of every fallible boundary call:
/// callers test ok() and either consume value() or propagate/report
/// status(). Deliberately minimal — no exceptions, no monadic sugar.
template <typename T> class Expected {
public:
  Expected(T Value) : Value(std::move(Value)) {}
  Expected(Status S) : Err(std::move(S)) {}
  Expected(StatusCode Code, std::string Message)
      : Err(Code, std::move(Message)) {}

  bool ok() const { return Value.has_value(); }
  explicit operator bool() const { return ok(); }

  /// Only valid when ok().
  T &value() { return *Value; }
  const T &value() const { return *Value; }
  T &operator*() { return *Value; }
  const T &operator*() const { return *Value; }

  /// Ok when the value is present.
  const Status &status() const { return Err; }

private:
  std::optional<T> Value;
  Status Err;
};

} // namespace tsl

#endif // THINSLICER_SUPPORT_STATUS_H
