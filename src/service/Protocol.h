//===-- Protocol.h - thinsliced wire protocol -------------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire protocol the `thinsliced` daemon speaks over its Unix-
/// domain socket. Every message — request or response — travels as one
/// length-prefixed frame:
///
///   u32 little-endian payload length  (rejected above
///                                      MaxServiceFrameBytes)
///   payload bytes                     (ByteWriter encoding, see
///                                      support/Serialize.h)
///
/// A request payload is `u8 protocol-version, u8 message type,
/// type-specific fields`; a response payload is `u8 protocol-version,
/// u8 status, str body, str detail`. The status byte mirrors the
/// thinslice exit-code taxonomy (0 complete, 1 file/compile error,
/// 2 bad request, 3 budget-degraded, 5 internal failure) plus the
/// serving-only code 6 RETRY: the server is overloaded or draining and
/// the client should back off and resend — the backpressure answer
/// that replaces unbounded queueing.
///
/// Decoding is strict: unknown versions, unknown message types,
/// non-boolean flag bytes, and trailing bytes after the last field are
/// all rejected with a Status (never an exception), so a malformed
/// frame can only ever produce a BadRequest response or a closed
/// connection, not a crashed daemon.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SERVICE_PROTOCOL_H
#define THINSLICER_SERVICE_PROTOCOL_H

#include "slicer/Slicer.h"
#include "support/Status.h"

#include <cstdint>
#include <string>
#include <vector>

namespace tsl {

/// Version byte leading every payload; bump on any wire change.
constexpr uint8_t ServiceProtocolVersion = 1;

/// Hard cap on one frame's payload. Large enough for any real source
/// file or rendered batch, small enough that a hostile length prefix
/// cannot make the daemon allocate unboundedly.
constexpr uint32_t MaxServiceFrameBytes = 8u << 20; // 8 MiB

/// Request message types.
enum class ServiceMsg : uint8_t {
  LoadSource = 1,   ///< Warm (or reuse) a session for a source text.
  LoadSnapshot = 2, ///< LoadSource + warm-start from a snapshot file.
  Slice = 3,        ///< One backward slice on a warm session.
  BatchSlice = 4,   ///< N backward slices (engine-batched when N > 1).
  Edit = 5,         ///< Replace a session's source (incremental path).
  Stats = 6,        ///< Session + server telemetry.
  Ping = 7,         ///< Health check; optional server-side delay.
  Shutdown = 8,     ///< Ask the daemon to drain and exit.
};

/// Response status codes: the thinslice exit codes, plus Retry and
/// NotFound (which the tool maps to exit 1).
enum class ServiceStatus : uint8_t {
  Ok = 0,         ///< Complete result.
  Error = 1,      ///< File/compile error (diagnostics in Detail).
  BadRequest = 2, ///< Malformed or unanswerable request.
  Degraded = 3,   ///< Sound but budget-degraded result.
  Internal = 5,   ///< A stage crashed and exhausted its retries.
  Retry = 6,      ///< Overloaded or draining: back off and resend.
  NotFound = 7,   ///< A requested line carries no statement.
};

const char *serviceStatusName(ServiceStatus S);

/// One decoded request. Fields are meaningful per type (see the
/// codec); unused fields stay default.
struct ServiceRequest {
  ServiceMsg Type = ServiceMsg::Ping;
  std::string Source;    ///< LoadSource/LoadSnapshot/Edit: full text.
  std::string Path;      ///< LoadSnapshot: daemon-local snapshot file.
  std::string SessionId; ///< Slice/BatchSlice/Edit/Stats.
  std::vector<uint32_t> Lines; ///< Slice (one) / BatchSlice (many).
  uint32_t LineOffset = 0;     ///< Runtime-prefix lines in Source.
  SliceMode Mode = SliceMode::Thin;
  bool ContextSensitive = false; ///< Session flavor (part of its key).
  bool Incremental = false;      ///< Enable the incremental edit path.
  uint32_t DelayMs = 0;          ///< Ping: server-side busy time.
};

/// One decoded response.
struct ServiceResponse {
  ServiceStatus Code = ServiceStatus::Ok;
  std::string Body;   ///< Rendered result / session id / stats text.
  std::string Detail; ///< Degradation reason, diagnostics, or note.
};

std::vector<uint8_t> encodeRequest(const ServiceRequest &R);
std::vector<uint8_t> encodeResponse(const ServiceResponse &R);

/// Strict decoders: Ok and a fully populated \p Out, or a Status
/// naming the first malformation. Never throw.
Status decodeRequest(const std::vector<uint8_t> &Payload,
                     ServiceRequest &Out);
Status decodeResponse(const std::vector<uint8_t> &Payload,
                      ServiceResponse &Out);

/// Outcome of reading one frame off a socket.
struct FrameRead {
  enum Kind {
    Ok,       ///< Payload holds one complete frame.
    Eof,      ///< Clean close before any header byte.
    TooLarge, ///< Header names a payload above the cap (not read).
    Error,    ///< Truncated frame, empty frame, or a socket error.
  } K = Error;
  std::vector<uint8_t> Payload;
  uint32_t ClaimedLen = 0; ///< TooLarge: the offending length.
  std::string Err;         ///< Error: what went wrong.
};

/// Blocking frame read. Retries EINTR; never throws.
FrameRead readFrame(int Fd, uint32_t MaxBytes = MaxServiceFrameBytes);

/// Blocking frame write (header + payload). Uses MSG_NOSIGNAL so a
/// peer that vanished yields an error Status, not SIGPIPE.
Status writeFrame(int Fd, const std::vector<uint8_t> &Payload);

} // namespace tsl

#endif // THINSLICER_SERVICE_PROTOCOL_H
