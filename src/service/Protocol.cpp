//===-- Protocol.cpp - thinsliced wire protocol ---------------------------===//

#include "service/Protocol.h"

#include "support/Serialize.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

using namespace tsl;

const char *tsl::serviceStatusName(ServiceStatus S) {
  switch (S) {
  case ServiceStatus::Ok:
    return "ok";
  case ServiceStatus::Error:
    return "error";
  case ServiceStatus::BadRequest:
    return "bad-request";
  case ServiceStatus::Degraded:
    return "degraded";
  case ServiceStatus::Internal:
    return "internal";
  case ServiceStatus::Retry:
    return "retry";
  case ServiceStatus::NotFound:
    return "not-found";
  }
  return "?";
}

namespace {

/// Strict bool byte: anything but 0/1 is a malformed frame.
bool readFlag(ByteReader &R, bool &Out) {
  uint8_t V = R.u8();
  if (V > 1)
    return false;
  Out = V != 0;
  return true;
}

Status badFrame(const std::string &What) {
  return Status(StatusCode::InvalidArgument, "malformed frame: " + What);
}

} // namespace

std::vector<uint8_t> tsl::encodeRequest(const ServiceRequest &R) {
  ByteWriter W;
  W.u8(ServiceProtocolVersion);
  W.u8(static_cast<uint8_t>(R.Type));
  switch (R.Type) {
  case ServiceMsg::LoadSource:
  case ServiceMsg::LoadSnapshot:
    W.str(R.Source);
    W.vu32(R.LineOffset);
    W.u8(R.ContextSensitive ? 1 : 0);
    W.u8(R.Incremental ? 1 : 0);
    if (R.Type == ServiceMsg::LoadSnapshot)
      W.str(R.Path);
    break;
  case ServiceMsg::Slice:
    W.str(R.SessionId);
    W.vu32(R.Lines.empty() ? 0 : R.Lines.front());
    W.u8(R.Mode == SliceMode::Traditional ? 1 : 0);
    break;
  case ServiceMsg::BatchSlice:
    W.str(R.SessionId);
    W.u8(R.Mode == SliceMode::Traditional ? 1 : 0);
    W.vu32(static_cast<uint32_t>(R.Lines.size()));
    for (uint32_t L : R.Lines)
      W.vu32(L);
    break;
  case ServiceMsg::Edit:
    W.str(R.SessionId);
    W.str(R.Source);
    break;
  case ServiceMsg::Stats:
    W.str(R.SessionId);
    break;
  case ServiceMsg::Ping:
    W.vu32(R.DelayMs);
    break;
  case ServiceMsg::Shutdown:
    break;
  }
  return W.buffer();
}

Status tsl::decodeRequest(const std::vector<uint8_t> &Payload,
                          ServiceRequest &Out) {
  try {
    ByteReader R(Payload);
    uint8_t Version = R.u8();
    if (Version != ServiceProtocolVersion)
      return badFrame("protocol version " + std::to_string(Version) +
                      " (expected " + std::to_string(ServiceProtocolVersion) +
                      ")");
    uint8_t TypeByte = R.u8();
    if (TypeByte < static_cast<uint8_t>(ServiceMsg::LoadSource) ||
        TypeByte > static_cast<uint8_t>(ServiceMsg::Shutdown))
      return badFrame("unknown message type " + std::to_string(TypeByte));
    ServiceRequest Req;
    Req.Type = static_cast<ServiceMsg>(TypeByte);
    bool FlagOk = true;
    switch (Req.Type) {
    case ServiceMsg::LoadSource:
    case ServiceMsg::LoadSnapshot: {
      Req.Source = R.str();
      Req.LineOffset = R.vu32();
      FlagOk = readFlag(R, Req.ContextSensitive) &&
               readFlag(R, Req.Incremental);
      if (Req.Type == ServiceMsg::LoadSnapshot)
        Req.Path = R.str();
      break;
    }
    case ServiceMsg::Slice: {
      Req.SessionId = R.str();
      Req.Lines.push_back(R.vu32());
      uint8_t M = R.u8();
      if (M > 1)
        FlagOk = false;
      Req.Mode = M ? SliceMode::Traditional : SliceMode::Thin;
      break;
    }
    case ServiceMsg::BatchSlice: {
      Req.SessionId = R.str();
      uint8_t M = R.u8();
      if (M > 1)
        FlagOk = false;
      Req.Mode = M ? SliceMode::Traditional : SliceMode::Thin;
      uint32_t N = R.vu32();
      if (N == 0 || N > 100000)
        return badFrame("batch of " + std::to_string(N) + " seeds");
      Req.Lines.reserve(N);
      for (uint32_t I = 0; I != N; ++I)
        Req.Lines.push_back(R.vu32());
      break;
    }
    case ServiceMsg::Edit:
      Req.SessionId = R.str();
      Req.Source = R.str();
      break;
    case ServiceMsg::Stats:
      Req.SessionId = R.str();
      break;
    case ServiceMsg::Ping:
      Req.DelayMs = R.vu32();
      break;
    case ServiceMsg::Shutdown:
      break;
    }
    if (!FlagOk)
      return badFrame("non-boolean flag byte");
    if (!R.atEnd())
      return badFrame(std::to_string(R.remaining()) +
                      " trailing bytes after last field");
    Out = std::move(Req);
    return Status::ok();
  } catch (const SerializeError &E) {
    return badFrame(E.what());
  }
}

std::vector<uint8_t> tsl::encodeResponse(const ServiceResponse &R) {
  ByteWriter W;
  W.u8(ServiceProtocolVersion);
  W.u8(static_cast<uint8_t>(R.Code));
  W.str(R.Body);
  W.str(R.Detail);
  return W.buffer();
}

Status tsl::decodeResponse(const std::vector<uint8_t> &Payload,
                           ServiceResponse &Out) {
  try {
    ByteReader R(Payload);
    uint8_t Version = R.u8();
    if (Version != ServiceProtocolVersion)
      return badFrame("protocol version " + std::to_string(Version));
    uint8_t Code = R.u8();
    switch (static_cast<ServiceStatus>(Code)) {
    case ServiceStatus::Ok:
    case ServiceStatus::Error:
    case ServiceStatus::BadRequest:
    case ServiceStatus::Degraded:
    case ServiceStatus::Internal:
    case ServiceStatus::Retry:
    case ServiceStatus::NotFound:
      break;
    default:
      return badFrame("unknown status code " + std::to_string(Code));
    }
    ServiceResponse Resp;
    Resp.Code = static_cast<ServiceStatus>(Code);
    Resp.Body = R.str();
    Resp.Detail = R.str();
    if (!R.atEnd())
      return badFrame("trailing bytes after response");
    Out = std::move(Resp);
    return Status::ok();
  } catch (const SerializeError &E) {
    return badFrame(E.what());
  }
}

//===----------------------------------------------------------------------===//
// Socket framing
//===----------------------------------------------------------------------===//

namespace {

/// recv() exactly \p N bytes. Returns N on success, 0 on clean EOF at
/// the first byte, -1 on error or mid-buffer EOF.
ssize_t recvExact(int Fd, void *Buf, std::size_t N) {
  uint8_t *P = static_cast<uint8_t *>(Buf);
  std::size_t Got = 0;
  while (Got < N) {
    ssize_t R = ::recv(Fd, P + Got, N - Got, 0);
    if (R == 0)
      return Got == 0 ? 0 : -1;
    if (R < 0) {
      if (errno == EINTR)
        continue;
      return -1;
    }
    Got += static_cast<std::size_t>(R);
  }
  return static_cast<ssize_t>(Got);
}

bool sendAll(int Fd, const void *Buf, std::size_t N) {
  const uint8_t *P = static_cast<const uint8_t *>(Buf);
  std::size_t Sent = 0;
  while (Sent < N) {
    ssize_t R = ::send(Fd, P + Sent, N - Sent, MSG_NOSIGNAL);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Sent += static_cast<std::size_t>(R);
  }
  return true;
}

} // namespace

FrameRead tsl::readFrame(int Fd, uint32_t MaxBytes) {
  FrameRead F;
  uint8_t Header[4];
  ssize_t R = recvExact(Fd, Header, sizeof(Header));
  if (R == 0) {
    F.K = FrameRead::Eof;
    return F;
  }
  if (R < 0) {
    F.K = FrameRead::Error;
    F.Err = "truncated frame header";
    return F;
  }
  uint32_t Len = 0;
  for (int I = 0; I != 4; ++I)
    Len |= static_cast<uint32_t>(Header[I]) << (8 * I);
  if (Len == 0) {
    F.K = FrameRead::Error;
    F.Err = "empty frame";
    return F;
  }
  if (Len > MaxBytes) {
    F.K = FrameRead::TooLarge;
    F.ClaimedLen = Len;
    return F;
  }
  F.Payload.resize(Len);
  if (recvExact(Fd, F.Payload.data(), Len) != static_cast<ssize_t>(Len)) {
    F.K = FrameRead::Error;
    F.Err = "truncated frame payload (" + std::to_string(Len) +
            " bytes claimed)";
    F.Payload.clear();
    return F;
  }
  F.K = FrameRead::Ok;
  return F;
}

Status tsl::writeFrame(int Fd, const std::vector<uint8_t> &Payload) {
  if (Payload.empty() || Payload.size() > MaxServiceFrameBytes)
    return Status(StatusCode::InvalidArgument,
                  "refusing to write a frame of " +
                      std::to_string(Payload.size()) + " bytes");
  uint8_t Header[4];
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  for (int I = 0; I != 4; ++I)
    Header[I] = static_cast<uint8_t>(Len >> (8 * I));
  if (!sendAll(Fd, Header, sizeof(Header)) ||
      !sendAll(Fd, Payload.data(), Payload.size()))
    return Status(StatusCode::Internal,
                  std::string("socket write failed: ") + strerror(errno));
  return Status::ok();
}
