//===-- Server.cpp - The thinsliced slice service -------------------------===//

#include "service/Server.h"

#include "slicer/Engine.h"
#include "slicer/Report.h"
#include "support/Budget.h"

#include <cerrno>
#include <cstdio>
#include <chrono>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace tsl;

SliceServer::SliceServer(ServerOptions Opts)
    : O(std::move(Opts)),
      Registry(SessionRegistry::Options{O.MaxSessions, O.AnalysisThreads,
                                        O.CacheDir}) {
  Lanes = O.Threads ? O.Threads : std::thread::hardware_concurrency();
  if (Lanes == 0)
    Lanes = 1;
}

SliceServer::~SliceServer() {
  if (ListenFd >= 0)
    ::close(ListenFd);
  for (int Fd : WakePipe)
    if (Fd >= 0)
      ::close(Fd);
}

Status SliceServer::listen() {
  sockaddr_un Addr{};
  if (O.SocketPath.empty() ||
      O.SocketPath.size() >= sizeof(Addr.sun_path))
    return Status(StatusCode::InvalidArgument,
                  "socket path empty or longer than " +
                      std::to_string(sizeof(Addr.sun_path) - 1) +
                      " bytes: '" + O.SocketPath + "'");
  if (::pipe(WakePipe) != 0)
    return Status(StatusCode::Internal,
                  std::string("pipe: ") + strerror(errno));
  ListenFd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (ListenFd < 0)
    return Status(StatusCode::Internal,
                  std::string("socket: ") + strerror(errno));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, O.SocketPath.c_str(), O.SocketPath.size() + 1);
  // A previous daemon's stale socket file would make bind fail
  // forever; replacing it is the conventional daemon behavior.
  ::unlink(O.SocketPath.c_str());
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
             sizeof(Addr)) != 0)
    return Status(StatusCode::Internal, "bind " + O.SocketPath + ": " +
                                            strerror(errno));
  if (::listen(ListenFd, 128) != 0)
    return Status(StatusCode::Internal,
                  std::string("listen: ") + strerror(errno));
  return Status::ok();
}

void SliceServer::requestShutdown() {
  // One byte on the self-pipe; run() observes it at its next poll.
  // write() is async-signal-safe, so signal handlers can use the same
  // mechanism directly through wakeFd().
  char B = 1;
  if (WakePipe[1] >= 0)
    (void)!::write(WakePipe[1], &B, 1);
}

void SliceServer::acquireLane() {
  std::unique_lock<std::mutex> L(LaneMu);
  LaneCV.wait(L, [this] { return BusyLanes < Lanes; });
  ++BusyLanes;
}

void SliceServer::releaseLane() {
  {
    std::lock_guard<std::mutex> L(LaneMu);
    --BusyLanes;
  }
  LaneCV.notify_one();
}

void SliceServer::reapFinishedConnections() {
  std::lock_guard<std::mutex> L(ConnMu);
  for (auto It = Conns.begin(); It != Conns.end();) {
    if ((*It)->Done.load(std::memory_order_acquire)) {
      (*It)->Thread.join();
      It = Conns.erase(It);
    } else {
      ++It;
    }
  }
}

int SliceServer::run() {
  for (;;) {
    pollfd Fds[2] = {{ListenFd, POLLIN, 0}, {WakePipe[0], POLLIN, 0}};
    int R = ::poll(Fds, 2, -1);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (Fds[1].revents) // Drain requested.
      break;
    if (!(Fds[0].revents & POLLIN))
      continue;
    int Client = ::accept4(ListenFd, nullptr, nullptr, SOCK_CLOEXEC);
    if (Client < 0)
      continue;
    Stats.Accepted.fetch_add(1, std::memory_order_relaxed);
    reapFinishedConnections();
    auto C = std::make_unique<Conn>();
    C->Fd = Client;
    Conn *Raw = C.get();
    {
      std::lock_guard<std::mutex> L(ConnMu);
      Conns.push_back(std::move(C));
    }
    Raw->Thread = std::thread([this, Raw] { connectionLoop(*Raw); });
  }

  // Graceful drain: stop accepting, unblock idle readers, let busy
  // ones finish their in-flight request and flush its response.
  Draining.store(true, std::memory_order_release);
  ::close(ListenFd);
  ListenFd = -1;
  ::unlink(O.SocketPath.c_str());
  {
    std::lock_guard<std::mutex> L(ConnMu);
    for (auto &C : Conns)
      ::shutdown(C->Fd, SHUT_RD);
  }
  for (;;) {
    std::unique_ptr<Conn> C;
    {
      std::lock_guard<std::mutex> L(ConnMu);
      if (Conns.empty())
        break;
      C = std::move(Conns.front());
      Conns.pop_front();
    }
    C->Thread.join();
  }
  return 0;
}

void SliceServer::connectionLoop(Conn &C) {
  auto Respond = [&C](const ServiceResponse &Resp) {
    return writeFrame(C.Fd, encodeResponse(Resp)).isOk();
  };

  for (;;) {
    FrameRead F = readFrame(C.Fd);
    if (F.K == FrameRead::Eof)
      break;
    if (F.K == FrameRead::Error) {
      // Truncated frame or mid-request disconnect: the stream is not
      // at a frame boundary any more, so the only safe move is to
      // hang up. The daemon itself stays healthy.
      Stats.BadFrames.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    if (F.K == FrameRead::TooLarge) {
      Stats.BadFrames.fetch_add(1, std::memory_order_relaxed);
      (void)Respond({ServiceStatus::BadRequest, "",
                     "frame of " + std::to_string(F.ClaimedLen) +
                         " bytes exceeds the " +
                         std::to_string(MaxServiceFrameBytes) +
                         "-byte cap"});
      break; // The oversized payload was never read: desynced.
    }

    ServiceRequest Req;
    Status D = decodeRequest(F.Payload, Req);
    if (!D.isOk()) {
      // The frame boundary itself was intact, so the connection can
      // keep going after rejecting the bad payload.
      Stats.BadFrames.fetch_add(1, std::memory_order_relaxed);
      if (!Respond({ServiceStatus::BadRequest, "", D.message()}))
        break;
      continue;
    }

    Stats.Requests.fetch_add(1, std::memory_order_relaxed);

    if (Req.Type == ServiceMsg::Shutdown) {
      // Acknowledge first (the client deserves to see the drain
      // happen), then trigger the same path as SIGTERM.
      (void)Respond({ServiceStatus::Ok, "draining", ""});
      requestShutdown();
      continue;
    }

    if (Draining.load(std::memory_order_acquire)) {
      if (!Respond({ServiceStatus::Retry, "", "server is draining"}))
        break;
      continue;
    }

    // Admission control: the bounded "queue" is the in-flight count.
    // Overflow answers RETRY immediately — no request is ever parked
    // in an unbounded buffer waiting for capacity.
    std::size_t Current = InFlight.fetch_add(1, std::memory_order_acq_rel);
    if (Current >= O.MaxQueue) {
      InFlight.fetch_sub(1, std::memory_order_acq_rel);
      Stats.Retries.fetch_add(1, std::memory_order_relaxed);
      if (!Respond({ServiceStatus::Retry, "",
                    "server overloaded (" + std::to_string(Current) +
                        " requests in flight, bound " +
                        std::to_string(O.MaxQueue) + ")"}))
        break;
      continue;
    }

    // Admitted requests beyond the lane count wait here, on their own
    // connection thread, and count as in flight while they wait.
    ServiceResponse Resp;
    acquireLane();
    try {
      Resp = handle(Req);
    } catch (const std::exception &E) {
      Resp = {ServiceStatus::Internal, "", E.what()};
    } catch (...) {
      Resp = {ServiceStatus::Internal, "", "unknown exception"};
    }
    releaseLane();
    InFlight.fetch_sub(1, std::memory_order_acq_rel);

    if (!Respond(Resp))
      break; // Client vanished mid-response; nothing left to do.
  }

  ::close(C.Fd);
  C.Done.store(true, std::memory_order_release);
}

//===----------------------------------------------------------------------===//
// Request handlers (run on the connection thread, holding a lane)
//===----------------------------------------------------------------------===//

ServiceResponse SliceServer::handle(const ServiceRequest &Req) {
  switch (Req.Type) {
  case ServiceMsg::LoadSource:
  case ServiceMsg::LoadSnapshot:
    return handleLoad(Req);
  case ServiceMsg::Slice:
  case ServiceMsg::BatchSlice:
    return handleSlice(Req);
  case ServiceMsg::Edit:
    return handleEdit(Req);
  case ServiceMsg::Stats:
    return handleStats(Req);
  case ServiceMsg::Ping:
    if (Req.DelayMs)
      std::this_thread::sleep_for(std::chrono::milliseconds(Req.DelayMs));
    return {ServiceStatus::Ok, "pong", ""};
  case ServiceMsg::Shutdown:
    break; // Handled on the connection thread.
  }
  return {ServiceStatus::BadRequest, "", "unhandled message type"};
}

ServiceResponse SliceServer::handleLoad(const ServiceRequest &Req) {
  if (Req.Source.empty())
    return {ServiceStatus::BadRequest, "", "empty source"};
  std::string Note;
  auto E = Registry.acquire(Req.Source, Req.ContextSensitive,
                            Req.LineOffset, Req.Incremental,
                            Req.Type == ServiceMsg::LoadSnapshot ? Req.Path
                                                                 : "",
                            Note);
  std::shared_lock<std::shared_mutex> L(E->Mu);
  if (!E->Prog)
    return {ServiceStatus::Error, E->Id, E->CompileErrors};
  if (!E->Engine)
    return {ServiceStatus::Internal, E->Id, E->StageError};
  return {ServiceStatus::Ok, E->Id, Note};
}

namespace {

/// Per-request governance: a budget armed from the daemon option, or
/// null for ungoverned requests (the zero-overhead default).
struct RequestBudget {
  explicit RequestBudget(uint64_t Ms) {
    if (Ms) {
      Budget.BudgetMs = Ms;
      Budget.start();
      B = &Budget;
    }
  }
  AnalysisBudget Budget;
  const AnalysisBudget *B = nullptr;
};

/// Shared entry validation: null when usable, a response otherwise.
/// Caller must hold the entry's lock (shared suffices).
bool entryUsable(const WarmSession &E, ServiceResponse &Resp) {
  if (!E.Prog) {
    Resp = {ServiceStatus::Error, "",
            E.CompileErrors.empty() ? "program does not compile"
                                    : E.CompileErrors};
    return false;
  }
  if (!E.Engine) {
    Resp = {ServiceStatus::Internal, "", E.StageError};
    return false;
  }
  return true;
}

} // namespace

ServiceResponse SliceServer::handleSlice(const ServiceRequest &Req) {
  auto E = Registry.find(Req.SessionId);
  if (!E)
    return {ServiceStatus::BadRequest, "",
            "unknown session '" + Req.SessionId + "' (load-source first)"};

  // Readers share the session: concurrent slices run in parallel over
  // the immutable SDG while an edit waits for exclusivity.
  std::shared_lock<std::shared_mutex> L(E->Mu);
  ServiceResponse Bad;
  if (!entryUsable(*E, Bad))
    return Bad;

  // A Slice frame asks for its first line (0 when it has none); a
  // BatchSlice frame for all of them, each answer under a header.
  const bool Batch = Req.Type == ServiceMsg::BatchSlice;
  std::vector<uint32_t> Lines = Req.Lines;
  if (!Batch)
    Lines.assign(1, Req.Lines.empty() ? 0 : Req.Lines.front());
  // Every line is resolved before any answer, as in process: the reply
  // names each bad line, one per Detail line, and a line out of range
  // (BadRequest) outranks a line without statements (NotFound).
  SliceQuery Q = SliceQuery::backward({}, Req.Mode, E->ContextSensitive);
  ServiceResponse Unresolved{ServiceStatus::NotFound, "", ""};
  for (uint32_t UserLine : Lines) {
    Expected<const Instr *> Seed =
        seedForUserLine(*E->Prog, UserLine, E->LineOffset);
    if (Seed) {
      Q.Seeds.push_back(*Seed);
      continue;
    }
    if (Seed.status().code() != StatusCode::NotFound)
      Unresolved.Code = ServiceStatus::BadRequest;
    if (!Unresolved.Detail.empty())
      Unresolved.Detail += '\n';
    Unresolved.Detail += Seed.status().message();
  }
  if (!Unresolved.Detail.empty())
    return Unresolved;

  RequestBudget RB(O.RequestBudgetMs);
  Q.Budget = RB.B;
  // A batch runs inline on this request's lane (the request fan-out IS
  // the parallelism) on the session's engine, which is reentrant. The
  // session's SummaryCache is thread-safe; the exclusive edit path
  // clears it with a graph.
  Q.Jobs = 1;
  Q.Summaries = E->ContextSensitive ? &E->S->summaries() : nullptr;
  std::vector<SliceResult> Results = E->Engine->run(Q).Results;

  ServiceResponse Resp;
  Resp.Body = Batch ? renderSliceBatch(Results, Q.label(), Lines,
                                       E->LineOffset)
                    : renderSliceReport(Results.front(), Q.label(),
                                        Lines.front(), E->LineOffset);
  for (const SliceResult &R : Results)
    if (!R.complete()) {
      Resp.Code = ServiceStatus::Degraded;
      Resp.Detail = R.degradedReason();
      break;
    }
  return Resp;
}

ServiceResponse SliceServer::handleEdit(const ServiceRequest &Req) {
  auto E = Registry.find(Req.SessionId);
  if (!E)
    return {ServiceStatus::BadRequest, "",
            "unknown session '" + Req.SessionId + "' (load-source first)"};
  if (Req.Source.empty())
    return {ServiceStatus::BadRequest, "", "empty source"};

  // Writers are exclusive: every in-flight slice finishes before the
  // artifacts move, and no slice starts until the edit re-warmed them.
  const auto WaitStart = std::chrono::steady_clock::now();
  std::unique_lock<std::shared_mutex> L(E->Mu);
  const uint64_t WaitUs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - WaitStart)
          .count());
  Stats.Edits.fetch_add(1, std::memory_order_relaxed);
  Stats.EditWaitUs.fetch_add(WaitUs, std::memory_order_relaxed);
  uint64_t MaxUs = Stats.EditWaitMaxUs.load(std::memory_order_relaxed);
  while (WaitUs > MaxUs && !Stats.EditWaitMaxUs.compare_exchange_weak(
                              MaxUs, WaitUs, std::memory_order_relaxed)) {
  }
  uint64_t AppliedBefore = E->S->incrementalStats().Applied;
  E->S->setSource(Req.Source);
  SessionRegistry::refreshWarmPointers(*E);
  if (!E->Prog)
    return {ServiceStatus::Error, E->Id, E->CompileErrors};
  if (!E->Engine)
    return {ServiceStatus::Internal, E->Id, E->StageError};
  bool Incremental = E->S->incrementalStats().Applied > AppliedBefore;
  return {ServiceStatus::Ok, E->Id,
          Incremental ? "incremental" : "cold rebuild"};
}

ServiceResponse SliceServer::handleStats(const ServiceRequest &Req) {
  auto E = Registry.find(Req.SessionId);
  if (!E)
    return {ServiceStatus::BadRequest, "",
            "unknown session '" + Req.SessionId + "' (load-source first)"};

  // Sampled before taking the entry lock: size() takes the registry
  // map mutex, and acquire() locks fresh entries while holding it —
  // holding the entry lock across size() would invert that order.
  const std::size_t WarmSessions = Registry.size();

  // Like every request that calls into the session (rather than only
  // reading its warm pointers), stats holds the entry exclusively.
  std::unique_lock<std::shared_mutex> L(E->Mu);
  std::string Body = E->S ? E->S->statsString() : "";
  Body += "server: " +
          std::to_string(Stats.Requests.load(std::memory_order_relaxed)) +
          " requests, " +
          std::to_string(Stats.Accepted.load(std::memory_order_relaxed)) +
          " connections, " +
          std::to_string(Stats.Retries.load(std::memory_order_relaxed)) +
          " retries, " +
          std::to_string(Stats.BadFrames.load(std::memory_order_relaxed)) +
          " bad frames, " + std::to_string(WarmSessions) +
          " warm sessions\n";
  char Wait[128];
  snprintf(Wait, sizeof(Wait),
           "server: %llu edits, edit lock wait %.3f ms total, %.3f ms max\n",
           static_cast<unsigned long long>(
               Stats.Edits.load(std::memory_order_relaxed)),
           Stats.EditWaitUs.load(std::memory_order_relaxed) / 1000.0,
           Stats.EditWaitMaxUs.load(std::memory_order_relaxed) / 1000.0);
  Body += Wait;
  return {ServiceStatus::Ok, Body, ""};
}
