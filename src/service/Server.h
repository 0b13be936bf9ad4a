//===-- Server.h - The thinsliced slice service -----------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-running slice daemon: a Unix-domain-socket accept loop
/// serving the Protocol.h request set from a registry of warm
/// AnalysisSessions. The paper's access pattern — a developer fires
/// many small interactive slice queries against one warm program
/// analysis — is a daemon's, not a batch tool's; this is the serving
/// layer that turns the library into that shape.
///
/// Execution model:
///
///  - One connection thread per client reads frames, executes each
///    request itself and writes responses in order. At most
///    ServerOptions::Threads requests execute at once (a lane count
///    the connection threads wait on), so slices from N clients on one
///    warm session genuinely run in parallel (shared lock on the
///    session entry) while edits wait for exclusivity.
///  - Admission control, not queueing: the server tracks in-flight
///    requests and answers RETRY the moment the bound is exceeded —
///    overload degrades into client backoff, never into unbounded
///    memory growth.
///  - One slice handler: a Slice or BatchSlice frame is one SliceQuery
///    run by the warm session's SliceEngine (one reentrant engine per
///    warm graph, shared by every reader); the two differ only in the
///    `=== seed line N ===` headers of a batch body.
///  - Per-request deadlines: a --request-budget-ms daemon option arms
///    a per-request AnalysisBudget whose gates (BudgetGate /
///    SharedBudgetGate in the batch engine) degrade the slice soundly;
///    the response frame carries the exit-code-style status (3) and
///    the reason, exactly like the one-shot CLI.
///  - Graceful drain: SIGTERM (via requestShutdown(), which is
///    async-signal-safe) or a Shutdown request stops the accept loop,
///    lets every in-flight request finish and flush its response, and
///    only then tears the registry down.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SERVICE_SERVER_H
#define THINSLICER_SERVICE_SERVER_H

#include "service/Protocol.h"
#include "service/Registry.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace tsl {

struct ServerOptions {
  std::string SocketPath;

  /// Requests executing at once (0 = hardware concurrency); admitted
  /// requests beyond it wait for a lane.
  unsigned Threads = 0;

  /// Passed to each warm session's AnalysisSession::setThreads. The
  /// daemon's slices run inline on their request's lane, so above 1
  /// this only starts the session pool's N-1 workers, which stay idle,
  /// and shows in the `parallelism:` stats line.
  unsigned AnalysisThreads = 1;

  /// In-flight request bound: the (N+1)-th concurrent request is
  /// answered RETRY instead of queued.
  std::size_t MaxQueue = 64;

  /// Warm sessions retained (LRU beyond).
  std::size_t MaxSessions = 8;

  /// Per-request wall-clock budget in ms (0 = ungoverned). Exhaustion
  /// degrades the slice soundly and the response says so (status 3).
  uint64_t RequestBudgetMs = 0;

  /// Content-addressed snapshot cache shared by all sessions: first
  /// load of a known workload warm-starts instead of rebuilding.
  std::string CacheDir;
};

/// Serving telemetry, rendered into Stats responses.
struct ServerStats {
  std::atomic<uint64_t> Accepted{0};  ///< Connections accepted.
  std::atomic<uint64_t> Requests{0};  ///< Frames decoded and served.
  std::atomic<uint64_t> Retries{0};   ///< RETRY responses (overload).
  std::atomic<uint64_t> BadFrames{0}; ///< Malformed/oversized frames.
  std::atomic<uint64_t> Edits{0};     ///< Edits that took a session lock.
  /// Time edits waited for their session's exclusive lock (readers in
  /// flight drain first): the total and the longest wait.
  std::atomic<uint64_t> EditWaitUs{0};
  std::atomic<uint64_t> EditWaitMaxUs{0};
};

/// The daemon. Construct, then run() until a shutdown request or
/// requestShutdown() drains it. One instance per process.
class SliceServer {
public:
  explicit SliceServer(ServerOptions O);
  ~SliceServer();

  SliceServer(const SliceServer &) = delete;
  SliceServer &operator=(const SliceServer &) = delete;

  /// Binds and listens on the socket path (replacing a stale socket
  /// file). Split from run() so callers can fail fast on a bad path
  /// before daemonizing/reporting readiness.
  Status listen();

  /// Blocking accept loop; returns 0 after a graceful drain. Call
  /// listen() first.
  int run();

  /// Begins a graceful drain: stop accepting, stop reading new
  /// frames, finish and flush every in-flight request, then return
  /// from run(). Callable from any thread. (Signal handlers should
  /// instead write() one byte to wakeFd(), which is async-signal-safe
  /// and triggers the same path.)
  void requestShutdown();

  /// Write end of the self-pipe run() polls: a 1-byte write triggers
  /// the same drain as requestShutdown(). Valid after listen().
  int wakeFd() const { return WakePipe[1]; }

  const ServerStats &stats() const { return Stats; }

private:
  struct Conn {
    int Fd = -1;
    std::thread Thread;
    std::atomic<bool> Done{false};
  };

  void connectionLoop(Conn &C);
  ServiceResponse handle(const ServiceRequest &Req);
  ServiceResponse handleLoad(const ServiceRequest &Req);
  ServiceResponse handleSlice(const ServiceRequest &Req);
  ServiceResponse handleEdit(const ServiceRequest &Req);
  ServiceResponse handleStats(const ServiceRequest &Req);
  void reapFinishedConnections();

  /// Blocks until a request-execution lane is free and takes it.
  void acquireLane();
  void releaseLane();

  ServerOptions O;
  SessionRegistry Registry;
  ServerStats Stats;

  int ListenFd = -1;
  int WakePipe[2] = {-1, -1};
  std::atomic<bool> Draining{false};
  std::atomic<std::size_t> InFlight{0};

  std::mutex LaneMu;
  std::condition_variable LaneCV;
  unsigned Lanes = 1;     ///< Resolved ServerOptions::Threads.
  unsigned BusyLanes = 0; ///< Guarded by LaneMu.

  std::mutex ConnMu;
  std::list<std::unique_ptr<Conn>> Conns;
};

} // namespace tsl

#endif // THINSLICER_SERVICE_SERVER_H
