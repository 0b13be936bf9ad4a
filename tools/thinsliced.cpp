//===-- thinsliced.cpp - The thin-slice daemon ----------------------------===//
//
// Long-running serving face of the library: listens on a Unix-domain
// socket and answers the service protocol (load-source, slice,
// batch-slice, edit, stats, shutdown) from a registry of warm
// AnalysisSessions. The paper's use case is a developer firing many
// small slice queries against one warm analysis; thinsliced keeps that
// analysis warm across processes and clients:
//
//   thinsliced --socket /tmp/tsl.sock &
//   thinslice prog.tsj --connect /tmp/tsl.sock --line 24
//   thinslice prog.tsj --connect /tmp/tsl.sock --interactive
//
// Concurrency: request execution fans out on a shared work-stealing
// pool; slices on one warm session run in parallel (readers) while
// edits are exclusive (writer). Overload is answered with RETRY
// (status 6), never queued unboundedly. SIGTERM/SIGINT drain: in-
// flight requests finish and flush their responses, then the daemon
// exits 0.
//
// Exit codes: 0 graceful drain, 1 cannot bind/listen, 2 usage error,
// 5 internal failure.
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"
#include "support/ParseInt.h"

#include <cstdio>
#include <cstring>

#include <signal.h>
#include <unistd.h>

using namespace tsl;

namespace {

SliceServer *ActiveServer = nullptr;

/// SIGTERM/SIGINT: one byte on the self-pipe, nothing else — write()
/// is async-signal-safe and the accept loop does the actual draining.
void onSignal(int) {
  if (ActiveServer)
    (void)!::write(ActiveServer->wakeFd(), "x", 1);
}

void usage() {
  fprintf(stderr,
          "usage: thinsliced --socket PATH [--threads N]\n"
          "                  [--analysis-threads N] [--max-queue N]\n"
          "                  [--max-sessions N] [--request-budget-ms N]\n"
          "                  [--cache-dir DIR]\n"
          "exit codes: 0 graceful drain, 1 bind/listen error, 2 usage,\n"
          "            5 internal failure\n");
}

template <typename T>
bool parsePositive(const char *Flag, const char *V, T &Out) {
  if (V && parsePositiveInt(V, Out))
    return true;
  fprintf(stderr, "error: %s expects a positive integer, got '%s'\n", Flag,
          V ? V : "");
  return false;
}

int runDaemon(int argc, char **argv) {
  ServerOptions Opts;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    uint64_t N;
    uint32_t N32;
    if (Arg == "--socket") {
      const char *V = Next();
      if (!V) {
        usage();
        return 2;
      }
      Opts.SocketPath = V;
    } else if (Arg == "--threads") {
      if (!parsePositive("--threads", Next(), N32))
        return 2;
      Opts.Threads = N32;
    } else if (Arg == "--analysis-threads") {
      if (!parsePositive("--analysis-threads", Next(), N32))
        return 2;
      Opts.AnalysisThreads = N32;
    } else if (Arg == "--max-queue") {
      if (!parsePositive("--max-queue", Next(), N))
        return 2;
      Opts.MaxQueue = static_cast<std::size_t>(N);
    } else if (Arg == "--max-sessions") {
      if (!parsePositive("--max-sessions", Next(), N))
        return 2;
      Opts.MaxSessions = static_cast<std::size_t>(N);
    } else if (Arg == "--request-budget-ms") {
      if (!parsePositive("--request-budget-ms", Next(), Opts.RequestBudgetMs))
        return 2;
    } else if (Arg == "--cache-dir") {
      const char *V = Next();
      if (!V) {
        usage();
        return 2;
      }
      Opts.CacheDir = V;
    } else {
      fprintf(stderr, "unknown option %s\n", Arg.c_str());
      usage();
      return 2;
    }
  }
  if (Opts.SocketPath.empty()) {
    usage();
    return 2;
  }

  const std::string SocketPath = Opts.SocketPath;
  SliceServer Server(std::move(Opts));
  Status S = Server.listen();
  if (!S.isOk()) {
    fprintf(stderr, "error: %s\n", S.str().c_str());
    return 1;
  }

  ActiveServer = &Server;
  struct sigaction SA = {};
  SA.sa_handler = onSignal;
  sigaction(SIGTERM, &SA, nullptr);
  sigaction(SIGINT, &SA, nullptr);
  signal(SIGPIPE, SIG_IGN);

  // Readiness line: scripts (and the tests) wait for it before
  // connecting. Flushed explicitly — the daemon may be piped.
  printf("thinsliced: listening on %s\n", SocketPath.c_str());
  fflush(stdout);

  int Rc = Server.run();
  ActiveServer = nullptr;
  return Rc;
}

} // namespace

int main(int argc, char **argv) {
  try {
    return runDaemon(argc, argv);
  } catch (const std::exception &E) {
    fprintf(stderr, "error: internal error: %s\n", E.what());
    return 5;
  } catch (...) {
    fprintf(stderr, "error: internal error: unknown exception\n");
    return 5;
  }
}
