//===-- thinslice.cpp - Command-line thin slicer --------------------------------==//
//
// The tool face of the library: compile a ThinJ source file, slice
// from a source line, and print the result — the workflow the paper's
// evaluation simulates (CodeSurfer-style dependence browsing).
//
//   thinslice prog.tsj --line 24                  thin slice
//   thinslice prog.tsj --line 24 --mode trad      traditional slice
//   thinslice prog.tsj --line 24 --alias-depth 1  one aliasing level
//   thinslice prog.tsj --line 24 --expand         fixpoint (= traditional)
//   thinslice prog.tsj --line 24 --forward        forward thin slice
//   thinslice prog.tsj --line 3 --chop 24         thin chop 3 -> 24
//   thinslice prog.tsj --line 24 --context-sensitive
//   thinslice prog.tsj --seeds seeds.txt --threads 4    batched slicing
//   thinslice prog.tsj --run --int 1 --in "John Doe"
//   thinslice prog.tsj --line 24 --dot slice.dot
//   thinslice prog.tsj --dump-ir / --stats
//   thinslice prog.tsj --line 24 --budget-ms 50
//   thinslice prog.tsj --interactive               warm-session REPL
//   thinslice prog.tsj --line 24 --save-snapshot s.tslsnap
//   thinslice prog.tsj --line 24 --load-snapshot s.tslsnap
//   thinslice prog.tsj --line 24 --cache-dir .tsl-cache
//
// All analysis artifacts are owned by an AnalysisSession (see
// pipeline/Session.h): the one-shot paths request them once, and
// --interactive answers repeated `slice <line>` queries against the
// same warm session — identical re-queries are full cache hits, which
// `--stats` (or the interactive `stats` command) makes observable.
//
// Exit codes: 0 success (complete result), 1 file/compile/write error,
// 2 usage error, 3 budget-degraded result, 4 degraded result refused
// by --strict-budget, 5 internal/stage failure (a stage crashed and
// exhausted its retries — distinct from a compile error and from sound
// degradation).
//
//===----------------------------------------------------------------------===//

#include "dyn/Interp.h"
#include "eval/Runtime.h"
#include "ir/IRPrinter.h"
#include "lang/Lower.h"
#include "modref/ModRef.h"
#include "pipeline/Session.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"
#include "sdg/SDGDot.h"
#include "slicer/Engine.h"
#include "slicer/Report.h"

#include "service/Client.h"
#include "support/Budget.h"
#include "support/ParseInt.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace tsl;

namespace {

struct CliOptions {
  std::string File;
  unsigned Line = 0;
  unsigned ChopSink = 0;
  /// The query the flags name; seeds and sink resolve after compiling.
  SliceQuery Query;
  bool NoObjSens = false;
  bool Run = false;
  /// Batched slicing: a file of seed line numbers, fanned out over a
  /// worker pool.
  std::string SeedsFile;
  /// Batched-slicing concurrency (the analyses themselves run
  /// sequentially): total threads including the main one.
  /// 0 = hardware_concurrency; 1 = fully sequential, no pool.
  unsigned Threads = 0;
  /// Warm-session REPL: answer repeated `slice <line>` queries against
  /// one AnalysisSession.
  bool Interactive = false;
  bool DumpIR = false;
  bool Stats = false;
  bool PtaStats = false;
  bool Why = false;
  bool NoRuntime = false;
  std::string DotFile;
  std::vector<std::string> InputLines;
  std::vector<int64_t> InputInts;
  /// Resource governance (tentpole): any of these makes the run
  /// "governed" — a pipeline status report is printed and the exit
  /// code reflects degradation.
  uint64_t BudgetMs = 0;
  uint64_t MaxSdgNodes = 0;
  uint64_t MaxSliceStmts = 0;
  uint64_t RunSteps = 0;
  bool StrictBudget = false;
  std::string FaultSpec;
  /// Function-granular incremental reanalysis for `reload`/`edit` in
  /// the interactive session (off by default: one-shot runs never
  /// re-set the source, so the flag only matters with --interactive).
  bool Incremental = false;
  /// Persistent snapshots: explicit save/load paths, or a
  /// content-addressed cache directory that warm-starts transparently
  /// (and falls back to a cold rebuild on miss/mismatch/corruption).
  std::string SaveSnapshotFile;
  std::string LoadSnapshotFile;
  std::string CacheDir;
  /// Client mode: drive a thinsliced daemon over its Unix socket
  /// instead of analyzing in-process. The daemon keeps the session
  /// warm across invocations (and across clients).
  std::string ConnectSocket;

  /// A flag only a one-shot --line query takes.
  bool refinesLine() const {
    return ChopSink || Query.Forward || Query.Expand || Query.AliasDepth ||
           Why || !DotFile.empty();
  }

  bool governed() const {
    // TSL_FAULT arms the injector without any CLI flag; env-armed runs
    // must still report status and map degradation to the exit code.
    return BudgetMs || MaxSdgNodes || MaxSliceStmts || !FaultSpec.empty() ||
           FaultInjector::instance().anyArmed();
  }
};

void usage() {
  fprintf(stderr,
          "usage: thinslice <file.tsj> [--line N] [--mode thin|trad]\n"
          "                 [--seeds FILE] [--threads N] [--interactive]\n"
          "                 [--forward] [--chop N] [--alias-depth K]\n"
          "                 [--expand] [--context-sensitive] [--no-objsens]\n"
          "                 [--run] [--in STR]... [--int N]...\n"
          "                 [--dot FILE] [--dump-ir] [--stats] [--why]\n"
          "                 [--no-runtime] [--pta-stats]\n"
          "                 [--budget-ms N] [--max-sdg-nodes N]\n"
          "                 [--max-slice-stmts N] [--strict-budget]\n"
          "                 [--fault POINT[:N][:throw|:stall][:once],...\n"
          "                          |all|rand:SEED] [--run-steps N]\n"
          "                 [--incremental on|off]\n"
          "                 [--save-snapshot FILE] [--load-snapshot FILE]\n"
          "                 [--cache-dir DIR] [--connect SOCKET]\n"
          "exit codes: 0 complete, 1 file error, 2 usage,\n"
          "            3 degraded by budget, 4 refused (--strict-budget),\n"
          "            5 internal/stage failure,\n"
          "            6 server busy (--connect; back off and retry)\n");
}

/// CLI wrappers over the shared strict parsers (support/ParseInt.h):
/// same acceptance rules, flag-labelled error reporting.
bool parsePositive(const char *Flag, const char *V, uint64_t &Out) {
  if (V && parsePositiveInt(V, Out))
    return true;
  fprintf(stderr, "error: %s expects a positive integer, got '%s'\n", Flag,
          V ? V : "");
  return false;
}

bool parsePositive(const char *Flag, const char *V, unsigned &Out) {
  if (V && parsePositiveInt(V, Out))
    return true;
  fprintf(stderr,
          "error: %s expects a positive integer no larger than %u, got "
          "'%s'\n",
          Flag, UINT32_MAX, V ? V : "");
  return false;
}

bool parseNonZero(const char *Flag, const char *V, int64_t &Out) {
  if (V && parseNonZeroInt(V, Out))
    return true;
  fprintf(stderr, "error: %s expects a nonzero integer, got '%s'\n", Flag,
          V ? V : "");
  return false;
}

/// Parses a slice mode name: thin, trad or traditional.
bool parseMode(const std::string &V, SliceMode &Mode) {
  if (V != "thin" && V != "trad" && V != "traditional")
    return false;
  Mode = V == "thin" ? SliceMode::Thin : SliceMode::Traditional;
  return true;
}

bool parseArgs(int argc, char **argv, CliOptions &Opts) {
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    if (Arg == "--line") {
      if (!parsePositive("--line", Next(), Opts.Line))
        return false;
    } else if (Arg == "--seeds") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.SeedsFile = V;
    } else if (Arg == "--interactive") {
      Opts.Interactive = true;
    } else if (Arg == "--threads") {
      if (!parsePositive("--threads", Next(), Opts.Threads))
        return false;
    } else if (Arg == "--chop") {
      if (!parsePositive("--chop", Next(), Opts.ChopSink))
        return false;
    } else if (Arg == "--mode") {
      const char *V = Next();
      if (!V)
        return false;
      if (!parseMode(V, Opts.Query.Mode))
        return false;
    } else if (Arg == "--alias-depth") {
      if (!parsePositive("--alias-depth", Next(), Opts.Query.AliasDepth))
        return false;
    } else if (Arg == "--expand") {
      Opts.Query.Expand = true;
    } else if (Arg == "--forward") {
      Opts.Query.Forward = true;
    } else if (Arg == "--context-sensitive") {
      Opts.Query.ContextSensitive = true;
    } else if (Arg == "--no-objsens") {
      Opts.NoObjSens = true;
    } else if (Arg == "--run") {
      Opts.Run = true;
    } else if (Arg == "--in") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.InputLines.push_back(V);
    } else if (Arg == "--int") {
      int64_t N;
      if (!parseNonZero("--int", Next(), N))
        return false;
      Opts.InputInts.push_back(N);
    } else if (Arg == "--dot") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.DotFile = V;
    } else if (Arg == "--dump-ir") {
      Opts.DumpIR = true;
    } else if (Arg == "--stats") {
      Opts.Stats = true;
    } else if (Arg == "--pta-stats") {
      Opts.PtaStats = true;
    } else if (Arg == "--why") {
      Opts.Why = true;
    } else if (Arg == "--no-runtime") {
      Opts.NoRuntime = true;
    } else if (Arg == "--budget-ms") {
      if (!parsePositive("--budget-ms", Next(), Opts.BudgetMs))
        return false;
    } else if (Arg == "--max-sdg-nodes") {
      if (!parsePositive("--max-sdg-nodes", Next(), Opts.MaxSdgNodes))
        return false;
    } else if (Arg == "--max-slice-stmts") {
      if (!parsePositive("--max-slice-stmts", Next(), Opts.MaxSliceStmts))
        return false;
    } else if (Arg == "--run-steps") {
      if (!parsePositive("--run-steps", Next(), Opts.RunSteps))
        return false;
    } else if (Arg == "--strict-budget") {
      Opts.StrictBudget = true;
    } else if (Arg == "--fault") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.FaultSpec = V;
    } else if (Arg == "--incremental") {
      const char *V = Next();
      if (V && strcmp(V, "on") == 0) {
        Opts.Incremental = true;
      } else if (V && strcmp(V, "off") == 0) {
        Opts.Incremental = false;
      } else {
        fprintf(stderr, "error: --incremental expects on|off, got '%s'\n",
                V ? V : "");
        return false;
      }
    } else if (Arg == "--save-snapshot") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.SaveSnapshotFile = V;
    } else if (Arg == "--load-snapshot") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.LoadSnapshotFile = V;
    } else if (Arg == "--cache-dir") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.CacheDir = V;
    } else if (Arg == "--connect") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.ConnectSocket = V;
    } else if (Arg.rfind("--", 0) == 0) {
      fprintf(stderr, "unknown option %s\n", Arg.c_str());
      return false;
    } else if (Opts.File.empty()) {
      Opts.File = Arg;
    } else {
      return false;
    }
  }
  return !Opts.File.empty();
}

/// Resolves user-file line \p UserLine (relative to \p LineOffset) to
/// its seed statement. Returns 0 with \p Seed set, or reports why there
/// is none and returns the exit code: 2 for a line out of range, 1 for
/// a line without statements (the message suggests the nearest lines
/// that carry one). The seed and the messages come from
/// seedForUserLine, so the CLI, REPL, and daemon agree on them.
int resolveSeed(const Program &P, unsigned UserLine, unsigned LineOffset,
                const Instr *&Seed) {
  Expected<const Instr *> Found = seedForUserLine(P, UserLine, LineOffset);
  Seed = Found ? *Found : nullptr;
  if (Found)
    return 0;
  fprintf(stderr, "error: %s\n", Found.status().message().c_str());
  return Found.status().code() == StatusCode::InvalidArgument ? 2 : 1;
}

/// Reads a seeds file: one user-file line number per line, blank lines
/// and '#' comments skipped, anything else a usage error. Returns 0
/// and fills \p Out, or the exit code to return (1 file, 2 usage).
int readSeedsFile(const std::string &Path, std::vector<unsigned> &Out) {
  std::ifstream SeedsIn(Path);
  if (!SeedsIn) {
    fprintf(stderr, "error: cannot open %s\n", Path.c_str());
    return 1;
  }
  std::string Raw;
  unsigned FileLine = 0;
  while (std::getline(SeedsIn, Raw)) {
    ++FileLine;
    std::size_t Begin = Raw.find_first_not_of(" \t\r");
    if (Begin == std::string::npos || Raw[Begin] == '#')
      continue;
    std::size_t End = Raw.find_last_not_of(" \t\r");
    std::string Tok = Raw.substr(Begin, End - Begin + 1);
    unsigned N = 0;
    if (!parsePositiveInt(Tok, N)) {
      fprintf(stderr,
              "error: %s:%u: expected a positive line number, got '%s'\n",
              Path.c_str(), FileLine, Tok.c_str());
      return 2;
    }
    Out.push_back(N);
  }
  if (Out.empty()) {
    fprintf(stderr, "error: %s contains no seeds\n", Path.c_str());
    return 2;
  }
  return 0;
}

/// Reads \p Path behind the container runtime (unless --no-runtime)
/// into \p Source; reports and returns false when it cannot be opened.
bool readSource(const std::string &Path, const CliOptions &Opts,
                std::string &Source) {
  std::ifstream In(Path);
  if (!In) {
    fprintf(stderr, "error: cannot open %s\n", Path.c_str());
    return false;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  Source = Opts.NoRuntime ? "" : runtimeLibrarySource();
  Source += Buf.str();
  return true;
}

/// The warm-session REPL: reads one command per stdin line and answers
/// slice queries against \p Session without ever rebuilding an
/// artifact a previous query already computed. Commands:
///
///   slice N         backward slice from user-file line N
///   mode thin|trad  switch the slice mode for subsequent queries
///   cs on|off       toggle the context-sensitive representation
///   reload          re-read the current source file
///   edit FILE       switch to FILE as the source (reload follows it)
///   save FILE       write a versioned snapshot of the warm artifacts
///   load FILE       warm-start from a snapshot (cold fallback on error)
///   stats           print per-stage memoization telemetry
///   quit            exit (EOF works too)
///
/// With --incremental on, reload and edit go through the session's
/// function-granular incremental path: unchanged functions keep their
/// compiled artifacts and the analyses update in place (falling back
/// to a cold rebuild whenever that would change any answer). Without
/// it they reset the session. With --stats the telemetry block is
/// also printed on exit.
int runInteractive(AnalysisSession &Session, const CliOptions &Opts,
                   unsigned LineOffset) {
  SliceMode Mode = Opts.Query.Mode;
  std::string CurFile = Opts.File;
  std::string LineBuf;
  while (std::getline(std::cin, LineBuf)) {
    std::istringstream Words(LineBuf);
    std::string Cmd, Arg;
    Words >> Cmd >> Arg;
    if (Cmd.empty())
      continue;
    if (Cmd == "quit" || Cmd == "exit")
      break;
    try {
      if (Cmd == "stats") {
        printf("%s", Session.statsString().c_str());
        continue;
      }
      if (Cmd == "mode") {
        if (!parseMode(Arg, Mode))
          fprintf(stderr, "error: mode expects thin|trad\n");
        continue;
      }
      if (Cmd == "cs") {
        if (Arg == "on" || Arg == "off") {
          SDGOptions SO = Session.sdgOptions();
          SO.ContextSensitive = Arg == "on";
          Session.setSDGOptions(SO);
        } else {
          fprintf(stderr, "error: cs expects on|off\n");
        }
        continue;
      }
      if (Cmd == "reload" || Cmd == "edit") {
        if (Cmd == "edit") {
          if (Arg.empty()) {
            fprintf(stderr, "error: edit expects a file path\n");
            continue;
          }
        } else {
          Arg = CurFile;
        }
        std::string Src;
        if (!readSource(Arg, Opts, Src))
          continue;
        CurFile = Arg;
        Session.setSource(std::move(Src));
        if (!Session.program())
          fputs(Session.diagnostics().render(CurFile, LineOffset).c_str(),
                stderr);
        continue;
      }
      if (Cmd == "save" || Cmd == "load") {
        if (Arg.empty()) {
          fprintf(stderr, "error: %s expects a file path\n", Cmd.c_str());
          continue;
        }
        Status S = Cmd == "save" ? Session.saveSnapshot(Arg)
                                 : Session.loadSnapshot(Arg);
        if (!S.isOk())
          fprintf(stderr, "error: %s\n", S.str().c_str());
        else
          printf("%s snapshot %s\n", Cmd == "save" ? "saved" : "loaded",
                 Arg.c_str());
        continue;
      }
      if (Cmd == "slice") {
        unsigned UserLine = 0;
        if (!parsePositiveInt(Arg, UserLine)) {
          fprintf(stderr,
                  "error: slice expects a positive line number, got '%s'\n",
                  Arg.c_str());
          continue;
        }
        Program *P = Session.program();
        if (!P) {
          fprintf(stderr, "error: program does not compile (%s) "
                          "(try reload)\n",
                  Session.lastError().str().c_str());
          continue;
        }
        const Instr *Seed = nullptr;
        if (resolveSeed(*P, UserLine, LineOffset, Seed))
          continue;
        SliceQuery Q = SliceQuery::backward(
            {Seed}, Mode, Session.sdgOptions().ContextSensitive);
        const SliceAnswer *Answer = Session.slice(Q);
        if (!Answer) {
          // A stage crashed and exhausted its retries (or an upstream
          // artifact could not be built). The session caches nothing
          // on this path, so the next request retries from scratch —
          // keep the REPL alive.
          fprintf(stderr, "error: query failed (%s); session remains "
                          "usable, retry the query\n",
                  Session.lastError().str().c_str());
          continue;
        }
        const SliceResult &Slice = Answer->Results.front();
        fputs(renderSliceReport(Slice, Q.label(), UserLine, LineOffset)
                  .c_str(),
              stdout);
        if (!Slice.complete())
          fprintf(stderr, "warning: slice degraded (%s)\n",
                  Slice.degradedReason().c_str());
        continue;
      }
      fprintf(stderr,
              "error: unknown command '%s' (try: slice N, mode thin|trad, "
              "cs on|off, stats, reload, edit FILE, save FILE, load FILE, "
              "quit)\n",
              Cmd.c_str());
    } catch (const std::exception &E) {
      // Nothing below the session boundary should throw; if something
      // does anyway, report it and keep the REPL alive — the session
      // caches no failed artifact, so the next query starts clean.
      fprintf(stderr, "error: internal error: %s (session remains usable)\n",
              E.what());
    }
  }
  if (Opts.Stats)
    printf("%s", Session.statsString().c_str());
  return 0;
}

/// Maps a daemon response code onto the tool's exit-code taxonomy.
/// ServiceStatus reuses the exit-code numbers (plus 6 for RETRY), except
/// NotFound: a line without statements exits 1, as in process.
int exitCodeFor(ServiceStatus Code) {
  return Code == ServiceStatus::NotFound ? 1 : static_cast<int>(Code);
}

/// Prints a non-Ok daemon response the way the in-process paths print
/// the equivalent local failure, and returns the exit code.
int reportRemoteFailure(const ServiceResponse &Resp) {
  switch (Resp.Code) {
  case ServiceStatus::Error:
    // Compile diagnostics arrive pre-rendered, one per line.
    fputs(Resp.Detail.c_str(), stderr);
    if (!Resp.Detail.empty() && Resp.Detail.back() != '\n')
      fputc('\n', stderr);
    break;
  case ServiceStatus::Retry:
    fprintf(stderr, "error: server busy, back off and retry (%s)\n",
            Resp.Detail.c_str());
    break;
  case ServiceStatus::BadRequest:
  case ServiceStatus::NotFound: {
    // A slice request names each line it could not resolve on a line
    // of its own, as the in-process tool reports each bad seed.
    std::istringstream Problems(Resp.Detail);
    for (std::string Problem; std::getline(Problems, Problem);)
      fprintf(stderr, "error: %s\n", Problem.c_str());
    break;
  }
  default:
    fprintf(stderr, "error: %s\n", Resp.Detail.c_str());
    break;
  }
  return exitCodeFor(Resp.Code);
}

/// The remote REPL: the --interactive command set that makes sense
/// against a shared daemon (slice N, mode thin|trad, edit FILE, stats,
/// quit), each answered over the wire by the warm session \p SessionId.
int runConnectInteractive(ServiceClient &C, const std::string &SessionId,
                          const CliOptions &Opts) {
  SliceMode Mode = Opts.Query.Mode;
  std::string LineBuf;
  while (std::getline(std::cin, LineBuf)) {
    std::istringstream Words(LineBuf);
    std::string Cmd, Arg;
    Words >> Cmd >> Arg;
    if (Cmd.empty())
      continue;
    if (Cmd == "quit" || Cmd == "exit")
      break;
    if (Cmd == "mode") {
      if (!parseMode(Arg, Mode))
        fprintf(stderr, "error: mode expects thin|trad\n");
      continue;
    }
    ServiceResponse Resp;
    Status S = Status::ok();
    if (Cmd == "slice") {
      uint32_t UserLine = 0;
      if (!parsePositiveInt(Arg, UserLine)) {
        fprintf(stderr,
                "error: slice expects a positive line number, got '%s'\n",
                Arg.c_str());
        continue;
      }
      S = C.slice(SessionId, UserLine, Mode, Resp);
      if (S.isOk() && (Resp.Code == ServiceStatus::Ok ||
                       Resp.Code == ServiceStatus::Degraded)) {
        fputs(Resp.Body.c_str(), stdout);
        if (Resp.Code == ServiceStatus::Degraded)
          fprintf(stderr, "warning: slice degraded (%s)\n",
                  Resp.Detail.c_str());
        continue;
      }
    } else if (Cmd == "edit") {
      if (Arg.empty()) {
        fprintf(stderr, "error: edit expects a file path\n");
        continue;
      }
      std::string Src;
      if (!readSource(Arg, Opts, Src))
        continue;
      S = C.edit(SessionId, Src, Resp);
      if (S.isOk() && Resp.Code == ServiceStatus::Ok)
        continue;
    } else if (Cmd == "stats") {
      S = C.stats(SessionId, Resp);
      if (S.isOk() && Resp.Code == ServiceStatus::Ok) {
        fputs(Resp.Body.c_str(), stdout);
        continue;
      }
    } else {
      fprintf(stderr,
              "error: unknown command '%s' (try: slice N, mode thin|trad, "
              "edit FILE, stats, quit)\n",
              Cmd.c_str());
      continue;
    }
    if (!S.isOk()) {
      // Transport failure: the daemon is gone; a retry loop here would
      // just spin on a dead socket.
      fprintf(stderr, "error: %s\n", S.str().c_str());
      return 5;
    }
    (void)reportRemoteFailure(Resp); // REPL stays alive on protocol errors.
  }
  return 0;
}

/// Client mode: the tool becomes a thin front end for a thinsliced
/// daemon — load (or reuse) the warm session for the file's content,
/// then answer --line / --seeds / --interactive over the wire. Output
/// is byte-identical to the in-process paths because the daemon runs
/// the same renderer over the same artifacts.
int runConnect(const CliOptions &Opts) {
  if (Opts.Run || Opts.refinesLine() || Opts.DumpIR || Opts.Stats ||
      Opts.PtaStats || !Opts.SaveSnapshotFile.empty() ||
      !Opts.LoadSnapshotFile.empty() || !Opts.CacheDir.empty() ||
      Opts.governed()) {
    fprintf(stderr,
            "error: --connect supports --line, --seeds, --interactive, "
            "--mode, --context-sensitive, --incremental, and --no-runtime "
            "only (analysis options live with the daemon)\n");
    return 2;
  }
  if (!Opts.Line && Opts.SeedsFile.empty() && !Opts.Interactive) {
    fprintf(stderr,
            "error: --connect needs --line, --seeds, or --interactive\n");
    return 2;
  }

  std::string Source;
  if (!readSource(Opts.File, Opts, Source))
    return 1;
  const unsigned LineOffset = Opts.NoRuntime ? 0 : runtimeLibraryLines();

  ServiceClient C;
  Status S = C.connect(Opts.ConnectSocket);
  if (!S.isOk()) {
    fprintf(stderr, "error: %s\n", S.str().c_str());
    return 1;
  }

  ServiceResponse Load;
  S = C.loadSource(Source, Opts.Query.ContextSensitive, LineOffset,
                   Opts.Incremental, Load);
  if (!S.isOk()) {
    fprintf(stderr, "error: %s\n", S.str().c_str());
    return 5;
  }
  if (Load.Code != ServiceStatus::Ok)
    return reportRemoteFailure(Load);
  const std::string SessionId = Load.Body;

  if (Opts.Interactive)
    return runConnectInteractive(C, SessionId, Opts);

  ServiceResponse Resp;
  if (!Opts.SeedsFile.empty()) {
    std::vector<unsigned> SeedUserLines;
    if (int Rc = readSeedsFile(Opts.SeedsFile, SeedUserLines))
      return Rc;
    std::vector<uint32_t> Lines(SeedUserLines.begin(), SeedUserLines.end());
    S = C.batchSlice(SessionId, Lines, Opts.Query.Mode, Resp);
  } else {
    S = C.slice(SessionId, Opts.Line, Opts.Query.Mode, Resp);
  }
  if (!S.isOk()) {
    fprintf(stderr, "error: %s\n", S.str().c_str());
    return 5;
  }
  if (Resp.Code != ServiceStatus::Ok &&
      Resp.Code != ServiceStatus::Degraded)
    return reportRemoteFailure(Resp);
  fputs(Resp.Body.c_str(), stdout);
  if (Resp.Code == ServiceStatus::Degraded)
    fprintf(stderr, "warning: slice degraded (%s)\n", Resp.Detail.c_str());
  return exitCodeFor(Resp.Code);
}

/// The whole tool, minus the crash barrier main() wraps around it.
int runTool(int argc, char **argv) {
  CliOptions Opts;
  if (!parseArgs(argc, argv, Opts)) {
    usage();
    return 2;
  }

  if (!Opts.SeedsFile.empty() && (Opts.Line || Opts.refinesLine())) {
    fprintf(stderr, "error: --seeds is incompatible with --line/--chop/"
                    "--forward/--expand/--alias-depth/--why/--dot\n");
    return 2;
  }

  if (Opts.Interactive && (Opts.Line || Opts.refinesLine() ||
                           !Opts.SeedsFile.empty() || Opts.Run)) {
    fprintf(stderr, "error: --interactive is incompatible with --line/"
                    "--chop/--forward/--expand/--alias-depth/--why/--dot/"
                    "--seeds/--run\n");
    return 2;
  }

  // Every remaining flag combination names one query; refuse the ones
  // that would silently drop a flag.
  auto Conflict = SliceQuery::conflict(Opts.Query, Opts.ChopSink);
  if (!Conflict.first && Opts.Why && (Opts.ChopSink || Opts.Query.Forward))
    Conflict = {"why", Opts.ChopSink ? "chop" : "forward"};
  if (Conflict.first) {
    fprintf(stderr, "error: --%s cannot be combined with --%s\n",
            Conflict.first, Conflict.second);
    usage();
    return 2;
  }

  if (!Opts.ConnectSocket.empty())
    return runConnect(Opts);

  if (!Opts.FaultSpec.empty() &&
      !FaultInjector::instance().armFromSpec(Opts.FaultSpec)) {
    std::string Known;
    for (const std::string &P : FaultInjector::knownPoints()) {
      if (!Known.empty())
        Known += ", ";
      Known += P;
    }
    fprintf(stderr, "error: bad --fault spec '%s' (known points: %s)\n",
            Opts.FaultSpec.c_str(), Known.c_str());
    return 2;
  }

  // The shared budget is only materialized when a cap is requested:
  // without flags every stage sees a null budget and runs the exact
  // pre-existing code paths (zero-overhead default).
  AnalysisBudget Budget;
  const AnalysisBudget *B = nullptr;
  if (Opts.BudgetMs || Opts.MaxSdgNodes || Opts.MaxSliceStmts) {
    Budget.BudgetMs = Opts.BudgetMs;
    Budget.MaxSdgNodes = Opts.MaxSdgNodes;
    Budget.MaxSlicePops = Opts.MaxSliceStmts;
    Budget.start();
    B = &Budget;
  }

  std::string Source;
  if (!readSource(Opts.File, Opts, Source))
    return 1;
  const unsigned LineOffset = Opts.NoRuntime ? 0 : runtimeLibraryLines();

  // The session owns every analysis artifact from here on: the
  // one-shot paths below request each one exactly once, and
  // --interactive re-queries the same warm session.
  AnalysisSession Session(std::move(Source));
  Session.setBudget(B);
  Session.setIncremental(Opts.Incremental);
  Session.setThreads(Opts.Threads);
  // Compiles (or fetches the compiled program) and reports a compile
  // error in user-file positions (the runtime prefix is an
  // implementation detail).
  Program *P = nullptr;
  auto Compile = [&] {
    P = Session.program();
    if (!P)
      fputs(Session.diagnostics().render(Opts.File, LineOffset).c_str(),
            stderr);
    return P != nullptr;
  };

  const bool NoQuery = !Opts.Line && Opts.SeedsFile.empty() &&
                       Opts.DotFile.empty() && !Opts.Stats &&
                       !Opts.PtaStats && !Opts.Interactive &&
                       Opts.SaveSnapshotFile.empty() && Opts.CacheDir.empty();
  // --dump-ir and --run read the program before any query, and a run
  // with no query only checks that the source compiles. Everything
  // else compiles after the warm start below, which installs a decoded
  // program instead when it loads.
  if (Opts.DumpIR || Opts.Run || NoQuery) {
    if (!Compile())
      return 1;
  }

  if (Opts.DumpIR)
    printf("%s", printProgram(*P).c_str());

  if (Opts.Run) {
    InterpOptions RunOpts;
    RunOpts.InputLines = Opts.InputLines;
    RunOpts.InputInts = Opts.InputInts;
    RunOpts.Budget = B;
    if (Opts.RunSteps)
      RunOpts.MaxSteps = Opts.RunSteps;
    InterpResult R = interpret(*P, RunOpts);
    for (const std::string &Line : R.Output)
      printf("%s\n", Line.c_str());
    if (!R.Completed)
      fprintf(stderr, "%s\n", R.Error.c_str());
    if (R.Crashed)
      return 5;
    if (R.HitLimit && !Opts.Line && Opts.SeedsFile.empty() &&
        Opts.DotFile.empty() && !Opts.Stats && !Opts.PtaStats)
      return Opts.StrictBudget ? 4 : 3;
  }

  if (NoQuery)
    return 0;

  PTAOptions PtaOpts;
  PtaOpts.ObjSensContainers = !Opts.NoObjSens;
  Session.setPTAOptions(PtaOpts);

  SDGOptions SdgOpts;
  SdgOpts.ContextSensitive = Opts.Query.ContextSensitive;
  Session.setSDGOptions(SdgOpts);

  // Warm-start layer: snapshots are only meaningful once the option
  // digests above are final. Loads fall back to a cold rebuild (the
  // warning carries the reason); an explicit save that cannot be
  // written is an internal failure.
  bool CacheWarm = false;
  if (!Opts.CacheDir.empty()) {
    Session.setCacheDir(Opts.CacheDir);
    CacheWarm = Session.tryLoadFromCacheDir();
  }
  if (!Opts.LoadSnapshotFile.empty()) {
    Status L = Session.loadSnapshot(Opts.LoadSnapshotFile);
    if (!L.isOk())
      fprintf(stderr, "warning: %s\n", L.str().c_str());
  }
  // A successful load installed a decoded Program (a hit, and one that
  // replaced a program compiled above for --dump-ir or --run); after a
  // declined one this is the cold compile.
  if (!Compile())
    return 1;
  if (!Opts.SaveSnapshotFile.empty()) {
    Status S = Session.saveSnapshot(Opts.SaveSnapshotFile);
    if (!S.isOk()) {
      fprintf(stderr, "error: %s\n", S.str().c_str());
      return 5;
    }
  }
  if (!Opts.CacheDir.empty() && !CacheWarm && !B) {
    // Populate the cache for the next process. Best-effort: a full or
    // unwritable cache directory must not fail the query itself.
    Status S = Session.saveToCacheDir();
    if (!S.isOk())
      fprintf(stderr, "warning: %s\n", S.str().c_str());
  }

  if (Opts.Interactive)
    return runInteractive(Session, Opts, LineOffset);

  // A null artifact here means the stage crashed (injected Throw fault
  // or internal error) and exhausted its retries — exit 5, distinct
  // from a compile error (1) and from sound degradation (3/4).
  auto StageFailed = [&](const char *Stage) {
    fprintf(stderr, "error: %s stage failed: %s\n", Stage,
            Session.lastError().str().c_str());
    return 5;
  };

  // --stats prints after the query (so it counts it) but takes its
  // inventory now. Each request may heal a fault-tainted artifact, so
  // every count is read right after the request that returned it; the
  // slice carries its own graph.
  char Inventory[256] = "";

  // Only the outputs that print points-to facts request them here: a
  // slice runs on the SDG alone (--expand and --alias-depth pull
  // points-to through slice()), so a warm start computes neither
  // points-to nor mod-ref.
  if (Opts.PtaStats || Opts.Stats) {
    PointsToResult *PTA = Session.pointsTo();
    if (!PTA)
      return StageFailed("points-to");
    if (Opts.PtaStats)
      printf("%s", PTA->stats().str().c_str());
    snprintf(Inventory, sizeof(Inventory),
             "classes: %zu, reachable methods: %zu, cg nodes: %zu\n",
             P->classes().size(), PTA->callGraph().reachableMethods().size(),
             PTA->callGraph().nodes().size());
  }

  SDG *G = Session.sdg();
  if (!G) {
    // sdg() stops at the first upstream stage that fails; ask for
    // each in turn to name it.
    if (!Session.pointsTo())
      return StageFailed("points-to");
    if (Opts.Query.ContextSensitive && !Session.modRef())
      return StageFailed("mod-ref");
    if (!(G = Session.sdg()))
      return StageFailed("sdg");
  }

  const std::size_t Taken = strlen(Inventory);
  snprintf(Inventory + Taken, sizeof(Inventory) - Taken,
           "sdg: %u statements, %u heap-param nodes, %u edges\n",
           G->numStmtNodes(), G->numHeapParamNodes(), G->numEdges());

  // Governed runs report per-stage status and map degradation onto the
  // exit code; ungoverned runs keep the historical 0/1/2 codes and
  // byte-identical output.
  auto Finish = [&](const SliceResult *Slice) {
    PipelineStatus Status = Session.status();
    if (Slice) {
      StageReport SR{"slice",
                     Slice->complete() ? StageStatus::Complete
                                       : StageStatus::Degraded,
                     Slice->degradedReason(),
                     Slice->complete() ? "" : "partial slice", 0, 0};
      Status.add(std::move(SR));
    }
    if (!Opts.governed())
      return 0;
    fprintf(stderr, "%s", Status.str().c_str());
    if (Status.complete())
      return 0;
    if (Opts.StrictBudget) {
      fprintf(stderr, "refusing degraded result (--strict-budget)\n");
      return 4;
    }
    return 3;
  };

  // Runs the query the flags name and prints it; returns the exit code.
  auto Answer = [&]() -> int {
    if (!Opts.SeedsFile.empty()) {
      std::vector<unsigned> SeedUserLines;
      if (int Rc = readSeedsFile(Opts.SeedsFile, SeedUserLines))
        return Rc;

      // Report every bad seed before exiting; a line out of range (2)
      // outranks a line without statements (1).
      std::vector<const Instr *> Seeds;
      int Rc = 0;
      for (unsigned UserLine : SeedUserLines) {
        const Instr *Seed = nullptr;
        Rc = std::max(Rc, resolveSeed(*P, UserLine, LineOffset, Seed));
        Seeds.push_back(Seed);
      }
      if (Rc)
        return Rc;

      SliceQuery Q = Opts.Query;
      Q.Seeds = Seeds;
      const SliceAnswer *Batch = Session.slice(Q);
      if (!Batch)
        return StageFailed("slice");
      fputs(renderSliceBatch(Batch->Results, Q.label(), SeedUserLines,
                             LineOffset)
                .c_str(),
            stdout);
      const BatchStats &St = Batch->Stats;
      printf("batch: %u queries (%u unique) on %u worker%s\n", St.Queries,
             St.UniqueQueries, St.Workers, St.Workers == 1 ? "" : "s");

      // Aggregate degradation: one slice stage for the whole batch.
      const SliceResult *Rep = &Batch->Results.front();
      for (const SliceResult &Slice : Batch->Results)
        if (!Slice.complete()) {
          Rep = &Slice;
          break;
        }
      return Finish(Rep);
    }

    if (!Opts.Line) {
      if (!Opts.DotFile.empty()) {
        std::ofstream Dot(Opts.DotFile);
        Dot << exportDot(*G);
        Dot.flush();
        if (!Dot) {
          fprintf(stderr, "error: cannot write %s\n", Opts.DotFile.c_str());
          return 1;
        }
      }
      return Finish(nullptr);
    }

    // User line numbers are relative to the user's file.
    const Instr *Seed = nullptr;
    if (int Rc = resolveSeed(*P, Opts.Line, LineOffset, Seed))
      return Rc;
    SliceQuery Q = Opts.Query;
    Q.Seeds = {Seed};
    if (Opts.ChopSink)
      if (int Rc = resolveSeed(*P, Opts.ChopSink, LineOffset, Q.ChopSink))
        return Rc;
    const SliceAnswer *Result = Session.slice(Q);
    if (!Result)
      return StageFailed("slice");
    const SliceResult &Slice = Result->Results.front();

    if (Opts.Why) {
      SliceNarration Story = narrateSlice(Slice, Seed, Opts.Query.Mode);
      printf("%s", Story.str(LineOffset).c_str());
      return Finish(&Slice);
    }

    fputs(renderSliceReport(Slice, Q.label(), Opts.Line, LineOffset).c_str(),
          stdout);

    if (!Opts.DotFile.empty()) {
      DotOptions DO;
      BitSet Nodes = Slice.nodeSet();
      DO.Restrict = &Nodes;
      std::ofstream Dot(Opts.DotFile);
      Dot << exportDot(Slice.graph(), DO);
      Dot.flush();
      if (!Dot) {
        fprintf(stderr, "error: cannot write %s\n", Opts.DotFile.c_str());
        return 1;
      }
      printf("wrote %s\n", Opts.DotFile.c_str());
    }
    return Finish(&Slice);
  };

  int Rc = Answer();
  if (Opts.Stats)
    printf("%s%s", Inventory, Session.statsString().c_str());
  return Rc;
}

} // namespace

int main(int argc, char **argv) {
  // Crash barrier: no exception may escape as std::terminate. The
  // library's boundaries are no-throw, so anything landing here is an
  // internal error — report it and exit 5 (never a crash).
  try {
    return runTool(argc, argv);
  } catch (const std::exception &E) {
    fprintf(stderr, "error: internal error: %s\n", E.what());
    return 5;
  } catch (...) {
    fprintf(stderr, "error: internal error: unknown exception\n");
    return 5;
  }
}
