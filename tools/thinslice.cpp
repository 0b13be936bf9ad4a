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
#include "slicer/Chop.h"
#include "slicer/Engine.h"
#include "slicer/Expansion.h"
#include "slicer/Report.h"
#include "slicer/Slicer.h"
#include "slicer/Tabulation.h"

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
  SliceMode Mode = SliceMode::Thin;
  unsigned AliasDepth = 0;
  bool Expand = false;
  bool Forward = false;
  bool ContextSensitive = false;
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
      if (strcmp(V, "thin") == 0)
        Opts.Mode = SliceMode::Thin;
      else if (strcmp(V, "trad") == 0 || strcmp(V, "traditional") == 0)
        Opts.Mode = SliceMode::Traditional;
      else
        return false;
    } else if (Arg == "--alias-depth") {
      if (!parsePositive("--alias-depth", Next(), Opts.AliasDepth))
        return false;
    } else if (Arg == "--expand") {
      Opts.Expand = true;
    } else if (Arg == "--forward") {
      Opts.Forward = true;
    } else if (Arg == "--context-sensitive") {
      Opts.ContextSensitive = true;
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
/// that carry one). The messages are the shared ones in
/// slicer/Report.h, so the CLI, REPL, and daemon agree on them.
int resolveSeed(const Program &P, unsigned UserLine, unsigned LineOffset,
                const Instr *&Seed) {
  Seed = nullptr;
  unsigned AbsLine = absoluteUserLine(UserLine, LineOffset);
  if (!AbsLine) {
    fprintf(stderr, "error: %s\n", lineOutOfRangeMessage(UserLine).c_str());
    return 2;
  }
  Seed = seedAtLine(P, AbsLine);
  if (!Seed) {
    fprintf(stderr, "error: %s\n",
            noStatementMessage(P, UserLine, LineOffset).c_str());
    return 1;
  }
  return 0;
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
  SliceMode Mode = Opts.Mode;
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
        if (Arg == "thin")
          Mode = SliceMode::Thin;
        else if (Arg == "trad" || Arg == "traditional")
          Mode = SliceMode::Traditional;
        else
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
        std::ifstream In(Arg);
        if (!In) {
          fprintf(stderr, "error: cannot open %s\n", Arg.c_str());
          continue;
        }
        std::stringstream Buf;
        Buf << In.rdbuf();
        CurFile = Arg;
        std::string Src = Opts.NoRuntime ? "" : runtimeLibrarySource();
        Src += Buf.str();
        Session.setSource(std::move(Src));
        if (!Session.program())
          for (const Diagnostic &D : Session.diagnostics().diagnostics()) {
            SourceLoc Loc = D.Loc;
            if (Loc.Line > LineOffset)
              Loc.Line -= LineOffset;
            fprintf(stderr, "%s:%s: error: %s\n", CurFile.c_str(),
                    Loc.str().c_str(), D.Message.c_str());
          }
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
        const SliceResult *Slice = Session.sliceBackwardCached(Seed, Mode);
        if (!Slice) {
          // A stage crashed and exhausted its retries (or an upstream
          // artifact could not be built). The session caches nothing
          // on this path, so the next request retries from scratch —
          // keep the REPL alive.
          fprintf(stderr, "error: query failed (%s); session remains "
                          "usable, retry the query\n",
                  Session.lastError().str().c_str());
          continue;
        }
        const char *What = sliceKindName(
            Mode, Session.sdgOptions().ContextSensitive);
        fputs(renderSliceReport(*Slice, What, UserLine, LineOffset).c_str(),
              stdout);
        if (!Slice->complete())
          fprintf(stderr, "warning: slice degraded (%s)\n",
                  Slice->degradedReason().c_str());
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
/// ServiceStatus deliberately reuses the exit-code numbers (plus 6 for
/// RETRY), so this is the identity.
int exitCodeFor(ServiceStatus Code) { return static_cast<int>(Code); }

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
  SliceMode Mode = Opts.Mode;
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
      if (Arg == "thin")
        Mode = SliceMode::Thin;
      else if (Arg == "trad" || Arg == "traditional")
        Mode = SliceMode::Traditional;
      else
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
      std::ifstream In(Arg);
      if (!In) {
        fprintf(stderr, "error: cannot open %s\n", Arg.c_str());
        continue;
      }
      std::stringstream Buf;
      Buf << In.rdbuf();
      std::string Src = Opts.NoRuntime ? "" : runtimeLibrarySource();
      Src += Buf.str();
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
  if (Opts.Run || Opts.ChopSink || Opts.Forward || Opts.Expand ||
      Opts.AliasDepth || Opts.Why || !Opts.DotFile.empty() || Opts.DumpIR ||
      Opts.Stats || Opts.PtaStats || !Opts.SaveSnapshotFile.empty() ||
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

  std::ifstream In(Opts.File);
  if (!In) {
    fprintf(stderr, "error: cannot open %s\n", Opts.File.c_str());
    return 1;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  unsigned LineOffset = 0;
  std::string Source;
  if (!Opts.NoRuntime) {
    Source = runtimeLibrarySource();
    LineOffset = runtimeLibraryLines();
  }
  Source += Buf.str();

  ServiceClient C;
  Status S = C.connect(Opts.ConnectSocket);
  if (!S.isOk()) {
    fprintf(stderr, "error: %s\n", S.str().c_str());
    return 1;
  }

  ServiceResponse Load;
  S = C.loadSource(Source, Opts.ContextSensitive, LineOffset,
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
    S = C.batchSlice(SessionId, Lines, Opts.Mode, Resp);
  } else {
    S = C.slice(SessionId, Opts.Line, Opts.Mode, Resp);
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

  if (!Opts.SeedsFile.empty() &&
      (Opts.Line || Opts.ChopSink || Opts.Forward || Opts.Expand ||
       Opts.AliasDepth || Opts.Why || !Opts.DotFile.empty())) {
    fprintf(stderr, "error: --seeds is incompatible with --line/--chop/"
                    "--forward/--expand/--alias-depth/--why/--dot\n");
    return 2;
  }

  if (Opts.Interactive &&
      (Opts.Line || Opts.ChopSink || Opts.Forward || Opts.Expand ||
       Opts.AliasDepth || Opts.Why || !Opts.DotFile.empty() ||
       !Opts.SeedsFile.empty() || Opts.Run)) {
    fprintf(stderr, "error: --interactive is incompatible with --line/"
                    "--chop/--forward/--expand/--alias-depth/--why/--dot/"
                    "--seeds/--run\n");
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

  std::ifstream In(Opts.File);
  if (!In) {
    fprintf(stderr, "error: cannot open %s\n", Opts.File.c_str());
    return 1;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  unsigned LineOffset = 0;
  std::string Source;
  if (!Opts.NoRuntime) {
    Source = runtimeLibrarySource();
    LineOffset = runtimeLibraryLines();
  }
  Source += Buf.str();

  // The session owns every analysis artifact from here on: the
  // one-shot paths below request each one exactly once, and
  // --interactive re-queries the same warm session.
  AnalysisSession Session(std::move(Source));
  Session.setBudget(B);
  Session.setIncremental(Opts.Incremental);
  Session.setThreads(Opts.Threads);
  Program *P = Session.program();
  if (!P) {
    // Report user-file positions (the runtime prefix is an
    // implementation detail).
    for (const Diagnostic &D : Session.diagnostics().diagnostics()) {
      SourceLoc Loc = D.Loc;
      if (Loc.Line > LineOffset)
        Loc.Line -= LineOffset;
      fprintf(stderr, "%s:%s: error: %s\n", Opts.File.c_str(),
              Loc.str().c_str(), D.Message.c_str());
    }
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

  if (!Opts.Line && Opts.SeedsFile.empty() && Opts.DotFile.empty() &&
      !Opts.Stats && !Opts.PtaStats && !Opts.Interactive &&
      Opts.SaveSnapshotFile.empty() && Opts.CacheDir.empty())
    return 0;

  PTAOptions PtaOpts;
  PtaOpts.ObjSensContainers = !Opts.NoObjSens;
  Session.setPTAOptions(PtaOpts);

  SDGOptions SdgOpts;
  SdgOpts.ContextSensitive = Opts.ContextSensitive;
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
  // A successful load installed a decoded Program: the pointer taken
  // before the warm-start block is stale now.
  P = Session.program();

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

  PointsToResult *PTA = Session.pointsTo();
  if (!PTA)
    return StageFailed("points-to");

  if (Opts.PtaStats)
    printf("%s", PTA->stats().str().c_str());

  ModRefResult *MR = Opts.ContextSensitive ? Session.modRef() : nullptr;
  if (Opts.ContextSensitive && !MR)
    return StageFailed("mod-ref");
  SDG *G = Session.sdg();
  if (!G)
    return StageFailed("sdg");

  // Governed runs report per-stage status and map degradation onto the
  // exit code; ungoverned runs keep the historical 0/1/2 codes and
  // byte-identical output.
  PipelineStatus Status;
  Status.add(PTA->report());
  if (MR)
    Status.add(MR->report());
  Status.add(G->report());
  auto Finish = [&](const SliceResult *Slice) {
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

  if (Opts.Stats) {
    printf("classes: %zu, reachable methods: %zu, cg nodes: %zu\n",
           P->classes().size(), PTA->callGraph().reachableMethods().size(),
           PTA->callGraph().nodes().size());
    printf("sdg: %u statements, %u heap-param nodes, %u edges\n",
           G->numStmtNodes(), G->numHeapParamNodes(), G->numEdges());
    printf("%s", Session.statsString().c_str());
  }

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

    SummaryCache Cache;
    SliceEngine Engine(*G, Session.pool());
    BatchOptions BO;
    BO.Mode = Opts.Mode;
    BO.ContextSensitive = Opts.ContextSensitive;
    BO.Jobs = Session.threadsResolved();
    BO.Budget = B;
    BO.Summaries = Opts.ContextSensitive ? &Cache : nullptr;
    std::vector<SliceResult> Results = Engine.sliceBackwardBatch(Seeds, BO);

    const char *What = sliceKindName(Opts.Mode, Opts.ContextSensitive);
    for (std::size_t I = 0; I != Results.size(); ++I) {
      printf("=== seed line %u ===\n", SeedUserLines[I]);
      fputs(renderSliceReport(Results[I], What, SeedUserLines[I], LineOffset)
                .c_str(),
            stdout);
    }
    const BatchStats &St = Engine.stats();
    printf("batch: %u queries (%u unique) on %u worker%s\n", St.Queries,
           St.UniqueQueries, St.Workers, St.Workers == 1 ? "" : "s");

    // Aggregate degradation: one slice stage for the whole batch.
    const SliceResult *Rep = &Results.front();
    for (const SliceResult &Slice : Results)
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

  SliceResult Slice(nullptr, BitSet());
  std::string What;
  if (Opts.ChopSink) {
    const Instr *Sink = nullptr;
    if (int Rc = resolveSeed(*P, Opts.ChopSink, LineOffset, Sink))
      return Rc;
    Slice = chop(*G, Seed, Sink, Opts.Mode, B);
    What = "chop";
  } else if (Opts.Forward) {
    Slice = sliceForward(*G, Seed, Opts.Mode, B);
    What = "forward slice";
  } else if (Opts.ContextSensitive) {
    TabulationSlicer Tab(*G, Opts.Mode, B);
    Slice = Tab.slice(Seed);
    What = "context-sensitive slice";
  } else if (Opts.Expand) {
    ThinExpansion Exp(*G, *PTA, B);
    Slice = Exp.expandToTraditional(Seed);
    What = "fully expanded thin slice";
  } else if (Opts.AliasDepth) {
    ThinExpansion Exp(*G, *PTA, B);
    Slice = Exp.thinSliceWithAliasDepth(Seed, Opts.AliasDepth);
    What = "thin slice (+" + std::to_string(Opts.AliasDepth) +
           " aliasing levels)";
  } else {
    Slice = sliceBackward(*G, Seed, Opts.Mode, B);
    What = Opts.Mode == SliceMode::Thin ? "thin slice" : "traditional slice";
  }

  if (Opts.Why && !Opts.ChopSink && !Opts.Forward) {
    SliceNarration Story = narrateSlice(*G, Seed, Opts.Mode);
    printf("%s", Story.str(LineOffset).c_str());
    return Finish(&Slice);
  }

  fputs(renderSliceReport(Slice, What, Opts.Line, LineOffset).c_str(),
        stdout);

  if (!Opts.DotFile.empty()) {
    DotOptions DO;
    BitSet Nodes = Slice.nodeSet();
    DO.Restrict = &Nodes;
    std::ofstream Dot(Opts.DotFile);
    Dot << exportDot(*G, DO);
    Dot.flush();
    if (!Dot) {
      fprintf(stderr, "error: cannot write %s\n", Opts.DotFile.c_str());
      return 1;
    }
    printf("wrote %s\n", Opts.DotFile.c_str());
  }
  return Finish(&Slice);
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
