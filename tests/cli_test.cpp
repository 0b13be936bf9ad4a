//===-- cli_test.cpp - End-to-end tests of the thinslice tool -------------------==//
//
// Drives the installed binary the way a user would: writes a .tsj
// file, runs the tool, checks stdout. Tests run from build/tests (the
// gtest working directory), so the binary lives at ../tools/thinslice.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <algorithm>
#include <iterator>
#include <string>
#include <sys/wait.h>

namespace {

const char *ToolPath = "../tools/thinslice";

bool toolExists() {
  std::ifstream F(ToolPath);
  return F.good();
}

/// Runs a command, captures stdout(+stderr), returns exit status.
int runCapture(const std::string &Cmd, std::string &Out) {
  Out.clear();
  FILE *Pipe = popen((Cmd + " 2>&1").c_str(), "r");
  if (!Pipe)
    return -1;
  char Buf[4096];
  while (size_t N = fread(Buf, 1, sizeof(Buf), Pipe))
    Out.append(Buf, N);
  return pclose(Pipe);
}

class CliTest : public ::testing::Test {
protected:
  void SetUp() override {
    if (!toolExists())
      GTEST_SKIP() << "thinslice binary not found at " << ToolPath;
    // One file per test: ctest runs these in parallel processes from
    // one working directory, and some tests rewrite the program.
    Program = std::string("cli_test_") +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".tsj";
    std::ofstream F(Program);
    F << R"THINJ(
def readNames(count: int): Vector {
  var firstNames = new Vector();
  for (var i = 0; i < count; i = i + 1) {
    var fullName = readLine();
    var spaceInd = fullName.indexOf(" ");
    var firstName = fullName.substring(0, spaceInd - 1);
    firstNames.add(firstName);
  }
  return firstNames;
}
def main() {
  var names = readNames(readInt());
  for (var i = 0; i < names.size(); i = i + 1) {
    print("FIRST NAME: " + (string) names.get(i));
  }
}
)THINJ";
  }

  void TearDown() override { remove(Program.c_str()); }

  std::string run(const std::string &Args, int *Status = nullptr) {
    std::string Out;
    int S = runCapture(std::string(ToolPath) + " " + Program + " " + Args,
                       Out);
    if (Status)
      *Status = S;
    return Out;
  }

  std::string Program;
};

} // namespace

TEST_F(CliTest, RunExecutesTheProgram) {
  std::string Out = run("--run --int 1 --in \"John Doe\"");
  EXPECT_NE(Out.find("FIRST NAME: Joh"), std::string::npos) << Out;
}

TEST_F(CliTest, ThinSliceFindsTheBugLine) {
  std::string Out = run("--line 15");
  EXPECT_NE(Out.find("thin slice from line 15"), std::string::npos) << Out;
  // The buggy substring (user line 7) is in the slice; runtime lines
  // are tagged.
  EXPECT_NE(Out.find("readNames:7"), std::string::npos) << Out;
  EXPECT_NE(Out.find("[runtime]"), std::string::npos) << Out;
}

TEST_F(CliTest, TraditionalIsLarger) {
  std::string Thin = run("--line 15");
  std::string Trad = run("--line 15 --mode trad");
  auto Lines = [](const std::string &S) {
    return std::count(S.begin(), S.end(), '\n');
  };
  EXPECT_GT(Lines(Trad), Lines(Thin));
}

TEST_F(CliTest, WhyNarratesProvenance) {
  std::string Out = run("--line 15 --why");
  EXPECT_NE(Out.find("[seed]"), std::string::npos) << Out;
  EXPECT_NE(Out.find("produces the value used by"), std::string::npos)
      << Out;
}

TEST_F(CliTest, StatsAndDumpIr) {
  std::string Out = run("--stats --line 15");
  EXPECT_NE(Out.find("sdg: "), std::string::npos) << Out;
  std::string Ir = run("--dump-ir");
  EXPECT_NE(Ir.find("param#"), std::string::npos) << Ir;
}

TEST_F(CliTest, DotExport) {
  std::string Out = run("--line 15 --dot cli_test_slice.dot");
  EXPECT_NE(Out.find("wrote cli_test_slice.dot"), std::string::npos) << Out;
  std::ifstream Dot("cli_test_slice.dot");
  ASSERT_TRUE(Dot.good());
  std::string First;
  std::getline(Dot, First);
  EXPECT_NE(First.find("digraph"), std::string::npos);
  remove("cli_test_slice.dot");
}

TEST_F(CliTest, ErrorsReportUserFileLines) {
  std::ofstream F(Program);
  F << "def main() { print(nope); }\n";
  F.close();
  int Status = 0;
  std::string Out = run("--line 1", &Status);
  EXPECT_NE(Status, 0);
  // Position is relative to the user's file (line 1), not the
  // prepended runtime.
  EXPECT_NE(Out.find(":1:"), std::string::npos) << Out;
  EXPECT_NE(Out.find("unknown variable"), std::string::npos) << Out;
}

TEST_F(CliTest, BadUsageExitsNonZero) {
  std::string Out;
  int Status = runCapture(std::string(ToolPath), Out);
  EXPECT_NE(Status, 0);
  EXPECT_NE(Out.find("usage:"), std::string::npos);
  // An unknown option is a usage error, whatever else is valid.
  Out = run("--line 15 --jobs 4", &Status);
  ASSERT_TRUE(WIFEXITED(Status)) << Out;
  EXPECT_EQ(WEXITSTATUS(Status), 2) << Out;
  EXPECT_NE(Out.find("unknown option --jobs"), std::string::npos) << Out;
}

TEST_F(CliTest, ContextSensitiveMode) {
  std::string Out = run("--line 15 --context-sensitive");
  EXPECT_NE(Out.find("context-sensitive slice"), std::string::npos) << Out;
  EXPECT_NE(Out.find("readNames:7"), std::string::npos) << Out;
}

TEST_F(CliTest, ChopMode) {
  std::string Out = run("--line 5 --chop 15");
  EXPECT_NE(Out.find("chop from line 5"), std::string::npos) << Out;
  EXPECT_NE(Out.find("main:15"), std::string::npos) << Out;
}

//===----------------------------------------------------------------------===//
// Strict numeric parsing (previously atoi silently turned typos into 0)
//===----------------------------------------------------------------------===//

namespace {

int exitCode(int PcloseStatus) {
  return WIFEXITED(PcloseStatus) ? WEXITSTATUS(PcloseStatus) : -1;
}

/// Pipes \p Input into `thinslice <program> <args>` on stdin.
int runInteractive(const std::string &Program, const std::string &Input,
                   const std::string &Args, std::string &Out) {
  return runCapture("printf '" + Input + "' | " + ToolPath + " " + Program +
                        " " + Args,
                    Out);
}

size_t countOccurrences(const std::string &Haystack,
                        const std::string &Needle) {
  size_t Count = 0;
  for (size_t Pos = Haystack.find(Needle); Pos != std::string::npos;
       Pos = Haystack.find(Needle, Pos + Needle.size()))
    ++Count;
  return Count;
}

} // namespace

TEST_F(CliTest, NonNumericLineIsUsageError) {
  int Status = 0;
  std::string Out = run("--line abc", &Status);
  EXPECT_EQ(exitCode(Status), 2) << Out;
  EXPECT_NE(Out.find("--line expects a positive integer"), std::string::npos)
      << Out;
}

TEST_F(CliTest, ZeroAndTrailingGarbageRejected) {
  int Status = 0;
  run("--line 0", &Status);
  EXPECT_EQ(exitCode(Status), 2);
  run("--line 15x", &Status);
  EXPECT_EQ(exitCode(Status), 2);
  run("--chop 0", &Status);
  EXPECT_EQ(exitCode(Status), 2);
  run("--line 15 --alias-depth zz", &Status);
  EXPECT_EQ(exitCode(Status), 2);
  std::string Out = run("--run --int 1x", &Status);
  EXPECT_EQ(exitCode(Status), 2) << Out;
  EXPECT_NE(Out.find("--int expects a nonzero integer"), std::string::npos)
      << Out;

  // 32-bit values are not truncated: 4294967311 = 2^32 + 15 would
  // otherwise slice line 15.
  for (const char *Args :
       {"--line 4294967311", "--line 15 --chop 4294967311",
        "--line 15 --alias-depth 4294967311",
        "--line 15 --threads 4294967311"}) {
    Out = run(Args, &Status);
    EXPECT_EQ(exitCode(Status), 2) << Args << "\n" << Out;
    EXPECT_EQ(Out.find("slice from line"), std::string::npos) << Args;
  }
  // A line that fits in 32 bits but wraps past the runtime prefix.
  Out = run("--line 4294967295", &Status);
  EXPECT_EQ(exitCode(Status), 2) << Out;
  EXPECT_NE(Out.find("line 4294967295 is out of range"), std::string::npos)
      << Out;

  const std::string Seeds = Program + ".seeds";
  for (const char *Line : {"4294967311", "4294967295"}) {
    std::ofstream(Seeds) << "15\n" << Line << "\n";
    Out = run("--seeds " + Seeds, &Status);
    EXPECT_EQ(exitCode(Status), 2) << Line << "\n" << Out;
    EXPECT_EQ(Out.find("=== seed line"), std::string::npos) << Out;
  }
  remove(Seeds.c_str());

  // The REPL reports the bad line and keeps answering.
  Status = runInteractive(Program,
                          "slice 4294967311\\nslice 4294967295\\nslice 15\\n",
                          "--interactive", Out);
  EXPECT_EQ(exitCode(Status), 0) << Out;
  EXPECT_NE(Out.find("error: slice expects a positive line number, got "
                     "'4294967311'"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("error: line 4294967295 is out of range"),
            std::string::npos)
      << Out;
  EXPECT_EQ(countOccurrences(Out, "slice from line"), 1u) << Out;
  EXPECT_NE(Out.find("thin slice from line 15"), std::string::npos) << Out;
}

TEST_F(CliTest, NegativeIntInputAccepted) {
  int Status = 0;
  run("--run --int -1", &Status);
  EXPECT_EQ(exitCode(Status), 0);
}

//===----------------------------------------------------------------------===//
// I/O failure reporting and seed-line suggestions
//===----------------------------------------------------------------------===//

TEST_F(CliTest, DotWriteFailureIsReported) {
  int Status = 0;
  std::string Out =
      run("--line 15 --dot /nonexistent-dir/slice.dot", &Status);
  EXPECT_EQ(exitCode(Status), 1) << Out;
  EXPECT_NE(Out.find("cannot write"), std::string::npos) << Out;
  EXPECT_EQ(Out.find("wrote "), std::string::npos) << Out;
}

TEST_F(CliTest, NoStatementErrorSuggestsNearestLines) {
  // Line 1 of the fixture file is blank; 2 and 3 carry statements.
  int Status = 0;
  std::string Out = run("--line 1", &Status);
  EXPECT_EQ(exitCode(Status), 1) << Out;
  EXPECT_NE(Out.find("no statement at line 1"), std::string::npos) << Out;
  EXPECT_NE(Out.find("nearest statement lines:"), std::string::npos) << Out;
}

//===----------------------------------------------------------------------===//
// Budgets, faults, and degradation exit codes
//===----------------------------------------------------------------------===//

TEST_F(CliTest, GenerousBudgetCompletes) {
  int Status = 0;
  std::string Out = run("--line 15 --budget-ms 60000", &Status);
  EXPECT_EQ(exitCode(Status), 0) << Out;
  EXPECT_NE(Out.find("pipeline: complete"), std::string::npos) << Out;
  EXPECT_NE(Out.find("thin slice from line 15"), std::string::npos) << Out;
}

TEST_F(CliTest, InjectedSliceFaultDegradesWithExitThree) {
  int Status = 0;
  std::string Out = run("--line 15 --fault slice.pop", &Status);
  EXPECT_EQ(exitCode(Status), 3) << Out;
  EXPECT_NE(Out.find("pipeline: degraded"), std::string::npos) << Out;
  EXPECT_NE(Out.find("fault:slice.pop"), std::string::npos) << Out;
}

TEST_F(CliTest, StrictBudgetRefusesDegradedResult) {
  int Status = 0;
  std::string Out = run("--line 15 --fault slice.pop --strict-budget",
                        &Status);
  EXPECT_EQ(exitCode(Status), 4) << Out;
  EXPECT_NE(Out.find("refusing degraded result"), std::string::npos) << Out;
}

TEST_F(CliTest, UnknownFaultPointIsUsageError) {
  int Status = 0;
  std::string Out = run("--line 15 --fault no.such.point", &Status);
  EXPECT_EQ(exitCode(Status), 2) << Out;
  EXPECT_NE(Out.find("known points:"), std::string::npos) << Out;
}

TEST_F(CliTest, RunStepsTerminatesInfiniteLoop) {
  std::ofstream F(Program);
  F << "def main() {\n"
       "  var i = 0;\n"
       "  while (i < 10) { print(i); i = i - i; }\n"
       "}\n";
  F.close();
  int Status = 0;
  std::string Out = run("--run --run-steps 500", &Status);
  EXPECT_EQ(exitCode(Status), 3) << Out;
  EXPECT_NE(Out.find("step limit exceeded"), std::string::npos) << Out;
}

//===----------------------------------------------------------------------===//
// Interactive mode: one warm session answering repeated queries
//===----------------------------------------------------------------------===//

TEST_F(CliTest, InteractiveRepeatQueryIsAFullCacheHit) {
  std::string Out;
  int Status = runInteractive(
      Program, "slice 15\\nslice 15\\nstats\\nquit\\n", "--interactive", Out);
  EXPECT_EQ(exitCode(Status), 0) << Out;
  // Both queries answered, identically formatted to the one-shot path.
  EXPECT_EQ(countOccurrences(Out, "thin slice from line 15"), 2u) << Out;
  EXPECT_NE(Out.find("readNames:7"), std::string::npos) << Out;
  // The second query never recomputed anything: every analysis stage
  // ran once, and the repeated slice was served from the memo.
  EXPECT_NE(Out.find("session stages (memoization):"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("slice: hits=1 misses=1"), std::string::npos) << Out;
  for (const char *Stage : {"compile:", "pta:", "sdg:", "engine:"}) {
    size_t Pos = Out.find(Stage);
    ASSERT_NE(Pos, std::string::npos) << Stage << "\n" << Out;
    EXPECT_NE(Out.find("misses=1", Pos), std::string::npos) << Stage;
  }
}

TEST_F(CliTest, InteractiveModeAndContextSwitches) {
  std::string Out;
  runInteractive(Program,
                 "mode trad\\nslice 15\\ncs on\\nslice 15\\ncs off\\n"
                 "mode thin\\nslice 15\\n",
                 "--interactive", Out);
  EXPECT_NE(Out.find("traditional slice from line 15"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("context-sensitive slice from line 15"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("thin slice from line 15"), std::string::npos) << Out;
}

TEST_F(CliTest, InteractiveErrorsKeepTheLoopAlive) {
  std::string Out;
  int Status = runInteractive(
      Program, "slice x\\nbogus\\nmode nope\\nslice 15\\n", "--interactive",
      Out);
  EXPECT_EQ(exitCode(Status), 0) << Out;
  EXPECT_NE(Out.find("error: slice expects a positive line number, got 'x'"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("error: unknown command 'bogus'"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("error: mode expects thin|trad"), std::string::npos)
      << Out;
  // The loop survived all three errors and still answered the query.
  EXPECT_NE(Out.find("thin slice from line 15"), std::string::npos) << Out;
}

TEST_F(CliTest, InteractiveStatsFlagPrintsTelemetryAtExit) {
  std::string Out;
  runInteractive(Program, "slice 15\\n", "--interactive --stats", Out);
  // No explicit stats command: the --stats flag reports the session
  // block once the input ends.
  EXPECT_NE(Out.find("session stages (memoization):"), std::string::npos)
      << Out;
}

//===----------------------------------------------------------------------===//
// Incremental sessions: --incremental, edit, reload
//===----------------------------------------------------------------------===//

TEST_F(CliTest, IncrementalFlagStrictlyParsed) {
  int Status = 0;
  std::string Out = run("--line 15 --incremental bogus", &Status);
  EXPECT_NE(exitCode(Status), 0) << Out;
  EXPECT_NE(Out.find("error: --incremental expects on|off, got 'bogus'"),
            std::string::npos)
      << Out;
  Out = run("--line 15 --incremental", &Status);
  EXPECT_NE(exitCode(Status), 0) << Out;
  EXPECT_NE(Out.find("--incremental expects on|off"), std::string::npos)
      << Out;
  Out = run("--line 15 --incremental off", &Status);
  EXPECT_EQ(exitCode(Status), 0) << Out;
  EXPECT_NE(Out.find("thin slice from line 15"), std::string::npos) << Out;
}

TEST_F(CliTest, InteractiveIncrementalReloadIsAppliedInPlace) {
  // A no-edit reload through the incremental path: zero dirty bodies,
  // every function reused, analyses re-keyed verbatim.
  std::string Out;
  int Status = runInteractive(Program, "slice 15\\nreload\\nslice 15\\nstats\\n",
                              "--interactive --incremental on", Out);
  EXPECT_EQ(exitCode(Status), 0) << Out;
  EXPECT_EQ(countOccurrences(Out, "thin slice from line 15"), 2u) << Out;
  EXPECT_NE(Out.find("incremental: attempts=1 applied=1"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("fn_recompiled=0"), std::string::npos) << Out;
}

TEST_F(CliTest, InteractiveIncrementalEditMatchesOneShotAnswer) {
  // `edit FILE2` where FILE2 differs from the running program by one
  // function body: the session recompiles only that body, updates the
  // analyses in place, and the post-edit slice is byte-identical to a
  // one-shot run on FILE2.
  const std::string Program2 = Program + ".edited.tsj";
  {
    std::ifstream In(Program);
    std::string Src((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
    // Edit main's loop header: a body whose retracted allocation
    // sites define no contexts, so the update must stay on the fast
    // path (editing readNames would retract the Vector receiver and
    // soundly decline to a cold rebuild instead).
    const std::string Old = "i < names.size(); i = i + 1";
    const size_t At = Src.find(Old);
    ASSERT_NE(At, std::string::npos);
    Src.replace(At, Old.size(), "i < names.size(); i = i + 2 - 1");
    std::ofstream OutF(Program2);
    OutF << Src;
  }
  std::string OneShot;
  runCapture(std::string(ToolPath) + " " + Program2 + " --line 15", OneShot);
  const size_t HeadAt = OneShot.find("thin slice from line 15");
  ASSERT_NE(HeadAt, std::string::npos) << OneShot;
  const std::string Head =
      OneShot.substr(HeadAt, OneShot.find('\n', HeadAt) - HeadAt);

  std::string Out;
  int Status = runInteractive(
      Program, "slice 15\\nedit " + Program2 + "\\nslice 15\\nstats\\n",
      "--interactive --incremental on", Out);
  remove(Program2.c_str());
  EXPECT_EQ(exitCode(Status), 0) << Out;
  EXPECT_EQ(countOccurrences(Out, "thin slice from line 15"), 2u) << Out;
  // The post-edit answer is the one-shot answer for the edited file.
  EXPECT_NE(Out.find(Head), std::string::npos) << Head << "\n" << Out;
  // And it was produced by the fast path: one body recompiled,
  // everything else reused, points-to updated in place, no stage
  // falling back (the SDG is rebuilt cold by the next slice).
  EXPECT_NE(Out.find("incremental: attempts=1 applied=1"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("fn_recompiled=1 pta_updates=1"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("cold_fallbacks=0 stage_fallbacks=0"),
            std::string::npos)
      << Out;
}

TEST_F(CliTest, InteractiveEditErrorsKeepTheLoopAlive) {
  std::string Out;
  int Status = runInteractive(
      Program, "edit\\nedit no_such_file.tsj\\nslice 15\\n",
      "--interactive --incremental on", Out);
  EXPECT_EQ(exitCode(Status), 0) << Out;
  EXPECT_NE(Out.find("error: edit expects a file path"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("error: cannot open no_such_file.tsj"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("thin slice from line 15"), std::string::npos) << Out;
}

//===----------------------------------------------------------------------===//
// Failure isolation: stage crashes, bounded retry, and exit code 5
//===----------------------------------------------------------------------===//

TEST_F(CliTest, PersistentStageCrashExitsFive) {
  // A fault that throws on every attempt exhausts the bounded retry;
  // the tool reports WHICH stage failed and exits 5 — distinct from a
  // compile error (1) and from sound degradation (3/4).
  int Status = 0;
  std::string Out = run("--line 15 --fault pta.solve:1:throw", &Status);
  EXPECT_EQ(exitCode(Status), 5) << Out;
  EXPECT_NE(Out.find("points-to stage failed"), std::string::npos) << Out;
  EXPECT_NE(Out.find("pta.solve"), std::string::npos) << Out;
}

TEST_F(CliTest, TransientStageCrashIsRetriedInvisibly) {
  // :once disarms after the first fire; the retry reruns the stage
  // clean, so the user sees a normal complete run.
  int Status = 0;
  std::string Out = run("--line 15 --fault pta.solve:1:throw:once", &Status);
  EXPECT_EQ(exitCode(Status), 0) << Out;
  EXPECT_NE(Out.find("thin slice from line 15"), std::string::npos) << Out;
}

TEST_F(CliTest, InteractiveSurvivesFailingQueries) {
  // Both queries fail while the fault stays armed, but neither kills
  // the REPL: each reports the failure, the loop keeps reading, and
  // quitting is a clean exit.
  std::string Out;
  int Status = runInteractive(Program, "slice 15\\nslice 15\\nquit\\n",
                              "--interactive --fault pta.solve:1:throw", Out);
  EXPECT_EQ(exitCode(Status), 0) << Out;
  EXPECT_EQ(countOccurrences(Out, "session remains usable"), 2u) << Out;
  EXPECT_EQ(Out.find("thin slice from line 15"), std::string::npos) << Out;
}

//===----------------------------------------------------------------------===//
// Persistent snapshots: --save-snapshot / --load-snapshot / --cache-dir
//===----------------------------------------------------------------------===//

TEST_F(CliTest, SnapshotFlagsRequireAnArgument) {
  int Status = 0;
  std::string Out = run("--save-snapshot", &Status);
  EXPECT_EQ(exitCode(Status), 2) << Out;
  EXPECT_NE(Out.find("usage:"), std::string::npos) << Out;
  Out = run("--load-snapshot", &Status);
  EXPECT_EQ(exitCode(Status), 2) << Out;
  Out = run("--cache-dir", &Status);
  EXPECT_EQ(exitCode(Status), 2) << Out;
}

TEST_F(CliTest, SaveToUnwritablePathExitsFive) {
  int Status = 0;
  std::string Out =
      run("--save-snapshot /nonexistent-dir/s.tslsnap", &Status);
  EXPECT_EQ(exitCode(Status), 5) << Out;
  EXPECT_NE(Out.find("cannot write"), std::string::npos) << Out;
}

TEST_F(CliTest, WarmStartSliceIsIdenticalToCold) {
  const std::string Snap = Program + ".tslsnap";
  int Status = 0;
  std::string Cold = run("--line 15 --save-snapshot " + Snap, &Status);
  EXPECT_EQ(exitCode(Status), 0) << Cold;
  std::string Warm = run("--line 15 --load-snapshot " + Snap, &Status);
  EXPECT_EQ(exitCode(Status), 0) << Warm;
  remove(Snap.c_str());
  // The warm-started query prints byte-identical slice output.
  EXPECT_EQ(Cold, Warm);
  EXPECT_NE(Warm.find("thin slice from line 15"), std::string::npos) << Warm;
}

TEST_F(CliTest, LoadFromMissingSnapshotFallsBackCold) {
  int Status = 0;
  std::string Out =
      run("--line 15 --load-snapshot no_such_snapshot.tslsnap --stats",
          &Status);
  // The fallback is a warning, not a failure: the query still runs
  // cold and the telemetry records the declined load.
  EXPECT_EQ(exitCode(Status), 0) << Out;
  EXPECT_NE(Out.find("snapshot: cannot read"), std::string::npos) << Out;
  EXPECT_NE(Out.find("thin slice from line 15"), std::string::npos) << Out;
  EXPECT_NE(Out.find("fallbacks=1"), std::string::npos) << Out;
  EXPECT_NE(Out.find("last_fallback:"), std::string::npos) << Out;
}

TEST_F(CliTest, CacheDirMissThenHit) {
  const std::string Dir = Program + ".cache";
  int Status = 0;
  std::string First = run("--line 15 --cache-dir " + Dir + " --stats",
                          &Status);
  EXPECT_EQ(exitCode(Status), 0) << First;
  EXPECT_NE(First.find("cache_misses=1"), std::string::npos) << First;
  EXPECT_NE(First.find("saves=1"), std::string::npos) << First;
  std::string Second = run("--line 15 --cache-dir " + Dir + " --stats",
                           &Status);
  EXPECT_EQ(exitCode(Status), 0) << Second;
  EXPECT_NE(Second.find("cache_hits=1"), std::string::npos) << Second;
  EXPECT_NE(Second.find("loads=1"), std::string::npos) << Second;
  // Identical answers either way.
  const size_t ColdAt = First.find("thin slice from line 15");
  const size_t WarmAt = Second.find("thin slice from line 15");
  ASSERT_NE(ColdAt, std::string::npos) << First;
  ASSERT_NE(WarmAt, std::string::npos) << Second;
  EXPECT_EQ(First.substr(ColdAt, First.find("session stages", ColdAt) - ColdAt),
            Second.substr(WarmAt, Second.find("session stages", WarmAt) -
                                      WarmAt));
  runCapture("rm -rf " + Dir, First);
}

TEST_F(CliTest, InteractiveSaveAndLoadCommands) {
  const std::string Snap = Program + ".repl.tslsnap";
  std::string Out;
  int Status = runInteractive(Program,
                              "slice 15\\nsave " + Snap + "\\nload " + Snap +
                                  "\\nslice 15\\nsave\\nload bogus.tslsnap\\n",
                              "--interactive", Out);
  remove(Snap.c_str());
  EXPECT_EQ(exitCode(Status), 0) << Out;
  EXPECT_NE(Out.find("saved snapshot " + Snap), std::string::npos) << Out;
  EXPECT_NE(Out.find("loaded snapshot " + Snap), std::string::npos) << Out;
  EXPECT_EQ(countOccurrences(Out, "thin slice from line 15"), 2u) << Out;
  EXPECT_NE(Out.find("error: save expects a file path"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("snapshot: cannot read bogus.tslsnap"),
            std::string::npos)
      << Out;
}

TEST_F(CliTest, AllCompileErrorsAreReportedWithPositions) {
  // The recovering parser surfaces every mistake in one run, each at
  // its user-file position — not just the first.
  std::ofstream F(Program);
  F << "def main() {\n"
       "  var a = 1\n"
       "  var b = 2\n"
       "  var c = ;\n"
       "  a = = 5;\n"
       "  print(\"x\")\n"
       "  print(\"y\");\n"
       "}\n";
  F.close();
  int Status = 0;
  std::string Out = run("--line 7", &Status);
  EXPECT_EQ(exitCode(Status), 1) << Out;
  EXPECT_EQ(countOccurrences(Out, ": error: "), 5u) << Out;
  for (const char *Pos : {":2:", ":3:", ":4:", ":5:", ":6:"})
    EXPECT_NE(Out.find(Pos), std::string::npos) << Pos << "\n" << Out;
}
