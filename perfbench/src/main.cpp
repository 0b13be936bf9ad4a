//===-- main.cpp - The repository benchmark ------------------------------===//
//
//   perfbench --workload first-slice|warm-query|edit-slice --seed N
//             --seconds S --trace 0|1 [--code-digest D] [--commit C]
//             [--record-dir DIR]
//
// Prints a human-readable summary, an `env:` line, and as its last line
// one JSON object {correct, attempted, failed, metrics}: the end-to-end
// metrics untraced (--trace 0), the per-layer metrics traced
// (--trace 1). perfbench/run.py builds this binary and runs it.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include <unistd.h>

using namespace pb;

namespace {

/// Wall-clock limit of one run: past it the run is abandoned with a
/// nonzero exit instead of hanging.
constexpr double RunLimitSeconds = 170;

int usage(const char *Why) {
  fprintf(stderr,
          "perfbench: %s\nusage: perfbench --workload "
          "first-slice|warm-query|edit-slice --seed N --seconds S "
          "--trace 0|1 [--code-digest D] [--commit C] [--record-dir DIR]\n",
          Why);
  return 2;
}

/// Ends the process if the run overstays RunLimitSeconds.
class RunLimit {
public:
  RunLimit()
      : T([this] {
          std::unique_lock<std::mutex> L(Mu);
          if (!Cv.wait_for(L, std::chrono::duration<double>(RunLimitSeconds),
                           [this] { return Done; })) {
            fprintf(stderr, "perfbench: run exceeded %.0f s, abandoned\n",
                    RunLimitSeconds);
            _exit(3);
          }
        }) {}
  ~RunLimit() {
    {
      std::lock_guard<std::mutex> L(Mu);
      Done = true;
    }
    Cv.notify_all();
    T.join();
  }
  RunLimit(const RunLimit &) = delete;
  RunLimit &operator=(const RunLimit &) = delete;

private:
  std::mutex Mu;
  std::condition_variable Cv;
  bool Done = false;
  std::thread T;
};

} // namespace

#ifdef NDEBUG
constexpr bool Optimized = true;
#else
constexpr bool Optimized = false;
#endif

int main(int argc, char **argv) {
  // The rule bench/BenchGuard.h applies to baselines: timings from an
  // unoptimized build are refused, never recorded.
  if (!Optimized) {
    fprintf(stderr, "perfbench: refusing to measure an unoptimized build "
                    "(NDEBUG unset); configure with "
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo or Release\n");
    return 2;
  }
  Options O;
  bool HaveWorkload = false;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string Flag = argv[I], Val = argv[I + 1];
    if (Flag == "--workload") {
      O.Workload = Val;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      O.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    } else if (Flag == "--seconds") {
      O.Seconds = std::atof(Val.c_str());
    } else if (Flag == "--trace") {
      O.Trace = Val == "1";
    } else if (Flag == "--code-digest") {
      O.CodeDigest = Val;
    } else if (Flag == "--commit") {
      O.Commit = Val;
    } else if (Flag == "--record-dir") {
      O.RecordDir = Val;
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
  }
  if (argc % 2 == 0)
    return usage("every flag takes a value");
  if (!HaveWorkload || O.Seconds <= 0)
    return usage("--workload and a positive --seconds are required");

  Result (*Run)(const Options &, const Subject &) = nullptr;
  if (O.Workload == "first-slice") {
    Run = runFirstSlice;
  } else if (O.Workload == "warm-query") {
    Run = runWarmQuery;
  } else if (O.Workload == "edit-slice") {
    Run = runEditSlice;
  } else {
    return usage(("unknown workload " + O.Workload).c_str());
  }

  RunLimit Limit;
  try {
    std::filesystem::create_directories(StateDir);
    Subject S = makeSubject(O.Seed, Pad);
    Result R = Run(O, S);
    return finish(O, S, R);
  } catch (const std::exception &E) {
    fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
}
