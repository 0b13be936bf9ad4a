//===-- Workloads.h - The three workloads and the layer probes -*- C++ -*-===//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload measures one latency a ThinSlicer user waits on:
///
///   first-slice  pad-400, a cold build plus one rendered slice, then
///                snapshot warm starts answering the same slice;
///   warm-query   pad-400, four closed-loop clients querying a warm
///                in-process daemon over its Unix socket;
///   edit-slice   pad-400, an open-loop editor (edit, then slice) on the
///                daemon while two closed-loop readers keep slicing.
///
/// Untraced runs report the end-to-end metrics. Traced runs replay the
/// workload's seeded inputs in-process through the layers' public
/// functions, one span per call, and report the per-layer metrics; the
/// probes below cover, on the workload's own program, the layers its
/// stream does not call, so every traced run reports every layer.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Support.h"

#include "ir/Program.h"
#include "pta/PointsTo.h"
#include "sdg/SDG.h"

namespace tsl {
class AnalysisSession;
}

namespace pb {

Result runFirstSlice(const Options &O, const Subject &S);
Result runWarmQuery(const Options &O, const Subject &S);
Result runEditSlice(const Options &O, const Subject &S);

/// How many times set-up runs per run; setup_s is the median.
constexpr unsigned SetupRepeats = 5;

/// Padding classes of every workload's program. pad-400 keeps a cold
/// build near half a second, so a run holds tens of cold samples; the
/// SDG build is already half of it there (quadratic heap wiring).
constexpr unsigned Pad = 400;

/// One request of a seeded stream: a Slice (one line) or a 32-line
/// BatchSlice.
struct Request {
  bool Batch = false;
  tsl::SliceMode Mode = tsl::SliceMode::Thin;
  std::vector<unsigned> Lines; ///< Absolute lines.
};

/// warm-query's mix (70% thin Slice, 20% traditional Slice, 10% thin
/// BatchSlice of 32 lines) when \p Mix, else always a thin Slice.
Request drawRequest(const Subject &S, Rng &R, bool Mix);

/// What a closed-loop client saw.
struct LoopStats {
  std::vector<double> AllMs;  ///< Every Ok round trip.
  std::vector<double> ThinMs; ///< Ok single thin Slice round trips.
  uint64_t Sent = 0, Failed = 0, Retries = 0;
  /// A seeded sample of requests with the length and digest of their
  /// answers, checked afterwards. Digests, not bodies: a kept batch
  /// answer runs to megabytes and would swell the measured peak RSS.
  struct KeptAnswer {
    Request Q;
    std::size_t Size;
    uint64_t Digest;
  };
  std::vector<KeptAnswer> Kept;
};

/// Sends requests from \p Gen one after another until \p Deadline,
/// each round trip in a "client.request" span. Keeps every eighth
/// answer (at most 64) for the correctness check.
void closedLoop(tsl::ServiceClient &C, const std::string &SessionId,
                const Subject &S, Rng &Gen, bool Mix,
                Clock::time_point Deadline, LoopStats &Out);

/// Answers \p Q in-process through the layer functions, one span per
/// call, checks it against expectedBody, and adds its slice sizes and
/// rendered bytes to \p Stmts and \p Bytes.
void replay(const tsl::SDG &G, const Subject &S, const Request &Q, Result &R,
            double &Stmts, double &Bytes);

/// The daemon's body for \p Q, from the reference slicer on \p G.
std::string expectedBody(const tsl::SDG &G, const Subject &S,
                         const Request &Q);

/// Checks every kept answer of \p L against expectedBody on \p G.
void checkKept(const tsl::SDG &G, const Subject &S, const LoopStats &L,
               Result &R);

/// Artifacts of one cold build made through the layer functions.
struct ColdBuild {
  std::unique_ptr<tsl::Program> P;
  std::unique_ptr<tsl::PointsToResult> PTA;
  std::unique_ptr<tsl::SDG> G;
  std::string Answer;
};

/// The CLI's cold first slice: a fresh AnalysisSession, its SDG, one
/// thin slice at the seed marker, rendered. Tracing plays no part.
/// Returns the latency (ms); \p Answer gets the rendered slice.
double coldFirstSlice(const Subject &S, Result &R, std::string &Answer);

/// The same answer through the layer functions, one span per call
/// under a "cold_first_slice" root. Records the build's work counts;
/// with \p CountAnswer also the slice size and rendered bytes.
double coldFirstSliceTraced(const Subject &S, Result &R, ColdBuild &B,
                            bool CountAnswer);

/// Layers the cold path skips, on \p B's artifacts: parse alone,
/// mod-ref, a traditional slice, and a fresh engine's cold and warm
/// 32-seed batches.
void probeOffPath(const Subject &S, Result &R, const ColdBuild &B,
                  uint64_t Seed);

/// Saves \p Built (a session with its SDG built) to \p Path and warm
/// starts a fresh session from it.
void probeSnapshot(const Subject &S, Result &R, tsl::AnalysisSession &Built,
                   const std::string &Path);

/// Replays the first \p Edits edits of the seeded edit stream on an
/// incremental session (warm-started from \p SnapshotPath, or built
/// cold when it is empty), reslicing after each.
void probeIncremental(const Subject &S, Result &R,
                      const std::string &SnapshotPath, uint64_t Seed,
                      unsigned Edits);

/// Unloaded round trips on a connected client: pings, then thin
/// slices at \p Lines compared with the same slice and render done
/// in-process on \p G.
void probeService(const Subject &S, Result &R, tsl::ServiceClient &C,
                  const std::string &SessionId, const tsl::SDG &G,
                  const std::vector<unsigned> &Lines);

/// Turns the recorded spans and counts into the per-layer metrics.
/// \p TraceOverheadMs is traced minus untraced end-to-end time.
void layerMetrics(Result &R, double TraceOverheadMs);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H
