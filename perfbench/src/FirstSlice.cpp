//===-- FirstSlice.cpp - Cold and snapshot-warm first slices -------------===//
//
// The only workload where lang, pta, sdg and snapshot decode do most of
// the work: each iteration builds the pad-400 program cold in a fresh
// AnalysisSession and answers one rendered thin slice at the bug case's
// seed marker; then fresh sessions warm-start from the snapshot saved
// during set-up and answer the same slice.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "pipeline/Session.h"
#include "slicer/Report.h"

#include <cstdio>
#include <filesystem>

#include <unistd.h>

using namespace tsl;

namespace pb {

namespace {

/// A warm start costs a fifteenth of a cold build; repeating it keeps
/// its median as well sampled as the cold one's.
constexpr unsigned WarmStartsPerIteration = 3;

/// Warm start from \p Snap plus the same slice; checked against the
/// reference slicer and the cold answer. Returns the latency (ms).
double warmFirstSlice(const Subject &S, Result &R, const std::string &Snap,
                      const std::string &ColdAnswer) {
  ++R.Attempted;
  Span Root("warm_first_slice");
  auto T0 = Clock::now();
  AnalysisSession W(S.Source);
  Status St;
  {
    Span Sp("snapshot.load");
    St = W.loadSnapshot(Snap);
  }
  SDG *G = St.isOk() ? W.sdg() : nullptr;
  if (!G) {
    R.mismatch("snapshot warm start declined: " + St.str());
    return msSince(T0);
  }
  const Instr *Seed;
  {
    Span Sp("slicer.seed");
    Seed = seedAtLine(*W.program(), S.SeedLine);
  }
  SliceResult Slice(nullptr, BitSet());
  {
    Span Sp("slicer.thin");
    Slice = sliceBackward(*G, Seed, SliceMode::Thin);
  }
  std::string Answer;
  {
    Span Sp("render.report");
    Answer = renderAnswer(Slice, S, S.SeedLine, SliceMode::Thin);
  }
  double Ms = msSince(T0);
  Root.close();
  if (!(Slice.nodeSet() == referenceSlice(*G, Seed, SliceMode::Thin)))
    R.mismatch("warm first slice differs from the reference slicer");
  if (Answer != ColdAnswer)
    R.mismatch("warm first slice renders differently from the cold one");
  return Ms;
}

} // namespace

Result runFirstSlice(const Options &O, const Subject &S) {
  Result R;
  tracer().setOn(O.Trace);
  std::string Snap = StateDir + "/fs" + std::to_string(getpid()) + ".snap";

  // Set-up: a cold build (mod-ref included) saved as the snapshot the
  // warm starts read. Repeated; setup_s is the median.
  std::vector<double> Setup;
  for (unsigned I = 0; I != SetupRepeats; ++I) {
    Status St;
    {
      auto T0 = Clock::now();
      AnalysisSession Sess(S.Source);
      Sess.sdg();
      Sess.modRef();
      Span Sp("snapshot.save");
      St = Sess.saveSnapshot(Snap);
      Sp.close();
      Setup.push_back(msSince(T0) / 1000.0);
    }
    releaseFreedMemory();
    if (!St.isOk()) {
      R.mismatch("snapshot save declined: " + St.str());
      return R;
    }
  }
  R.count("snapshot.bytes",
          static_cast<double>(std::filesystem::file_size(Snap)));

  // The measured loop: at least three iterations, then until the time
  // is up. A traced iteration also rebuilds through the layer
  // functions, so the layer spans can be set against the untraced time.
  std::vector<double> Cold, Warm;
  auto Start = Clock::now();
  for (unsigned I = 0; I < 3 || msSince(Start) < O.Seconds * 1000; ++I) {
    std::string Answer;
    Cold.push_back(coldFirstSlice(S, R, Answer));
    if (O.Trace) {
      ColdBuild B;
      coldFirstSliceTraced(S, R, B, true);
      if (I == 0)
        probeOffPath(S, R, B, O.Seed);
      if (B.Answer != Answer)
        R.mismatch("traced cold answer differs from the session's");
    }
    for (unsigned J = 0; J != WarmStartsPerIteration; ++J)
      Warm.push_back(warmFirstSlice(S, R, Snap, Answer));
  }
  double Loop = 0;
  for (double Ms : Cold)
    Loop += Ms;
  for (double Ms : Warm)
    Loop += Ms;

  if (!O.Trace) {
    R.metric("setup_s", median(Setup), "s", Setup.size());
    R.metric("latency_p50_ms", median(Cold), "ms", Cold.size());
    R.metric("latency_tail_ms", quantile(Cold, 0.9), "ms", Cold.size());
    R.metric("warm_slice_p50_ms", median(Warm), "ms", Warm.size());
    R.metric("answers_per_s",
             static_cast<double>(Cold.size() + Warm.size()) / (Loop / 1000),
             "1/s", Cold.size() + Warm.size());
    R.metric("peak_rss_mb", peakRssMb(), "MB");
    R.SampleSets["cold_first_slice_ms"] = Cold;
    R.SampleSets["warm_first_slice_ms"] = Warm;
    R.SampleSets["setup_s"] = Setup;
    std::remove(Snap.c_str());
    return R;
  }

  // Traced: the layers the iteration does not call.
  probeIncremental(S, R, Snap, O.Seed, 4);
  {
    Daemon D(StateDir + "/fs" + std::to_string(getpid()) + ".sock");
    ServiceClient C;
    ServiceResponse Resp;
    AnalysisSession Local(S.Source);
    bool Ok = C.connect(D.path()).isOk() &&
              C.loadSnapshot(S.Source, Snap, false, S.LineOffset, Resp)
                  .isOk() &&
              Resp.Code == ServiceStatus::Ok &&
              Local.loadSnapshot(Snap).isOk() && Local.sdg();
    if (!Ok) {
      R.mismatch("daemon did not warm-start from the snapshot");
    } else {
      Rng Lines(O.Seed ^ 0x5E7ull);
      probeService(S, R, C, Resp.Body, *Local.sdg(), drawLines(S, Lines, 64));
    }
  }
  std::remove(Snap.c_str());
  layerMetrics(R, median(tracer().durationsMs("cold_first_slice")) -
                      median(R.SampleSets["cold_first_slice_untraced"]));
  return R;
}

} // namespace pb
