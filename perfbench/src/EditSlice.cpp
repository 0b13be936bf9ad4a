//===-- EditSlice.cpp - Edits and slices against a warm daemon -----------===//
//
// One editor connection runs an open loop on a fixed schedule: each
// edit rewrites one literal in a seeded padding method (same line
// count), then slices at a line of that method; latency runs from when
// the edit was due, so a stall also charges the edits queued behind
// it. Two readers keep sending thin slices in a closed loop. An edit
// holds the daemon's session exclusively, so a change that speeds
// edits but slows readers (or the reverse) shows here.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "pipeline/Session.h"
#include "slicer/Report.h"

#include <cstdio>

#include <unistd.h>

using namespace tsl;

namespace pb {

namespace {

constexpr unsigned NumReaders = 2;
/// Edits per second of the open-loop editor. An edit holds the session
/// for about half a second at pad-400; one every two seconds keeps the
/// editor far from saturation, where reader throughput would collapse
/// with any slowdown of the machine.
constexpr double EditRate = 0.5;

struct EditorStats {
  std::vector<double> EditToSliceMs;
  std::vector<double> LateMs; ///< How late each edit was sent.
  uint64_t Sent = 0, Failed = 0, Retries = 0, ColdRebuilds = 0;
};

/// Runs the editor's schedule until \p Deadline. \p ES carries the
/// source across phases, so the daemon and the stream stay in step.
void editorLoop(ServiceClient &C, const std::string &Sid, const Subject &S,
                EditStream &ES, Clock::time_point Deadline,
                EditorStats &Out) {
  auto Start = Clock::now();
  ServiceResponse Resp;
  for (unsigned I = 0;; ++I) {
    auto Due = Start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(I / EditRate));
    if (Due >= Deadline)
      break;
    unsigned SliceLine = 0;
    std::string Src = ES.next(SliceLine);
    std::this_thread::sleep_until(Due);
    Out.LateMs.push_back(msSince(Due));
    Out.Sent += 2;
    Span Sp("client.edit_to_slice", I);
    Status St;
    {
      Span Edit("client.edit", I);
      St = C.edit(Sid, Src, Resp);
    }
    bool Ok = St.isOk() && Resp.Code == ServiceStatus::Ok;
    Out.ColdRebuilds += Ok && Resp.Detail != "incremental";
    Out.Retries += St.isOk() && Resp.Code == ServiceStatus::Retry;
    if (Ok) {
      Span Slice("client.request", I);
      St = C.slice(Sid, S.userLine(SliceLine), SliceMode::Thin, Resp);
      Ok = St.isOk() && Resp.Code == ServiceStatus::Ok;
      Out.Retries += St.isOk() && Resp.Code == ServiceStatus::Retry;
    }
    if (!Ok) {
      ++Out.Failed;
      continue;
    }
    Out.EditToSliceMs.push_back(msSince(Due));
  }
}

} // namespace

Result runEditSlice(const Options &O, const Subject &S) {
  Result R;
  std::string Sock = StateDir + "/es" + std::to_string(getpid()) + ".sock";

  // Set-up: a daemon holding the program in an incremental session.
  std::vector<double> Setup;
  std::unique_ptr<Daemon> D;
  std::vector<std::unique_ptr<ServiceClient>> Clients;
  std::string Sid;
  for (unsigned I = 0; I != SetupRepeats; ++I) {
    Clients.clear();
    D.reset();
    releaseFreedMemory();
    auto T0 = Clock::now();
    D = std::make_unique<Daemon>(Sock);
    Clients.push_back(std::make_unique<ServiceClient>());
    Sid = connectAndLoad(*Clients.back(), *D, S, S.Source, true);
    Setup.push_back(msSince(T0) / 1000.0);
  }
  for (unsigned C = 0; C != NumReaders; ++C) {
    Clients.push_back(std::make_unique<ServiceClient>());
    if (connectAndLoad(*Clients.back(), *D, S, S.Source, true) != Sid)
      Sid.clear();
  }
  if (Sid.empty()) {
    R.mismatch("daemon did not load the program");
    return R;
  }

  EditStream ES(S, O.Seed);
  struct PhaseStats {
    EditorStats Editor;
    LoopStats Readers;
  };
  auto Phase = [&](double Seconds, uint64_t Salt) {
    PhaseStats P;
    std::vector<LoopStats> Readers(NumReaders);
    auto Deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(Seconds));
    std::vector<std::thread> Threads;
    Threads.emplace_back(
        [&] { editorLoop(*Clients[0], Sid, S, ES, Deadline, P.Editor); });
    for (unsigned C = 0; C != NumReaders; ++C)
      Threads.emplace_back([&, C] {
        Rng Gen(O.Seed * 1000 + Salt * 10 + C);
        closedLoop(*Clients[1 + C], Sid, S, Gen, false, Deadline, Readers[C]);
      });
    for (std::thread &T : Threads)
      T.join();
    for (LoopStats &L : Readers) {
      P.Readers.AllMs.insert(P.Readers.AllMs.end(), L.AllMs.begin(),
                             L.AllMs.end());
      P.Readers.Sent += L.Sent;
      P.Readers.Failed += L.Failed;
      P.Readers.Retries += L.Retries;
    }
    R.Attempted += P.Readers.Sent + P.Editor.Sent;
    R.Failed += P.Readers.Failed + P.Editor.Failed;
    R.Retries += P.Readers.Retries + P.Editor.Retries;
    return P;
  };
  double Secs = O.Trace ? O.Seconds / 2 : O.Seconds;
  PhaseStats Main = Phase(Secs, 1);
  double PeakRss = peakRssMb();
  PhaseStats Traced;
  if (O.Trace) {
    tracer().setOn(true);
    Traced = Phase(Secs, 2);
  }
  tracer().setOn(false);

  // After the last edit the daemon's incremental session must answer
  // exactly like a cold build of the final source.
  AnalysisSession Cold(ES.source());
  const SDG *G = Cold.sdg();
  if (!G) {
    R.mismatch("cold build of the final source failed");
    return R;
  }
  Rng Check(O.Seed ^ 0xC4ECull);
  ServiceResponse Resp;
  for (unsigned I = 0; I != 24; ++I) {
    Request Q;
    Q.Mode = I % 4 == 3 ? SliceMode::Traditional : SliceMode::Thin;
    Q.Lines = I < 8 ? std::vector<unsigned>{S.Sites[Check.below(
                          static_cast<unsigned>(S.Sites.size()))]
                                                .SliceLine}
                    : drawLines(S, Check, 1);
    ++R.Attempted;
    if (!Clients[0]
             ->slice(Sid, S.userLine(Q.Lines.front()), Q.Mode, Resp)
             .isOk() ||
        Resp.Code != ServiceStatus::Ok ||
        Resp.Body != expectedBody(*G, S, Q))
      R.mismatch("after the edits the daemon answers differently from a "
                 "cold build of the final source");
  }

  uint64_t Edits = Main.Editor.EditToSliceMs.size();
  R.Notes.push_back(
      {"editor", std::to_string(Edits) + " edits at " +
                     std::to_string(EditRate) + "/s, " +
                     std::to_string(Main.Editor.ColdRebuilds) +
                     " took the cold path; generator late p50 " +
                     std::to_string(median(Main.Editor.LateMs)) + " ms, max " +
                     std::to_string(quantile(Main.Editor.LateMs, 1)) + " ms"});
  if (!O.Trace) {
    const std::vector<double> &E2S = Main.Editor.EditToSliceMs;
    R.metric("setup_s", median(Setup), "s", Setup.size());
    R.metric("latency_p50_ms", median(E2S), "ms", E2S.size());
    R.metric("latency_tail_ms", quantile(E2S, 0.9), "ms", E2S.size());
    R.metric("warm_slice_p50_ms", median(Main.Readers.AllMs), "ms",
             Main.Readers.AllMs.size());
    R.metric("answers_per_s",
             static_cast<double>(Main.Readers.AllMs.size() + E2S.size()) /
                 Secs,
             "1/s", Main.Readers.AllMs.size() + E2S.size());
    R.metric("peak_rss_mb", PeakRss, "MB");
    R.SampleSets["edit_to_slice_ms"] = E2S;
    R.SampleSets["generator_late_ms"] = Main.Editor.LateMs;
    R.SampleSets["reader_query_ms"] = Main.Readers.AllMs;
    R.SampleSets["setup_s"] = Setup;
    return R;
  }

  // Traced: the same edits replayed in-process, then the other layers.
  tracer().setOn(true);
  Rng Lines(O.Seed ^ 0x5E7ull);
  probeService(S, R, *Clients[0], Sid, *G, drawLines(S, Lines, 64));
  Clients.clear();
  D.reset();
  probeIncremental(S, R, "", O.Seed, 12);

  std::string Answer;
  coldFirstSlice(S, R, Answer);
  ColdBuild B;
  coldFirstSliceTraced(S, R, B, false);
  probeOffPath(S, R, B, O.Seed);
  B = ColdBuild();
  // The first reader's first requests of the traced phase, in-process.
  double Stmts = 0, Bytes = 0;
  Rng Gen(O.Seed * 1000 + 20);
  for (unsigned I = 0; I != 64; ++I)
    replay(*G, S, drawRequest(S, Gen, false), R, Stmts, Bytes);
  R.count("slicer.slice_stmts", Stmts);
  R.count("render.bytes", Bytes);
  // Snapshot the program as loaded, not the edited one, so the byte
  // count does not depend on how many edits the run fitted in.
  AnalysisSession Initial(S.Source);
  Initial.sdg();
  std::string Snap = StateDir + "/es" + std::to_string(getpid()) + ".snap";
  probeSnapshot(S, R, Initial, Snap);
  std::remove(Snap.c_str());
  layerMetrics(R, median(Traced.Editor.EditToSliceMs) -
                      median(Main.Editor.EditToSliceMs));
  return R;
}

} // namespace pb
