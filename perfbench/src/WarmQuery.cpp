//===-- WarmQuery.cpp - Closed-loop queries against a warm daemon --------===//
//
// Four clients, each sending its next request when the previous reply
// arrives (an editor or a script waits for each answer), against one
// in-process daemon that loaded the pad-400 program during set-up.
// Compile, points-to and SDG construction never run in the measured
// loop: seed lookup, slicing, per-request condensation, rendering and
// the socket protocol do.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "pipeline/Session.h"
#include "slicer/Engine.h"
#include "slicer/Report.h"

#include <cstdio>

#include <unistd.h>

using namespace tsl;

namespace pb {

Request drawRequest(const Subject &S, Rng &R, bool Mix) {
  Request Q;
  unsigned P = Mix ? R.below(100) : 0;
  Q.Batch = P >= 90;
  Q.Mode = P >= 70 && P < 90 ? SliceMode::Traditional : SliceMode::Thin;
  Q.Lines = drawLines(S, R, Q.Batch ? 32 : 1);
  return Q;
}

namespace {

Status send(ServiceClient &C, const std::string &Sid, const Subject &S,
            const Request &Q, ServiceResponse &Resp) {
  if (!Q.Batch)
    return C.slice(Sid, S.userLine(Q.Lines.front()), Q.Mode, Resp);
  std::vector<uint32_t> Lines;
  for (unsigned L : Q.Lines)
    Lines.push_back(S.userLine(L));
  return C.batchSlice(Sid, Lines, Q.Mode, Resp);
}

/// The daemon's batch body layout around per-seed reports.
std::string batchBody(const Subject &S, const Request &Q,
                      const std::vector<std::string> &Reports) {
  std::string Body;
  for (std::size_t I = 0; I != Q.Lines.size(); ++I)
    Body += "=== seed line " + std::to_string(S.userLine(Q.Lines[I])) +
            " ===\n" + Reports[I];
  return Body;
}

} // namespace

void replay(const SDG &G, const Subject &S, const Request &Q, Result &R,
            double &Stmts, double &Bytes) {
  ++R.Attempted;
  std::vector<const Instr *> Seeds;
  {
    Span Sp("slicer.seed");
    for (unsigned L : Q.Lines)
      Seeds.push_back(seedAtLine(G.program(), L));
  }
  std::vector<SliceResult> Slices;
  if (Q.Batch) {
    BatchOptions BO;
    BO.Mode = Q.Mode;
    BO.Jobs = 1;
    std::unique_ptr<SliceEngine> E;
    {
      Span Sp("engine.batch_cold");
      E = std::make_unique<SliceEngine>(G, nullptr);
      Slices = E->sliceBackwardBatch(Seeds, BO);
    }
    Span Sp("engine.batch_warm");
    Slices = E->sliceBackwardBatch(Seeds, BO);
  } else {
    Span Sp(Q.Mode == SliceMode::Thin ? "slicer.thin" : "slicer.trad");
    Slices.push_back(sliceBackward(G, Seeds.front(), Q.Mode));
  }
  std::string Body;
  {
    Span Sp("render.report");
    std::vector<std::string> Reports;
    for (std::size_t I = 0; I != Slices.size(); ++I)
      Reports.push_back(renderAnswer(Slices[I], S, Q.Lines[I], Q.Mode));
    Body = Q.Batch ? batchBody(S, Q, Reports) : Reports.front();
  }
  for (const SliceResult &Slice : Slices)
    Stmts += Slice.sizeStmts();
  Bytes += static_cast<double>(Body.size());
  if (Body != expectedBody(G, S, Q))
    R.mismatch("in-process answer differs from the reference slicer");
}

std::string expectedBody(const SDG &G, const Subject &S, const Request &Q) {
  std::vector<std::string> Reports;
  for (unsigned L : Q.Lines)
    Reports.push_back(referenceAnswer(G, S, L, Q.Mode));
  return Q.Batch ? batchBody(S, Q, Reports) : Reports.front();
}

void closedLoop(ServiceClient &C, const std::string &Sid, const Subject &S,
                Rng &Gen, bool Mix, Clock::time_point Deadline,
                LoopStats &Out) {
  ServiceResponse Resp;
  while (Clock::now() < Deadline) {
    Request Q = drawRequest(S, Gen, Mix);
    Span Sp("client.request", Out.Sent);
    auto T0 = Clock::now();
    Status St = send(C, Sid, S, Q, Resp);
    double Ms = msSince(T0);
    Sp.close();
    ++Out.Sent;
    if (!St.isOk() || Resp.Code != ServiceStatus::Ok) {
      ++Out.Failed;
      Out.Retries += St.isOk() && Resp.Code == ServiceStatus::Retry;
      continue;
    }
    Out.AllMs.push_back(Ms);
    if (!Q.Batch && Q.Mode == SliceMode::Thin)
      Out.ThinMs.push_back(Ms);
    if (Out.Sent % 8 == 1 && Out.Kept.size() < 64)
      Out.Kept.push_back({std::move(Q), Resp.Body.size(), digest(Resp.Body)});
  }
}

void checkKept(const SDG &G, const Subject &S, const LoopStats &L,
               Result &R) {
  for (const LoopStats::KeptAnswer &K : L.Kept) {
    std::string Expected = expectedBody(G, S, K.Q);
    if (K.Size != Expected.size() || K.Digest != digest(Expected))
      R.mismatch("daemon answer differs from the reference slicer");
  }
}

Result runWarmQuery(const Options &O, const Subject &S) {
  // One client per CPU of the 4-core host keeps every CPU busy, so a
  // run's medians average over all of them rather than over the ones a
  // neighbour happens to leave fast. In alternating 10 s runs the
  // median query varied by 16% (coefficient of variation) with one
  // client, 5-8% with three and 2-3% with four.
  constexpr unsigned NumClients = 4;
  Result R;
  std::string Sock = StateDir + "/wq" + std::to_string(getpid()) + ".sock";

  // Set-up: a daemon that has loaded the program (a cold build inside
  // it). Repeated; the last daemon serves the run.
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
    Sid = connectAndLoad(*Clients.back(), *D, S, S.Source, false);
    Setup.push_back(msSince(T0) / 1000.0);
  }
  for (unsigned C = 1; C != NumClients; ++C) {
    Clients.push_back(std::make_unique<ServiceClient>());
    if (connectAndLoad(*Clients.back(), *D, S, S.Source, false) != Sid)
      Sid.clear();
  }
  if (Sid.empty()) {
    R.mismatch("daemon did not load the program");
    return R;
  }

  // The measured loop. A traced run measures half of it untraced and
  // half traced, so the difference is the tracing overhead.
  auto Phase = [&](double Seconds, uint64_t Salt) {
    std::vector<LoopStats> Stats(NumClients);
    std::vector<std::thread> Threads;
    auto Deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(Seconds));
    for (unsigned C = 0; C != NumClients; ++C)
      Threads.emplace_back([&, C] {
        Rng Gen(O.Seed * 1000 + Salt * 10 + C);
        closedLoop(*Clients[C], Sid, S, Gen, true, Deadline, Stats[C]);
      });
    for (std::thread &T : Threads)
      T.join();
    LoopStats All;
    for (LoopStats &L : Stats) {
      All.AllMs.insert(All.AllMs.end(), L.AllMs.begin(), L.AllMs.end());
      All.ThinMs.insert(All.ThinMs.end(), L.ThinMs.begin(), L.ThinMs.end());
      All.Sent += L.Sent;
      All.Failed += L.Failed;
      All.Retries += L.Retries;
      for (auto &K : L.Kept)
        All.Kept.push_back(std::move(K));
    }
    R.Attempted += All.Sent;
    R.Failed += All.Failed;
    R.Retries += All.Retries;
    return All;
  };
  double Secs = O.Trace ? O.Seconds / 2 : O.Seconds;
  LoopStats Main = Phase(Secs, 1);
  double PeakRss = peakRssMb();
  LoopStats Traced;
  if (O.Trace) {
    tracer().setOn(true);
    Traced = Phase(Secs, 2);
  }

  // Checks against the reference slicer on an in-process build.
  AnalysisSession Local(S.Source);
  const SDG *G = Local.sdg();
  if (!G) {
    R.mismatch("in-process build failed");
    return R;
  }
  checkKept(*G, S, Main, R);
  checkKept(*G, S, Traced, R);

  if (!O.Trace) {
    R.metric("setup_s", median(Setup), "s", Setup.size());
    R.metric("latency_p50_ms", median(Main.AllMs), "ms", Main.AllMs.size());
    R.metric("latency_tail_ms", quantile(Main.AllMs, 0.99), "ms",
             Main.AllMs.size());
    R.metric("warm_slice_p50_ms", median(Main.ThinMs), "ms",
             Main.ThinMs.size());
    R.metric("answers_per_s", static_cast<double>(Main.AllMs.size()) / Secs,
             "1/s", Main.AllMs.size());
    R.metric("peak_rss_mb", PeakRss, "MB");
    R.SampleSets["query_ms"] = Main.AllMs;
    R.SampleSets["thin_query_ms"] = Main.ThinMs;
    R.SampleSets["setup_s"] = Setup;
    return R;
  }

  // Traced: replay in-process the first requests each client sent in
  // the traced phase (its generators are seeded with salt 2), a fixed
  // prefix so the summed counts repeat for the seed.
  double Stmts = 0, Bytes = 0;
  for (unsigned C = 0; C != NumClients; ++C) {
    Rng Gen(O.Seed * 1000 + 20 + C);
    for (unsigned I = 0; I != 40; ++I)
      replay(*G, S, drawRequest(S, Gen, true), R, Stmts, Bytes);
  }
  R.count("slicer.slice_stmts", Stmts);
  R.count("render.bytes", Bytes);
  Rng Lines(O.Seed ^ 0x5E7ull);
  probeService(S, R, *Clients[0], Sid, *G, drawLines(S, Lines, 64));
  Clients.clear();
  D.reset();

  std::string Answer;
  coldFirstSlice(S, R, Answer);
  ColdBuild B;
  coldFirstSliceTraced(S, R, B, false);
  probeOffPath(S, R, B, O.Seed);
  B = ColdBuild();
  std::string Snap = StateDir + "/wq" + std::to_string(getpid()) + ".snap";
  probeSnapshot(S, R, Local, Snap);
  probeIncremental(S, R, Snap, O.Seed, 4);
  std::remove(Snap.c_str());
  layerMetrics(R, median(Traced.AllMs) - median(Main.AllMs));
  return R;
}

} // namespace pb
