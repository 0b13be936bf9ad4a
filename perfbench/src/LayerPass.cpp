//===-- LayerPass.cpp - Traced calls into each layer ---------------------===//

#include "Workloads.h"

#include "lang/Lower.h"
#include "lang/Parser.h"
#include "modref/ModRef.h"
#include "pipeline/Session.h"
#include "slicer/Engine.h"
#include "slicer/Report.h"

#include <filesystem>

using namespace tsl;

namespace pb {

double coldFirstSlice(const Subject &S, Result &R, std::string &Answer) {
  ++R.Attempted;
  auto T0 = Clock::now();
  AnalysisSession Sess(S.Source);
  SDG *G = Sess.sdg();
  const Instr *Seed = G ? seedAtLine(*Sess.program(), S.SeedLine) : nullptr;
  if (!Seed) {
    R.mismatch("cold build produced no SDG or no seed statement");
    return msSince(T0);
  }
  SliceResult Slice = sliceBackward(*G, Seed, SliceMode::Thin);
  Answer = renderAnswer(Slice, S, S.SeedLine, SliceMode::Thin);
  double Ms = msSince(T0);
  // Checked after the clock stops; the session is torn down after too,
  // as a CLI's process exit would not make the user wait for it.
  if (!(Slice.nodeSet() == referenceSlice(*G, Seed, SliceMode::Thin)))
    R.mismatch("cold first slice differs from the reference slicer");
  R.SampleSets["cold_first_slice_untraced"].push_back(Ms);
  return Ms;
}

double coldFirstSliceTraced(const Subject &S, Result &R, ColdBuild &B,
                            bool CountAnswer) {
  ++R.Attempted;
  Span Root("cold_first_slice");
  auto T0 = Clock::now();
  DiagnosticEngine Diag;
  {
    Span Sp("lang.compile");
    B.P = compileThinJ(S.Source, Diag);
  }
  if (!B.P) {
    R.mismatch("subject program does not compile");
    return msSince(T0);
  }
  {
    Span Sp("pta.solve");
    B.PTA = runPointsTo(*B.P);
  }
  {
    Span Sp("sdg.build");
    B.G = buildSDG(*B.P, *B.PTA, nullptr);
  }
  const Instr *Seed;
  {
    Span Sp("slicer.seed");
    Seed = seedAtLine(*B.P, S.SeedLine);
  }
  SliceResult Slice(nullptr, BitSet());
  {
    Span Sp("slicer.thin");
    Slice = sliceBackward(*B.G, Seed, SliceMode::Thin);
  }
  {
    Span Sp("render.report");
    B.Answer = renderAnswer(Slice, S, S.SeedLine, SliceMode::Thin);
  }
  double Ms = msSince(T0);
  Root.close();

  if (!(Slice.nodeSet() == referenceSlice(*B.G, Seed, SliceMode::Thin)))
    R.mismatch("traced cold slice differs from the reference slicer");
  double Instrs = 0;
  for (const auto &M : B.P->methods())
    Instrs += static_cast<double>(M->instrs().size());
  R.count("lang.ir_instrs", Instrs);
  R.count("pta.worklist_pops",
          static_cast<double>(B.PTA->stats().WorklistPops));
  R.count("pta.propagations", static_cast<double>(B.PTA->stats().Propagations));
  R.count("sdg.nodes", B.G->numNodes());
  R.count("sdg.edges", B.G->numEdges());
  if (CountAnswer) {
    R.count("slicer.slice_stmts", Slice.sizeStmts());
    R.count("render.bytes", static_cast<double>(B.Answer.size()));
  }
  R.SampleSets["cold_first_slice_traced"].push_back(Ms);
  return Ms;
}

void probeOffPath(const Subject &S, Result &R, const ColdBuild &B,
                  uint64_t Seed) {
  {
    AstModule M;
    DiagnosticEngine D;
    Span Sp("lang.parse");
    parseModule(S.Source, M, D);
  }
  {
    std::unique_ptr<ModRefResult> MR;
    {
      Span Sp("modref");
      MR = std::make_unique<ModRefResult>(*B.P, *B.PTA);
    }
    R.count("modref.partitions", MR->numPartitions());
  }
  const Instr *SeedInstr = seedAtLine(*B.P, S.SeedLine);
  {
    Span Sp("slicer.trad");
    SliceResult Trad = sliceBackward(*B.G, SeedInstr, SliceMode::Traditional);
    Sp.close();
    if (!(Trad.nodeSet() ==
          referenceSlice(*B.G, SeedInstr, SliceMode::Traditional)))
      R.mismatch("traditional slice differs from the reference slicer");
  }

  Rng Lines(Seed ^ 0xE261Eull);
  std::vector<const Instr *> Seeds;
  for (unsigned L : drawLines(S, Lines, 32))
    Seeds.push_back(seedAtLine(*B.P, L));
  BatchOptions BO;
  BO.Jobs = 1;
  std::unique_ptr<SliceEngine> E;
  std::vector<SliceResult> Cold, Warm;
  {
    Span Sp("engine.batch_cold");
    E = std::make_unique<SliceEngine>(*B.G, nullptr);
    Cold = E->sliceBackwardBatch(Seeds, BO);
  }
  {
    Span Sp("engine.batch_warm");
    Warm = E->sliceBackwardBatch(Seeds, BO);
  }
  for (std::size_t I = 0; I != Seeds.size(); ++I) {
    ++R.Attempted;
    BitSet Ref = referenceSlice(*B.G, Seeds[I], SliceMode::Thin);
    if (!(Cold[I].nodeSet() == Ref) || !(Warm[I].nodeSet() == Ref))
      R.mismatch("engine batch slice differs from the reference slicer");
  }
}

void probeSnapshot(const Subject &S, Result &R, AnalysisSession &Built,
                   const std::string &Path) {
  Status St;
  {
    Span Sp("snapshot.save");
    St = Built.saveSnapshot(Path);
  }
  if (!St.isOk()) {
    R.mismatch("snapshot save declined: " + St.str());
    return;
  }
  R.count("snapshot.bytes",
          static_cast<double>(std::filesystem::file_size(Path)));
  AnalysisSession Warm(S.Source);
  {
    Span Sp("snapshot.load");
    St = Warm.loadSnapshot(Path);
  }
  if (!St.isOk())
    R.mismatch("snapshot load declined: " + St.str());
}

void probeIncremental(const Subject &S, Result &R,
                      const std::string &SnapshotPath, uint64_t Seed,
                      unsigned Edits) {
  AnalysisSession Sess(S.Source);
  if (!SnapshotPath.empty() && !Sess.loadSnapshot(SnapshotPath).isOk())
    R.mismatch("snapshot load declined before the edit replay");
  Sess.setIncremental(true);
  if (!Sess.sdg()) {
    R.mismatch("incremental session has no SDG");
    return;
  }
  EditStream ES(S, Seed);
  for (unsigned I = 0; I != Edits; ++I) {
    ++R.Attempted;
    unsigned SliceLine = 0;
    std::string Src = ES.next(SliceLine);
    {
      Span Sp("incr.set_source");
      Sess.setSource(std::move(Src));
    }
    const SliceResult *Slice = nullptr;
    const Instr *SeedInstr = nullptr;
    {
      Span Sp("incr.reslice");
      SeedInstr = seedAtLine(*Sess.program(), SliceLine);
      Slice = Sess.sliceBackwardCached(SeedInstr, SliceMode::Thin);
    }
    if (!Slice || !(Slice->nodeSet() ==
                    referenceSlice(*Sess.sdg(), SeedInstr, SliceMode::Thin)))
      R.mismatch("slice after an incremental edit differs from the "
                 "reference slicer");
  }
  const AnalysisSession::IncrementalStats &IS = Sess.incrementalStats();
  R.count("incr.applied_ratio",
          IS.Attempts ? static_cast<double>(IS.Applied) /
                            static_cast<double>(IS.Attempts)
                      : 0.0);
  R.count("incr.fn_recompiled", static_cast<double>(IS.FunctionsRecompiled));
  R.count("incr.stage_fallbacks", static_cast<double>(IS.StageFallbacks));
}

void probeService(const Subject &S, Result &R, ServiceClient &C,
                  const std::string &SessionId, const SDG &G,
                  const std::vector<unsigned> &Lines) {
  ServiceResponse Resp;
  for (unsigned I = 0; I != 32; ++I) {
    ++R.Attempted;
    Span Sp("service.ping");
    if (!C.ping(0, Resp).isOk() || Resp.Code != ServiceStatus::Ok)
      ++R.Failed;
  }
  std::vector<double> &Overhead = R.SampleSets["service.overhead_us"];
  for (unsigned Line : Lines) {
    ++R.Attempted;
    Span Sp("service.slice");
    bool Ok = C.slice(SessionId, S.userLine(Line), SliceMode::Thin, Resp)
                  .isOk() &&
              Resp.Code == ServiceStatus::Ok;
    double Rtt = Sp.close();
    if (!Ok) {
      ++R.Failed;
      continue;
    }
    auto T0 = Clock::now();
    const Instr *Seed = seedAtLine(G.program(), Line);
    SliceResult Slice = sliceBackward(G, Seed, SliceMode::Thin);
    std::string Local = renderAnswer(Slice, S, Line, SliceMode::Thin);
    Overhead.push_back((Rtt - msSince(T0)) * 1000.0);
    if (Resp.Body != Local)
      R.mismatch("daemon answer differs from the in-process answer");
  }
}

namespace {

struct SpanMetric {
  const char *Metric;
  const char *SpanName;
  double Scale; ///< Span durations are ms.
  const char *Unit;
};

const SpanMetric SpanMetrics[] = {
    {"lang.parse_ms", "lang.parse", 1, "ms"},
    {"lang.compile_ms", "lang.compile", 1, "ms"},
    {"pta.solve_ms", "pta.solve", 1, "ms"},
    {"modref.ms", "modref", 1, "ms"},
    {"sdg.build_ms", "sdg.build", 1, "ms"},
    {"snapshot.save_ms", "snapshot.save", 1, "ms"},
    {"snapshot.load_ms", "snapshot.load", 1, "ms"},
    {"slicer.seed_us", "slicer.seed", 1000, "us"},
    {"slicer.thin_slice_us", "slicer.thin", 1000, "us"},
    {"slicer.trad_slice_us", "slicer.trad", 1000, "us"},
    {"engine.batch_cold_ms", "engine.batch_cold", 1, "ms"},
    {"engine.batch_warm_ms", "engine.batch_warm", 1, "ms"},
    {"render.report_us", "render.report", 1000, "us"},
    {"service.ping_rtt_us", "service.ping", 1000, "us"},
    {"incr.set_source_ms", "incr.set_source", 1, "ms"},
    {"incr.reslice_ms", "incr.reslice", 1, "ms"},
};

const std::pair<const char *, const char *> CountMetrics[] = {
    {"lang.ir_instrs", "count"},     {"pta.worklist_pops", "count"},
    {"pta.propagations", "count"},   {"modref.partitions", "count"},
    {"sdg.nodes", "count"},          {"sdg.edges", "count"},
    {"snapshot.bytes", "bytes"},     {"slicer.slice_stmts", "count"},
    {"render.bytes", "bytes"},       {"incr.applied_ratio", "ratio"},
    {"incr.fn_recompiled", "count"}, {"incr.stage_fallbacks", "count"},
};

} // namespace

void layerMetrics(Result &R, double TraceOverheadMs) {
  std::map<std::string, double> Value;
  for (const SpanMetric &M : SpanMetrics) {
    std::vector<double> D = tracer().durationsMs(M.SpanName);
    if (D.empty())
      R.Problems.push_back(std::string("no '") + M.SpanName + "' span");
    Value[M.Metric] = median(D) * M.Scale;
    R.metric(M.Metric, Value[M.Metric], M.Unit, D.size());
  }
  for (const auto &[Name, Unit] : CountMetrics) {
    auto It = R.Counts.find(Name);
    if (It == R.Counts.end())
      R.Problems.push_back(std::string("no '") + Name + "' count");
    Value[Name] = It == R.Counts.end() ? 0 : It->second;
    R.metric(Name, Value[Name], Unit);
  }
  R.metric("sdg.build_ns_per_edge",
           Value["sdg.build_ms"] * 1e6 / std::max(1.0, Value["sdg.edges"]),
           "ns");
  const std::vector<double> &Ovh = R.SampleSets["service.overhead_us"];
  R.metric("service.overhead_us", median(Ovh), "us", Ovh.size());
  R.metric("service.retries", static_cast<double>(R.Retries), "count");

  // Attribution of the untraced cold first slice to the layer spans.
  const std::vector<double> &Untraced = R.SampleSets["cold_first_slice_untraced"];
  std::vector<double> Attributed = tracer().childSumsMs("cold_first_slice");
  double U = median(Untraced), A = median(Attributed);
  R.metric("pipeline.unattributed_ms", U - A, "ms", Untraced.size());
  R.metric("pipeline.attributed_share", U > 0 ? A / U : 0, "ratio",
           Attributed.size());
  R.metric("trace.overhead_ms", TraceOverheadMs, "ms");
}

} // namespace pb
