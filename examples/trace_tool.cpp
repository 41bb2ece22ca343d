//===- examples/trace_tool.cpp - Trace generation and inspection CLI -------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
// A small command-line tool around the trace and database file formats:
//
//   trace_tool generate <program> <out.trace> [--scale=0.1] [--test]
//                          [--binary]
//       Generate a workload trace (text, or compact binary with --binary).
//   trace_tool stats <in.trace>
//       Print Table-2-style statistics for a trace file.
//   trace_tool train <in.trace> <out.sitedb> [--threshold=32768]
//       Profile a trace and save the predicted-short-lived site database.
//   trace_tool predict <in.trace> <in.sitedb>
//       Evaluate a saved database against a trace.
//   trace_tool emit-header <in.sitedb> <out.h>
//       Emit the database as a linkable C++ header (constexpr key table
//       plus an isPredictedShortLived() predicate).
//   trace_tool compile <program|in.trace> --out=<file.sched>
//                          [--scale=S] [--test] [--chunk-events=N]
//       Compile a workload (or an existing trace file) into the mmap-able
//       on-disk schedule format that the streamed replay tier consumes.
//   trace_tool schedule-info <file.sched>
//       Validate a schedule file's header and size and print its layout,
//       with each chunk's start clock and peak live bytes from one pass
//       over the events; corrupt, truncated or padded files are rejected
//       with a diagnostic and a non-zero exit, never a crash.
//   trace_tool report <old.json> <new.json> [--tol=R] [--time-tol=R]
//       Diff two --json bench reports (same engine as bench_compare);
//       non-zero exit on regression.
//   trace_tool heatmap <program|in.trace> [--family=F] [--scale=S] [--test]
//                         [--stride=N] [--json=F] [--heatmap-out=F]
//                         [--trace-out=F]
//       Replay a workload through one allocator family (firstfit, bsd,
//       arena, or multiarena) with the heap observatory attached, and
//       render the address-space x byte-clock occupancy heatmap as ASCII
//       plus a fragmentation and latency summary.  --json writes a
//       bench_compare-gateable report, --heatmap-out a standalone heatmap
//       JSON, --trace-out chrome://tracing occupancy counters.
//   trace_tool audit <program|all> [--scale=S] [--seed=N] [--jobs=J]
//                       [--json=F] [--audit-out=F] [--trace-out=F]
//       Run the Table 7 workload (train on the train trace, replay the
//       test trace through the predicting arena simulator) with a flight
//       recorder attached, and print the lifetime audit: per-site
//       misprediction forensics ranked by wasted bytes, and arena-pinning
//       attribution naming the survivor objects that delayed each reset.
//       --json writes a bench_compare-gateable report, --audit-out copies
//       the text report to a file, --trace-out adds chrome://tracing
//       arena-occupancy spans.
//   trace_tool drift <program|all> [--scale=S] [--seed=N] [--jobs=J]
//                       [--drift-window=B]
//                       [--json=F] [--drift-out=F] [--trace-out=F]
//       Run the Table 7 workload with the prediction drift observatory
//       attached: per-byte-clock-window confusion timelines, rolling
//       accuracy with CUSUM change-point flags, per-site observed-vs-
//       trained lifetime-quantile divergence, and misprediction cost
//       attribution (bytes pinned by false-shorts; bytes a correct short
//       call would have arena'd); reports are byte-identical at any
//       --jobs.  --json writes a bench_compare-gateable report,
//       --drift-out an ordered drift JSON, --trace-out chrome://tracing
//       accuracy/pinned-bytes tracks.
//   trace_tool retrain <program|all> [--scale=S] [--seed=N] [--jobs=J]
//                         [--window=B] [--limit=N] [--json=F]
//                         [--retrain-out=F] [--trace-out=F]
//       Run the Table 7 workload with the online predictor warm-started
//       from the trained database: print the applied re-route timeline
//       (window, byte clock, site, verdict flip, window evidence, CUSUM
//       gate), per-flipped-site forensics (observed lifetime median,
//       cumulative death mix, flip count), and the before/after routing
//       accuracy against the static database.  --json writes a
//       bench_compare-gateable report, --retrain-out the full timeline
//       JSON (same shape as the ablation bench's CI artifact),
//       --trace-out chrome://tracing retrain instant events.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/GeneratedAllocator.h"
#include "core/Pipeline.h"
#include "runtime/Retrainer.h"
#include "sim/CompiledPrediction.h"
#include "sim/MultiArenaSimulator.h"
#include "sim/SimTelemetry.h"
#include "sim/TraceSimulator.h"
#include "support/CommandLine.h"
#include "telemetry/DriftObservatory.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/FragmentationProbe.h"
#include "telemetry/HeapHeatmap.h"
#include "telemetry/LatencyRecorder.h"
#include "telemetry/ReportDiff.h"
#include "telemetry/TraceEventWriter.h"
#include "trace/ScheduleFile.h"
#include "trace/TraceBinaryIO.h"
#include "trace/TraceIO.h"
#include "trace/TraceStats.h"
#include "workloads/Programs.h"
#include "workloads/WorkloadRunner.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

using namespace lifepred;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: trace_tool generate <program> <out.trace> "
               "[--scale=S] [--test]\n"
               "       trace_tool stats <in.trace>\n"
               "       trace_tool train <in.trace> <out.sitedb> "
               "[--threshold=T]\n"
               "       trace_tool predict <in.trace> <in.sitedb>\n"
               "       trace_tool emit-header <in.sitedb> <out.h>\n"
               "       trace_tool compile <program|in.trace> "
               "--out=<file.sched>\n"
               "                          [--scale=S] [--test] "
               "[--chunk-events=N]\n"
               "       trace_tool schedule-info <file.sched>\n"
               "       trace_tool report <old.json> <new.json> [--tol=R] "
               "[--time-tol=R] [--quiet]\n"
               "       trace_tool heatmap <program|in.trace> "
               "[--family=firstfit|bsd|arena|multiarena]\n"
               "                          [--scale=S] [--test] [--stride=N] "
               "[--json=F]\n"
               "                          [--heatmap-out=F] [--trace-out=F]\n"
               "       trace_tool audit <program|all> [--scale=S] "
               "[--seed=N] [--jobs=J]\n"
               "                        [--json=F] [--audit-out=F] "
               "[--trace-out=F]\n"
               "       trace_tool drift <program|all> [--scale=S] "
               "[--seed=N] [--jobs=J]\n"
               "                        [--drift-window=B]\n"
               "                        [--json=F] [--drift-out=F] "
               "[--trace-out=F]\n"
               "       trace_tool retrain <program|all> [--scale=S] "
               "[--seed=N] [--jobs=J]\n"
               "                          [--window=B] [--limit=N] "
               "[--json=F]\n"
               "                          [--retrain-out=F] "
               "[--trace-out=F]\n");
  return 1;
}

/// The audit subcommand: the Table 7 train/test workload replayed through
/// the predicting arena simulator with a flight recorder attached.  One
/// recorder per program, read back in program order, so the report is
/// bit-identical at any --jobs.
int runAudit(const CommandLine &Cl, const std::string &Target) {
  BenchOptions Options = BenchOptions::fromCommandLine(Cl);
  if (Target != "all") {
    requireProgram(Target, Target);
    Options.OnlyProgram = Target;
  }

  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  ThreadPool Pool(Options.Jobs);
  std::vector<ProgramTraces> All = makeAllTraces(Options, Pool);

  std::unique_ptr<TraceEventWriter> TraceWriter = makeTraceWriter(Options);
  JsonReport Report("audit", Options);

  std::vector<Profile> TrainProfiles(All.size());
  std::vector<SiteDatabase> DBs(All.size());
  std::vector<StatsRegistry> PerProgram(All.size());
  std::vector<std::unique_ptr<FlightRecorder>> Recorders(All.size());
  FlightRecorder::Config RecorderConfig;
  RecorderConfig.Seed = Options.Seed;
  for (auto &Recorder : Recorders)
    Recorder = std::make_unique<FlightRecorder>(RecorderConfig);

  uint64_t Events = 0;
  for (const ProgramTraces &Traces : All)
    Events += replayEventCount(Traces.Test);
  double Start = wallTimeSeconds();
  parallelForIndex(Pool, All.size(), [&](size_t Index) {
    TrainProfiles[Index] = profileTrace(All[Index].Train, Policy);
    DBs[Index] = trainDatabase(TrainProfiles[Index], Policy);
    SimTelemetry Telemetry;
    Telemetry.Registry = &PerProgram[Index];
    Telemetry.Recorder = Recorders[Index].get();
    simulateArena(CompiledTrace(All[Index].Test, Policy), DBs[Index],
                  All[Index].Model.CallsPerAlloc, CostModel(),
                  ArenaAllocator::Config(), &Telemetry);
  });
  Report.setThroughput(Events, wallTimeSeconds() - Start);

  std::FILE *AuditFile = nullptr;
  if (!Options.AuditOutPath.empty()) {
    AuditFile = std::fopen(Options.AuditOutPath.c_str(), "w");
    if (!AuditFile)
      std::fprintf(stderr, "warning: cannot write --audit-out=%s\n",
                   Options.AuditOutPath.c_str());
  }

  StatsRegistry Telemetry;
  for (size_t I = 0; I < All.size(); ++I) {
    std::string Name = All[I].Model.Name;
    Telemetry.merge(PerProgram[I]);
    TrainedQuantileMap Trained =
        buildTrainedQuantiles(All[I].Test, TrainProfiles[I], Policy);
    AuditReport Audit =
        buildAuditReport(*Recorders[I], &Trained, Name + ".arena");
    printAuditReport(Audit, stdout);
    if (AuditFile)
      printAuditReport(Audit, AuditFile);
    exportAuditTelemetry(Audit, Telemetry, "audit." + Name + ".");
    Report.add(Name + ".audit.wasted_bytes",
               static_cast<double>(Audit.wastedBytes()));
    Report.add(Name + ".audit.dead_bytes_pinned",
               static_cast<double>(Audit.TotalDeadByteIntegral));
    Report.add(Name + ".audit.false_short",
               static_cast<double>(Audit.FalseShort));
    Report.add(Name + ".audit.pinned_episodes",
               static_cast<double>(Audit.PinnedEpisodes));
    if (TraceWriter)
      emitArenaOccupancy(Audit, *TraceWriter);
  }
  if (AuditFile)
    std::fclose(AuditFile);
  Report.attachTelemetry(&Telemetry);
  Report.write();
  if (TraceWriter)
    TraceWriter->close();
  return 0;
}

/// The drift subcommand: the Table 7 train/test workload scored window by
/// window.  One observatory per program, reports printed and exported in
/// program order, so output is bit-identical at any --jobs.
int runDrift(const CommandLine &Cl, const std::string &Target) {
  BenchOptions Options = BenchOptions::fromCommandLine(Cl);
  if (Target != "all") {
    requireProgram(Target, Target);
    Options.OnlyProgram = Target;
  }

  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  ThreadPool Pool(Options.Jobs);
  std::vector<ProgramTraces> All = makeAllTraces(Options, Pool);

  std::unique_ptr<TraceEventWriter> TraceWriter = makeTraceWriter(Options);
  JsonReport Report("drift", Options);

  std::vector<Profile> TrainProfiles(All.size());
  std::vector<StatsRegistry> PerProgram(All.size());
  std::vector<std::unique_ptr<DriftObservatory>> Observatories(All.size());

  uint64_t Events = 0;
  for (const ProgramTraces &Traces : All)
    Events += replayEventCount(Traces.Test);
  double Start = wallTimeSeconds();

  parallelForIndex(Pool, All.size(), [&](size_t Index) {
    TrainProfiles[Index] = profileTrace(All[Index].Train, Policy);
    SiteDatabase DB = trainDatabase(TrainProfiles[Index], Policy);
    CompiledTrace Compiled(All[Index].Test, Policy);
    DriftConfig Config;
    Config.EndClock = Compiled.schedule().endClock();
    Config.WindowBytes = Options.DriftWindowBytes;
    Config.Threshold = DB.threshold();
    Observatories[Index] = std::make_unique<DriftObservatory>(Config);
    SimTelemetry Telemetry;
    Telemetry.Registry = &PerProgram[Index];
    Telemetry.Drift = Observatories[Index].get();
    simulateArena(Compiled, DB, All[Index].Model.CallsPerAlloc, CostModel(),
                  ArenaAllocator::Config(), &Telemetry);
  });
  Report.setThroughput(Events, wallTimeSeconds() - Start);

  std::string DriftJson = "{\n  \"schema_version\": 1,\n  \"reports\": [\n";
  StatsRegistry Telemetry;
  uint64_t TotalWindows = 0;
  uint64_t TotalChangePoints = 0;
  bool HaveWorst = false;
  DriftSiteScore Worst;
  for (size_t I = 0; I < All.size(); ++I) {
    const std::string &Name = All[I].Model.Name;
    Telemetry.merge(PerProgram[I]);
    TrainedQuantileMap Trained =
        buildTrainedQuantiles(All[I].Test, TrainProfiles[I], Policy);
    DriftReport Drift =
        buildDriftReport(*Observatories[I], &Trained, Name + ".arena");
    printDriftReport(Drift, stdout);
    writeDriftJson(Drift, DriftJson, "    ");
    DriftJson += I + 1 != All.size() ? ",\n" : "\n";
    exportDriftTelemetry(Drift, Telemetry, "drift." + Name + ".");
    if (TraceWriter)
      emitDriftTrack(Drift, *TraceWriter,
                     900 + static_cast<unsigned>(I) * 2);
    TotalWindows += Drift.Windows.size();
    TotalChangePoints += Drift.changePointCount();
    Report.add(Name + ".drift.windows",
               static_cast<double>(Drift.Windows.size()));
    Report.add(Name + ".drift.changepoint_count",
               static_cast<double>(Drift.changePointCount()));
    Report.add(Name + ".drift.accuracy_mean_ppm",
               static_cast<double>(Drift.MeanAccuracyPpm));
    Report.add(Name + ".drift.pinned_bytes",
               static_cast<double>(Drift.PinnedBytes));
    if (Drift.hasWorstSite()) {
      Report.add(Name + ".drift.worst_site_score", Drift.worstSite().Score);
      if (!HaveWorst || Drift.worstSite().Score > Worst.Score) {
        HaveWorst = true;
        Worst = Drift.worstSite();
      }
    }
  }
  DriftJson += "  ]\n}\n";
  Report.add("drift.windows", static_cast<double>(TotalWindows));
  Report.add("drift.changepoint_count",
             static_cast<double>(TotalChangePoints));
  if (HaveWorst) {
    Report.add("drift.worst_site_id", static_cast<double>(Worst.Site));
    Report.add("drift.worst_site_window",
               static_cast<double>(Worst.Window));
    Report.add("drift.worst_site_score", Worst.Score);
  }
  Report.attachTelemetry(&Telemetry);
  Report.write();

  if (!Options.DriftOutPath.empty()) {
    std::FILE *File = std::fopen(Options.DriftOutPath.c_str(), "w");
    if (!File) {
      std::fprintf(stderr, "error: cannot write --drift-out=%s\n",
                   Options.DriftOutPath.c_str());
      return 1;
    }
    std::fwrite(DriftJson.data(), 1, DriftJson.size(), File);
    std::fclose(File);
    std::printf("drift JSON written to %s\n", Options.DriftOutPath.c_str());
  }
  if (TraceWriter)
    TraceWriter->close();
  return 0;
}

/// The retrain subcommand: online-prediction forensics.  The warm-started
/// model is compiled once per program into a frozen route plan (the same
/// pass the online arena replay consumes), and the report shows exactly
/// which sites the CUSUM flagged, when, on what evidence, and what the
/// applied re-routes bought against the static database.
int runRetrain(const CommandLine &Cl, const std::string &Target) {
  BenchOptions Options = BenchOptions::fromCommandLine(Cl);
  if (Target != "all") {
    requireProgram(Target, Target);
    Options.OnlyProgram = Target;
  }
  long WindowArg = Cl.getInt("window", 0);
  long LimitArg = Cl.getInt("limit", 20);
  size_t Limit = LimitArg > 0 ? static_cast<size_t>(LimitArg) : SIZE_MAX;

  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  ThreadPool Pool(Options.Jobs);
  std::vector<ProgramTraces> All = makeAllTraces(Options, Pool);

  std::unique_ptr<TraceEventWriter> TraceWriter = makeTraceWriter(Options);
  JsonReport Report("retrain", Options);

  struct ProgramResult {
    OnlineRoutePlan Plan;
    RouteScore Static, Online;
  };
  std::vector<ProgramResult> Results(All.size());

  uint64_t Events = 0;
  for (const ProgramTraces &Traces : All)
    Events += replayEventCount(Traces.Test);
  double Start = wallTimeSeconds();
  parallelForIndex(Pool, All.size(), [&](size_t Index) {
    Profile TrainProfile = profileTrace(All[Index].Train, Policy);
    SiteDatabase DB = trainDatabase(TrainProfile, Policy);
    CompiledTrace Compiled(All[Index].Test, Policy);
    OnlinePredictorConfig Config;
    Config.WarmStart = &DB;
    if (WindowArg > 0)
      Config.WindowBytes = static_cast<uint64_t>(WindowArg);
    ProgramResult &R = Results[Index];
    R.Plan = compileOnlineRoutes(Compiled, Config);
    PredictedShortBits Bits(Compiled, DB);
    R.Static = scoreRoutes(All[Index].Test, DB.threshold(),
                           [&Bits](uint64_t Id) { return Bits.test(Id); });
    R.Online =
        scoreRoutes(All[Index].Test, DB.threshold(),
                    [&R](uint64_t Id) { return R.Plan.testShort(Id); });
  });
  Report.setThroughput(Events, wallTimeSeconds() - Start);

  for (size_t I = 0; I < All.size(); ++I) {
    const std::string &Name = All[I].Model.Name;
    const ProgramResult &R = Results[I];
    const OnlineRoutePlan &Plan = R.Plan;

    std::printf("== %s: %zu retrains across %u epochs (window %llu bytes, "
                "%llu sites, %llu deaths observed) ==\n",
                Name.c_str(), Plan.Retrains.size(), Plan.Epochs,
                static_cast<unsigned long long>(Plan.WindowBytes),
                static_cast<unsigned long long>(Plan.SitesSeen),
                static_cast<unsigned long long>(Plan.DeathsObserved));
    std::printf("  accuracy: static %.2f%% -> online %.2f%%\n",
                R.Static.accuracyPercent(), R.Online.accuracyPercent());

    size_t Shown = std::min(Plan.Retrains.size(), Limit);
    for (size_t E = 0; E < Shown; ++E) {
      const RetrainEvent &Event = Plan.Retrains[E];
      std::printf("  window %4llu clock %12llu site %20llu %s->%s "
                  "(win %llu short / %llu long, gate %lld ppm, epoch %u)\n",
                  static_cast<unsigned long long>(Event.Window),
                  static_cast<unsigned long long>(Event.Clock),
                  static_cast<unsigned long long>(Event.Site),
                  Event.OldRoute ? "short" : "long",
                  Event.NewRoute ? "short" : "long",
                  static_cast<unsigned long long>(Event.WindowShortDeaths),
                  static_cast<unsigned long long>(Event.WindowLongDeaths),
                  static_cast<long long>(Event.GatePpm), Event.Epoch);
      if (TraceWriter)
        TraceWriter->instantAt(Name + ".retrain." + std::to_string(Event.Site),
                               "retrain", 950 + static_cast<unsigned>(I),
                               Event.Clock);
    }
    if (Shown < Plan.Retrains.size())
      std::printf("  ... %zu more (raise --limit)\n",
                  Plan.Retrains.size() - Shown);

    // Per-site forensics for the sites that actually flipped.
    for (const OnlineSiteSnapshot &Site : Plan.Sites) {
      if (Site.RouteFlips == 0)
        continue;
      std::printf("  site %20llu: %u flips, final %s, %llu short / %llu "
                  "long deaths, observed median lifetime %llu\n",
                  static_cast<unsigned long long>(Site.Site), Site.RouteFlips,
                  Site.Route ? "short" : "long",
                  static_cast<unsigned long long>(Site.ShortDeaths),
                  static_cast<unsigned long long>(Site.LongDeaths),
                  static_cast<unsigned long long>(Site.ObservedQ50));
    }

    Report.add(Name + ".retrain.count",
               static_cast<double>(Plan.Retrains.size()));
    Report.add(Name + ".retrain.epochs", static_cast<double>(Plan.Epochs));
    Report.add(Name + ".retrain.sites_seen",
               static_cast<double>(Plan.SitesSeen));
    Report.add(Name + ".retrain.deaths_observed",
               static_cast<double>(Plan.DeathsObserved));
    Report.add(Name + ".retrain.static_accuracy_ppm",
               static_cast<double>(R.Static.accuracyPpm()));
    Report.add(Name + ".retrain.online_accuracy_ppm",
               static_cast<double>(R.Online.accuracyPpm()));
  }
  Report.write();

  std::string RetrainOutPath = Cl.getString("retrain-out", "");
  if (!RetrainOutPath.empty()) {
    std::ofstream Out(RetrainOutPath);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write --retrain-out=%s\n",
                   RetrainOutPath.c_str());
      return 1;
    }
    Out << "{\n  \"programs\": [\n";
    for (size_t I = 0; I < All.size(); ++I) {
      const OnlineRoutePlan &Plan = Results[I].Plan;
      Out << "    {\n      \"program\": \"" << All[I].Model.Name << "\",\n"
          << "      \"window_bytes\": " << Plan.WindowBytes << ",\n"
          << "      \"epochs\": " << Plan.Epochs << ",\n"
          << "      \"retrains\": [\n";
      for (size_t E = 0; E < Plan.Retrains.size(); ++E) {
        const RetrainEvent &Event = Plan.Retrains[E];
        Out << "        {\"window\": " << Event.Window
            << ", \"clock\": " << Event.Clock << ", \"site\": " << Event.Site
            << ", \"old_route\": "
            << (Event.OldRoute ? "\"short\"" : "\"long\"")
            << ", \"new_route\": "
            << (Event.NewRoute ? "\"short\"" : "\"long\"")
            << ", \"gate_ppm\": " << Event.GatePpm
            << ", \"epoch\": " << Event.Epoch << "}"
            << (E + 1 < Plan.Retrains.size() ? "," : "") << "\n";
      }
      Out << "      ]\n    }" << (I + 1 < All.size() ? "," : "") << "\n";
    }
    Out << "  ]\n}\n";
    std::printf("retrain JSON written to %s\n", RetrainOutPath.c_str());
  }
  if (TraceWriter)
    TraceWriter->close();
  return 0;
}

std::optional<AllocationTrace> loadTrace(const std::string &Path);

/// The heatmap subcommand: one replay with every observatory sink
/// attached, rendered for a human at the terminal.
int runHeatmap(const CommandLine &Cl, const std::string &Source) {
  BenchOptions Options = BenchOptions::fromCommandLine(Cl);
  const std::string Family = Cl.getString("family", "firstfit");
  long StrideArg = Cl.getInt("stride", 64 * 1024);
  const uint64_t Stride = StrideArg > 0 ? uint64_t(StrideArg) : 1;

  // The source is either a workload program name or a trace file, the
  // same resolution order as `compile`.
  std::optional<AllocationTrace> Trace;
  double CallsPerAlloc = 1.0;
  for (ProgramModel &Model : allPrograms()) {
    if (Model.Name != Source)
      continue;
    RunOptions Run;
    Run.Scale = Cl.getDouble("scale", 0.1);
    Run.Kind = Cl.has("test") ? RunKind::Test : RunKind::Train;
    Run.Seed = Options.Seed;
    FunctionRegistry Registry;
    Trace = runWorkload(Model, Run, Registry);
    CallsPerAlloc = Model.CallsPerAlloc;
    break;
  }
  if (!Trace) {
    Trace = loadTrace(Source);
    if (!Trace)
      return 1;
  }

  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  CompiledTrace Test(*Trace, Policy);

  FragmentationProbe Probe(Stride);
  HeapHeatmap::Config MapConfig;
  MapConfig.ClockStride = Stride;
  HeapHeatmap Map(MapConfig);
  LatencyRecorder Latency;
  StatsRegistry Registry;
  SimTelemetry Telemetry;
  Telemetry.Registry = &Registry;
  Telemetry.Fragmentation = &Probe;
  Telemetry.Heatmap = &Map;
  Telemetry.Latency = &Latency;

  double Start = wallTimeSeconds();
  if (Family == "firstfit") {
    simulateFirstFit(Test, CostModel(), FirstFitAllocator::Config(),
                     &Telemetry);
  } else if (Family == "bsd") {
    simulateBsd(Test, CostModel(), BsdAllocator::Config(), &Telemetry);
  } else if (Family == "arena") {
    // Self prediction: the database trains on the replayed trace itself.
    SiteDatabase DB = trainDatabase(profileTrace(*Trace, Policy), Policy);
    simulateArena(Test, DB, CallsPerAlloc, CostModel(),
                  ArenaAllocator::Config(), &Telemetry);
  } else if (Family == "multiarena") {
    ClassDatabase DB = trainClassDatabase(profileTrace(*Trace, Policy),
                                          Policy, {16 * 1024, 32 * 1024});
    simulateMultiArena(Test, DB, MultiArenaAllocator::Config(), &Telemetry);
  } else {
    std::fprintf(stderr,
                 "error: unknown family '%s' (expected firstfit, bsd, "
                 "arena, or multiarena)\n",
                 Family.c_str());
    return 1;
  }
  double Wall = wallTimeSeconds() - Start;

  std::printf("heatmap: %s over %s, %zu events, byte-clock stride %llu\n",
              Family.c_str(), Source.c_str(), Trace->size() * 2,
              static_cast<unsigned long long>(Stride));
  Map.printAscii(stdout);

  FragmentationProbe::Drift Drift = Probe.driftEstimate();
  std::printf("fragmentation: %llu samples, index %llu ppm (peak %llu), "
              "largest free block %llu B\n",
              static_cast<unsigned long long>(Probe.sampleCount()),
              static_cast<unsigned long long>(Probe.lastFragIndexPpm()),
              static_cast<unsigned long long>(Probe.maxFragIndexPpm()),
              static_cast<unsigned long long>(Probe.largestFreeBlock()));
  std::printf("spans observed: %llu free, %llu live; heap drift %s%llu B "
              "over %llu byte-clock\n",
              static_cast<unsigned long long>(Probe.freeSpans().count()),
              static_cast<unsigned long long>(Probe.liveSpans().count()),
              Drift.ShrinkBytes ? "-" : "+",
              static_cast<unsigned long long>(
                  Drift.ShrinkBytes ? Drift.ShrinkBytes : Drift.GrowthBytes),
              static_cast<unsigned long long>(Drift.WindowClock));
  std::printf("alloc latency: %llu samples, p50 %.0f ns, p99 %.0f ns; "
              "free p99 %.0f ns\n",
              static_cast<unsigned long long>(
                  Latency.samples(LatencyRecorder::OpAlloc)),
              Latency.quantileNanos(LatencyRecorder::OpAlloc, 0.50),
              Latency.quantileNanos(LatencyRecorder::OpAlloc, 0.99),
              Latency.quantileNanos(LatencyRecorder::OpFree, 0.99));

  if (!Options.JsonPath.empty()) {
    JsonReport Report("heatmap", Options);
    Report.setThroughput(Trace->size() * 2, Wall);
    Report.attachTelemetry(&Registry);
    Report.write();
  }
  if (!Options.HeatmapOutPath.empty()) {
    std::string Out;
    Map.writeJson(Out, "");
    Out += "\n";
    std::FILE *File = std::fopen(Options.HeatmapOutPath.c_str(), "w");
    if (!File) {
      std::fprintf(stderr, "error: cannot write --heatmap-out=%s\n",
                   Options.HeatmapOutPath.c_str());
      return 1;
    }
    std::fwrite(Out.data(), 1, Out.size(), File);
    std::fclose(File);
    std::printf("heatmap JSON written to %s\n",
                Options.HeatmapOutPath.c_str());
  }
  if (std::unique_ptr<TraceEventWriter> Writer = makeTraceWriter(Options)) {
    Map.exportTrace(*Writer);
    Writer->close();
    std::printf("chrome://tracing counters written to %s\n",
                Options.TraceOutPath.c_str());
  }
  return 0;
}

std::optional<AllocationTrace> loadTrace(const std::string &Path) {
  // Try binary first (its magic makes the format self-identifying),
  // then fall back to text.
  {
    std::ifstream In(Path, std::ios::binary);
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
      return std::nullopt;
    }
    if (auto Trace = readTraceBinary(In))
      return Trace;
  }
  std::ifstream In(Path);
  auto Trace = readTrace(In);
  if (!Trace)
    std::fprintf(stderr, "error: %s is not a valid trace file\n",
                 Path.c_str());
  return Trace;
}

} // namespace

int main(int Argc, char **Argv) {
  // The report subcommand forwards its raw arguments (including --tol=
  // flags) to the bench_compare engine before CommandLine sees them.
  if (Argc >= 2 && std::string(Argv[1]) == "report")
    return runBenchCompare(std::vector<std::string>(Argv + 2, Argv + Argc));

  CommandLine Cl(Argc, Argv);
  const auto &Args = Cl.positional();
  if (Args.empty())
    return usage();
  const std::string &Command = Args[0];

  if (Command == "audit") {
    if (Args.size() != 2)
      return usage();
    return runAudit(Cl, Args[1]);
  }

  if (Command == "drift") {
    if (Args.size() != 2)
      return usage();
    return runDrift(Cl, Args[1]);
  }

  if (Command == "heatmap") {
    if (Args.size() != 2)
      return usage();
    return runHeatmap(Cl, Args[1]);
  }

  if (Command == "retrain") {
    if (Args.size() != 2)
      return usage();
    return runRetrain(Cl, Args[1]);
  }

  if (Command == "generate") {
    if (Args.size() != 3)
      return usage();
    ProgramModel Model = requireProgram(Args[1], Args[1]);
    RunOptions Run;
    Run.Scale = Cl.getDouble("scale", 0.1);
    Run.Kind = Cl.has("test") ? RunKind::Test : RunKind::Train;
    Run.Seed = static_cast<uint64_t>(Cl.getInt("seed", 0x1993));
    FunctionRegistry Registry;
    AllocationTrace Trace = runWorkload(Model, Run, Registry);
    std::ofstream Out(Args[2], Cl.has("binary")
                                   ? std::ios::binary | std::ios::out
                                   : std::ios::out);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", Args[2].c_str());
      return 1;
    }
    if (Cl.has("binary"))
      writeTraceBinary(Trace, Out);
    else
      writeTrace(Trace, Out);
    std::printf("wrote %zu allocation events (%llu bytes allocated) to "
                "%s\n",
                Trace.size(),
                static_cast<unsigned long long>(Trace.totalBytes()),
                Args[2].c_str());
    return 0;
  }

  if (Command == "compile") {
    if (Args.size() != 2)
      return usage();
    std::string OutPath = Cl.getString("out", "");
    if (OutPath.empty()) {
      std::fprintf(stderr, "error: compile requires --out=<file.sched>\n");
      return 1;
    }
    // The source is either a workload program name or a trace file.
    std::optional<AllocationTrace> Trace;
    for (ProgramModel &Model : allPrograms()) {
      if (Model.Name != Args[1])
        continue;
      RunOptions Run;
      Run.Scale = Cl.getDouble("scale", 0.1);
      Run.Kind = Cl.has("test") ? RunKind::Test : RunKind::Train;
      Run.Seed = static_cast<uint64_t>(Cl.getInt("seed", 0x1993));
      FunctionRegistry Registry;
      Trace = runWorkload(Model, Run, Registry);
      break;
    }
    if (!Trace) {
      Trace = loadTrace(Args[1]);
      if (!Trace)
        return 1;
    }
    ScheduleFileWriter::Config Config;
    long ChunkEvents = Cl.getInt("chunk-events", 0);
    if (ChunkEvents > 0)
      Config.EventsPerChunk = static_cast<uint64_t>(ChunkEvents);
    ScheduleFileWriter Writer(OutPath, Config);
    Writer.append(*Trace);
    if (!Writer.finish()) {
      std::fprintf(stderr, "error: %s\n", Writer.error().c_str());
      return 1;
    }
    std::printf("wrote %llu events (%llu allocs, %llu slots, %llu chunks) "
                "to %s\n",
                static_cast<unsigned long long>(Writer.eventCount()),
                static_cast<unsigned long long>(Writer.allocCount()),
                static_cast<unsigned long long>(Writer.slotCount()),
                static_cast<unsigned long long>(Writer.chunkCount()),
                OutPath.c_str());
    return 0;
  }

  if (Command == "schedule-info") {
    if (Args.size() != 2)
      return usage();
    std::string Error;
    auto File = ScheduleFile::open(Args[1], Error);
    if (!File) {
      std::fprintf(stderr, "error: %s\n", Error.c_str()); // Names the path.
      return 1;
    }
    std::printf("schedule:         %s\n", Args[1].c_str());
    std::printf("file bytes:       %llu\n",
                static_cast<unsigned long long>(File->fileBytes()));
    std::printf("events:           %llu\n",
                static_cast<unsigned long long>(File->eventCount()));
    std::printf("allocs:           %llu\n",
                static_cast<unsigned long long>(File->allocCount()));
    std::printf("slots:            %llu\n",
                static_cast<unsigned long long>(File->slotCount()));
    std::printf("end clock:        %llu\n",
                static_cast<unsigned long long>(File->endClock()));
    std::printf("alloc bytes:      %llu\n",
                static_cast<unsigned long long>(File->totalAllocBytes()));
    std::printf("max live bytes:   %llu\n",
                static_cast<unsigned long long>(File->maxLiveBytes()));
    std::printf("events per chunk: %llu\n",
                static_cast<unsigned long long>(File->eventsPerChunk()));
    std::printf("chunks:           %llu\n",
                static_cast<unsigned long long>(File->chunkCount()));
    // Per-chunk summary from one pass over the events, printed with the
    // middle elided for huge schedules.  A chunk starts at the clock of
    // the event before it; its peak live counts the bytes live at entry.
    const uint64_t Chunks = File->chunkCount();
    uint64_t Clock = 0, LiveBytes = 0;
    File->adviseSequential();
    for (uint64_t I = 0; I < Chunks; ++I) {
      const uint64_t StartClock = Clock;
      uint64_t PeakLive = LiveBytes;
      const ScheduleEvent *Events = File->chunkEvents(I);
      const uint64_t Count = File->chunkEventCount(I);
      for (uint64_t E = 0; E < Count; ++E) {
        if (Events[E].TaggedSlot & EventSchedule::FreeBit) {
          LiveBytes -= Events[E].Size;
        } else {
          LiveBytes += Events[E].Size;
          PeakLive = std::max(PeakLive, LiveBytes);
        }
        Clock = Events[E].Clock;
      }
      File->dropChunk(I);
      if (Chunks > 12 && I >= 6 && I < Chunks - 6) {
        if (I == 6)
          std::printf("  ... %llu chunks elided ...\n",
                      static_cast<unsigned long long>(Chunks - 12));
        continue;
      }
      const uint64_t First = I * File->eventsPerChunk();
      std::printf("  chunk %4llu: events [%llu, %llu)  start clock %llu  "
                  "peak live %llu B\n",
                  static_cast<unsigned long long>(I),
                  static_cast<unsigned long long>(First),
                  static_cast<unsigned long long>(First + Count),
                  static_cast<unsigned long long>(StartClock),
                  static_cast<unsigned long long>(PeakLive));
    }
    return 0;
  }

  if (Command == "stats") {
    if (Args.size() != 2)
      return usage();
    auto Trace = loadTrace(Args[1]);
    if (!Trace)
      return 1;
    TraceStats Stats = computeTraceStats(*Trace);
    std::printf("objects:          %llu\n",
                static_cast<unsigned long long>(Stats.TotalObjects));
    std::printf("bytes:            %llu\n",
                static_cast<unsigned long long>(Stats.TotalBytes));
    std::printf("max live objects: %llu\n",
                static_cast<unsigned long long>(Stats.MaxLiveObjects));
    std::printf("max live bytes:   %llu\n",
                static_cast<unsigned long long>(Stats.MaxLiveBytes));
    std::printf("distinct chains:  %zu\n", Stats.DistinctChains);
    std::printf("heap refs:        %.1f%%\n", Stats.heapRefPercent());
    return 0;
  }

  if (Command == "train") {
    if (Args.size() != 3)
      return usage();
    auto Trace = loadTrace(Args[1]);
    if (!Trace)
      return 1;
    SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
    TrainingOptions Options;
    Options.Threshold =
        static_cast<uint64_t>(Cl.getInt("threshold", 32 * 1024));
    SiteDatabase DB =
        trainDatabase(profileTrace(*Trace, Policy), Policy, Options);
    std::ofstream Out(Args[2]);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", Args[2].c_str());
      return 1;
    }
    DB.save(Out);
    std::printf("trained %zu short-lived sites -> %s\n", DB.size(),
                Args[2].c_str());
    return 0;
  }

  if (Command == "predict") {
    if (Args.size() != 3)
      return usage();
    auto Trace = loadTrace(Args[1]);
    if (!Trace)
      return 1;
    std::ifstream In(Args[2]);
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n", Args[2].c_str());
      return 1;
    }
    std::string Error;
    auto DB = SiteDatabase::load(In, &Error);
    if (!DB) {
      std::fprintf(stderr, "error: %s: %s\n", Args[2].c_str(), Error.c_str());
      return 1;
    }
    PredictionReport Report = evaluatePrediction(*Trace, *DB);
    std::printf("sites used:      %llu of %zu\n",
                static_cast<unsigned long long>(Report.SitesUsed),
                DB->size());
    std::printf("predicted short: %.1f%% of bytes\n",
                Report.predictedShortPercent());
    std::printf("error bytes:     %.2f%%\n", Report.errorPercent());
    std::printf("actually short:  %.1f%%\n", Report.actualShortPercent());
    return 0;
  }

  if (Command == "emit-header") {
    if (Args.size() != 3)
      return usage();
    std::ifstream In(Args[1]);
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n", Args[1].c_str());
      return 1;
    }
    std::string Error;
    auto DB = SiteDatabase::load(In, &Error);
    if (!DB) {
      std::fprintf(stderr, "error: %s: %s\n", Args[1].c_str(), Error.c_str());
      return 1;
    }
    std::ofstream Out(Args[2]);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", Args[2].c_str());
      return 1;
    }
    emitSiteDatabaseHeader(*DB, Out);
    std::printf("emitted %zu-site predictor -> %s\n", DB->size(),
                Args[2].c_str());
    return 0;
  }

  return usage();
}
