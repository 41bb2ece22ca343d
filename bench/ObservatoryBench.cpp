//===- bench/ObservatoryBench.cpp - The shared observatory driver ----------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ObservatoryBench.h"

#include "core/Pipeline.h"
#include "sim/MultiArenaSimulator.h"
#include "sim/SimTelemetry.h"
#include "support/TableFormatter.h"
#include "telemetry/LifetimeAudit.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <new>

using namespace lifepred;

namespace {

const char *const FamilyNames[BenchObservatory::FamilyCount] = {
    "firstfit", "bsd", "arena", "multiarena"};

/// printAuditReport's text, so stdout and --audit-out get the same bytes.
std::string auditText(const AuditReport &Audit) {
  char *Buffer = nullptr;
  size_t Size = 0;
  std::FILE *Stream = open_memstream(&Buffer, &Size);
  if (!Stream)
    throw std::bad_alloc();
  printAuditReport(Audit, Stream);
  std::fclose(Stream);
  std::string Text(Buffer, Size);
  std::free(Buffer);
  return Text;
}

/// The one writer of --audit-out, --drift-out and --heatmap-out.  An
/// unwritable path is a usage error: it prints `error: cannot write
/// --<Flag>=<Path>` and exits with status 1.
void writeOutputFile(const char *Flag, const std::string &Path,
                     const std::string &Contents) {
  std::FILE *File = std::fopen(Path.c_str(), "w");
  bool Written = File && std::fwrite(Contents.data(), 1, Contents.size(),
                                     File) == Contents.size();
  if (File && std::fclose(File) != 0)
    Written = false;
  if (!Written) {
    std::fprintf(stderr, "error: cannot write --%s=%s\n", Flag, Path.c_str());
    std::exit(1);
  }
}

} // namespace

const std::vector<uint64_t> lifepred::MultiArenaThresholds = {16 * 1024,
                                                              32 * 1024};

ArenaAllocator::Config lifepred::multiArenaConfig() {
  ArenaAllocator::Config Config;
  Config.Bands = {{32 * 1024, 8}, {32 * 1024, 8}};
  return Config;
}

void lifepred::writeHeatmapFile(const HeapHeatmap &Map,
                                const std::string &Path) {
  std::string Out;
  Map.writeJson(Out, "");
  Out += "\n";
  writeOutputFile("heatmap-out", Path, Out);
  std::printf("heatmap JSON written to %s\n", Path.c_str());
}

BenchObservatory::BenchObservatory(const BenchOptions &Options,
                                   size_t ProgramCount) {
  if (!Options.Observe || ProgramCount == 0)
    return;
  Stride = Options.ObserveStride;
  const size_t Sinks = ProgramCount * FamilyCount;
  Probes.reserve(Sinks);
  Latencies.reserve(Sinks);
  for (size_t I = 0; I < Sinks; ++I) {
    Probes.emplace_back(Stride);
    Latencies.emplace_back();
  }
  HeapHeatmap::Config MapConfig;
  MapConfig.ClockStride = Stride;
  Map = std::make_unique<HeapHeatmap>(MapConfig);
}

void BenchObservatory::attach(SimTelemetry &Telemetry, size_t Program,
                              Family F) {
  if (!enabled())
    return;
  Telemetry.Fragmentation = &Probes[Program * FamilyCount + F];
  Telemetry.Latency = &Latencies[Program * FamilyCount + F];
  if (Program == 0 && F == FirstFit)
    Telemetry.Heatmap = Map.get();
}

void BenchObservatory::finish(const BenchOptions &Options,
                              const std::vector<ProgramTraces> &All) {
  if (!enabled())
    return;
  std::printf("\n-- observatory (byte-clock stride %llu) --\n",
              static_cast<unsigned long long>(Stride));
  TableFormatter Table({"Program", "Family", "Samples", "FragIdx(ppm)",
                        "MaxFrag(ppm)", "LargestFree", "AllocP99(ns)"});
  for (size_t I = 0; I < All.size(); ++I) {
    bool First = true;
    for (unsigned F = 0; F < FamilyCount; ++F) {
      const FragmentationProbe &Probe = Probes[I * FamilyCount + F];
      if (Probe.sampleCount() == 0)
        continue; // Family not replayed under this bench mode.
      Table.beginRow();
      Table.addCell(First ? All[I].Model.Name : "");
      First = false;
      Table.addCell(FamilyNames[F]);
      Table.addInt(static_cast<int64_t>(Probe.sampleCount()));
      Table.addInt(static_cast<int64_t>(Probe.lastFragIndexPpm()));
      Table.addInt(static_cast<int64_t>(Probe.maxFragIndexPpm()));
      Table.addInt(static_cast<int64_t>(Probe.largestFreeBlock()));
      Table.addInt(static_cast<int64_t>(Latencies[I * FamilyCount + F]
                                            .quantileNanos(
                                                LatencyRecorder::OpAlloc,
                                                0.99)));
    }
  }
  Table.print(std::cout);
  if (Map) {
    std::printf("heatmap: %llu rows x %llu columns, %llu occupied cells, "
                "%llu clipped bytes\n",
                static_cast<unsigned long long>(Map->rowCount()),
                static_cast<unsigned long long>(Map->columnCount()),
                static_cast<unsigned long long>(Map->occupiedCells()),
                static_cast<unsigned long long>(Map->clippedBytes()));
    if (!Options.HeatmapOutPath.empty())
      writeHeatmapFile(*Map, Options.HeatmapOutPath);
  }
}

ArenaForensics::ArenaForensics(const BenchOptions &Options,
                               size_t ProgramCount)
    : ArenaForensics(Options, ProgramCount, !Options.AuditOutPath.empty(),
                     !Options.DriftOutPath.empty()) {}

ArenaForensics::ArenaForensics(const BenchOptions &Options,
                               size_t ProgramCount, bool Audit, bool Drift)
    : Options(Options), Audit(Audit), Drift(Drift) {
  if (!enabled())
    return;
  Trained.resize(ProgramCount);
  Drifts.resize(ProgramCount);
  Recorders.resize(ProgramCount);
  if (!Audit)
    return;
  // One recorder per program replay: each records serially inside its
  // task and is read back in program order.
  FlightRecorder::Config RecorderConfig;
  RecorderConfig.Seed = Options.Seed;
  for (auto &Recorder : Recorders)
    Recorder = std::make_unique<FlightRecorder>(RecorderConfig);
}

void ArenaForensics::train(size_t Program, const AllocationTrace &Test,
                           const Profile &TrainProfile) {
  if (enabled())
    Trained[Program] = buildTrainedQuantiles(
        Test, TrainProfile, SiteKeyPolicy::completeChain());
}

void ArenaForensics::attach(SimTelemetry &Telemetry, size_t Program,
                            const CompiledTrace &Test,
                            const SiteDatabase &DB) {
  if (!enabled())
    return;
  Telemetry.Recorder = Recorders[Program].get();
  if (Drift) {
    DriftConfig Config;
    Config.EndClock = Test.schedule().endClock();
    Config.WindowBytes = Options.DriftWindowBytes;
    Config.Threshold = DB.threshold();
    Drifts[Program] = std::make_unique<DriftObservatory>(Config);
    Telemetry.Drift = Drifts[Program].get();
  }
}

ArenaSimResult ArenaForensics::replayArena(size_t Program,
                                           const ProgramTraces &Traces,
                                           StatsRegistry *Registry) {
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  Profile TrainProfile = profileTrace(Traces.Train, Policy);
  SiteDatabase DB = trainDatabase(TrainProfile, Policy);
  CompiledTrace Test(Traces.Test, Policy);
  train(Program, Traces.Test, TrainProfile);
  SimTelemetry Telemetry;
  Telemetry.Registry = Registry;
  attach(Telemetry, Program, Test, DB);
  bool Instrument = Registry || enabled();
  return simulateArena(Test, DB, Traces.Model.CallsPerAlloc, CostModel(),
                       ArenaAllocator::Config(),
                       Instrument ? &Telemetry : nullptr);
}

void ArenaForensics::writeReports(const std::vector<ProgramTraces> &All,
                                  bool Echo, StatsRegistry *Registry,
                                  JsonReport *Report,
                                  TraceEventWriter *Trace) const {
  if (Audit)
    writeAudit(All, Echo, Registry, Report, Trace);
  if (Drift)
    writeDrift(All, Echo, Registry, Report, Trace);
}

void ArenaForensics::writeAudit(const std::vector<ProgramTraces> &All,
                                bool Echo, StatsRegistry *Registry,
                                JsonReport *Report,
                                TraceEventWriter *Trace) const {
  std::string Text;
  for (size_t I = 0; I < All.size(); ++I) {
    std::string Name = All[I].Model.Name;
    AuditReport Audit =
        buildAuditReport(*Recorders[I], &Trained[I], Name + ".arena");
    std::string ProgramText = auditText(Audit);
    if (Echo)
      std::fwrite(ProgramText.data(), 1, ProgramText.size(), stdout);
    Text += ProgramText;
    if (Registry)
      exportAuditTelemetry(Audit, *Registry, "audit." + Name + ".");
    if (Report) {
      Report->add(Name + ".audit.wasted_bytes",
                  static_cast<double>(Audit.wastedBytes()));
      Report->add(Name + ".audit.dead_bytes_pinned",
                  static_cast<double>(Audit.TotalDeadByteIntegral));
      Report->add(Name + ".audit.false_short",
                  static_cast<double>(Audit.FalseShort));
      Report->add(Name + ".audit.pinned_episodes",
                  static_cast<double>(Audit.PinnedEpisodes));
    }
    if (Trace)
      emitArenaOccupancy(Audit, *Trace);
  }
  if (!Options.AuditOutPath.empty())
    writeOutputFile("audit-out", Options.AuditOutPath, Text);
}

void ArenaForensics::writeDrift(const std::vector<ProgramTraces> &All,
                                bool Echo, StatsRegistry *Registry,
                                JsonReport *Report,
                                TraceEventWriter *Trace) const {
  std::string Json = "{\n  \"schema_version\": 1,\n  \"reports\": [\n";
  uint64_t TotalWindows = 0;
  uint64_t TotalChangePoints = 0;
  bool HaveWorst = false;
  DriftSiteScore Worst;
  for (size_t I = 0; I < All.size(); ++I) {
    std::string Name = All[I].Model.Name;
    DriftReport Drift =
        buildDriftReport(*Drifts[I], &Trained[I], Name + ".arena");
    if (Echo)
      printDriftReport(Drift, stdout);
    writeDriftJson(Drift, Json, "    ");
    Json += I + 1 != All.size() ? ",\n" : "\n";
    if (Registry)
      exportDriftTelemetry(Drift, *Registry, "drift." + Name + ".");
    if (Trace)
      emitDriftTrack(Drift, *Trace, 900 + static_cast<unsigned>(I) * 2);
    TotalWindows += Drift.Windows.size();
    TotalChangePoints += Drift.changePointCount();
    if (Report) {
      Report->add(Name + ".drift.windows",
                  static_cast<double>(Drift.Windows.size()));
      Report->add(Name + ".drift.changepoint_count",
                  static_cast<double>(Drift.changePointCount()));
      Report->add(Name + ".drift.accuracy_mean_ppm",
                  static_cast<double>(Drift.MeanAccuracyPpm));
      Report->add(Name + ".drift.pinned_bytes",
                  static_cast<double>(Drift.PinnedBytes));
      if (Drift.hasWorstSite())
        Report->add(Name + ".drift.worst_site_score",
                    Drift.worstSite().Score);
    }
    if (Drift.hasWorstSite() &&
        (!HaveWorst || Drift.worstSite().Score > Worst.Score)) {
      HaveWorst = true;
      Worst = Drift.worstSite();
    }
  }
  Json += "  ]\n}\n";
  if (Report) {
    Report->add("drift.windows", static_cast<double>(TotalWindows));
    Report->add("drift.changepoint_count",
                static_cast<double>(TotalChangePoints));
    if (HaveWorst) {
      Report->add("drift.worst_site_id", static_cast<double>(Worst.Site));
      Report->add("drift.worst_site_window",
                  static_cast<double>(Worst.Window));
      Report->add("drift.worst_site_score", Worst.Score);
    }
  }
  if (!Options.DriftOutPath.empty()) {
    writeOutputFile("drift-out", Options.DriftOutPath, Json);
    std::printf("drift JSON written to %s\n", Options.DriftOutPath.c_str());
  }
}

PredictionCounts lifepred::replayFamilies(
    size_t Program, const ProgramTraces &Traces, const CompiledTrace &Test,
    const SiteDatabase &TrueDB, const ClassDatabase &ClassDB,
    const FirstFitAllocator::Config &FFConfig, StatsRegistry &Registry,
    BenchObservatory &Observatory, ArenaForensics *Forensics,
    HeapTimeline *Timeline) {
  SimTelemetry FF;
  FF.Registry = &Registry;
  FF.Timeline = Timeline;
  Observatory.attach(FF, Program, BenchObservatory::FirstFit);
  simulateFirstFit(Test, CostModel(), FFConfig, &FF);

  SimTelemetry Bsd;
  Bsd.Registry = &Registry;
  Observatory.attach(Bsd, Program, BenchObservatory::Bsd);
  simulateBsd(Test, CostModel(), BsdAllocator::Config(), &Bsd);

  SimTelemetry Arena;
  Arena.Registry = &Registry;
  if (Forensics)
    Forensics->attach(Arena, Program, Test, TrueDB);
  Observatory.attach(Arena, Program, BenchObservatory::Arena);
  simulateArena(Test, TrueDB, Traces.Model.CallsPerAlloc, CostModel(),
                ArenaAllocator::Config(), &Arena);

  SimTelemetry Multi;
  Multi.Registry = &Registry;
  Observatory.attach(Multi, Program, BenchObservatory::Multi);
  simulateMultiArena(Test, ClassDB, multiArenaConfig(), &Multi);
  return Arena.Outcomes;
}

bool lifepred::runObservatoryPass(const BenchOptions &Options,
                                  const std::vector<ProgramTraces> &All,
                                  ThreadPool &Pool, StatsRegistry &Registry) {
  if (!Options.Observe || All.empty())
    return false;
  BenchObservatory Observatory(Options, All.size());
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  std::vector<StatsRegistry> PerProgram(All.size());
  parallelForIndex(Pool, All.size(), [&](size_t Index) {
    const ProgramTraces &Traces = All[Index];
    CompiledTrace Test(Traces.Test, Policy);
    Profile TrainProfile = profileTrace(Traces.Train, Policy);
    replayFamilies(Index, Traces, Test, trainDatabase(TrainProfile, Policy),
                   trainClassDatabase(TrainProfile, Policy,
                                      MultiArenaThresholds),
                   FirstFitAllocator::Config(), PerProgram[Index],
                   Observatory);
  });
  for (StatsRegistry &Program : PerProgram)
    Registry.merge(Program);
  Observatory.finish(Options, All);
  return true;
}
