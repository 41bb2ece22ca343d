//===- bench/ObservatoryBench.cpp - Heap observatory bench hooks -----------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ObservatoryBench.h"

#include "core/Pipeline.h"
#include "sim/MultiArenaSimulator.h"
#include "sim/SimTelemetry.h"
#include "sim/TraceSimulator.h"
#include "support/TableFormatter.h"

#include <cstdio>
#include <iostream>

using namespace lifepred;

namespace {

const char *const FamilyNames[BenchObservatory::FamilyCount] = {
    "firstfit", "bsd", "arena", "multiarena"};

} // namespace

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
    if (!Options.HeatmapOutPath.empty()) {
      std::string Out;
      Map->writeJson(Out, "");
      Out += "\n";
      std::FILE *File = std::fopen(Options.HeatmapOutPath.c_str(), "w");
      if (!File) {
        std::fprintf(stderr, "warning: cannot write --heatmap-out=%s\n",
                     Options.HeatmapOutPath.c_str());
      } else {
        std::fwrite(Out.data(), 1, Out.size(), File);
        std::fclose(File);
        std::printf("heatmap JSON written to %s\n",
                    Options.HeatmapOutPath.c_str());
      }
    }
  }
}

bool lifepred::runObservatoryPass(const BenchOptions &Options,
                                  const std::vector<ProgramTraces> &All,
                                  ThreadPool &Pool, StatsRegistry &Registry) {
  if (!Options.Observe || All.empty())
    return false;
  BenchObservatory Observatory(Options, All.size());
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  // The multi-arena band geometry of ablation_multi_arena's "2 bands"
  // case, matching bench_sim_throughput's observatory configuration.
  const std::vector<uint64_t> BandThresholds = {16 * 1024, 32 * 1024};
  ArenaAllocator::Config MultiConfig;
  MultiConfig.Bands = {{32 * 1024, 8}, {32 * 1024, 8}};

  std::vector<StatsRegistry> PerProgram(All.size());
  parallelForIndex(Pool, All.size(), [&](size_t Index) {
    const ProgramTraces &Traces = All[Index];
    CompiledTrace Test(Traces.Test, Policy);
    Profile TrainProfile = profileTrace(Traces.Train, Policy);
    SiteDatabase TrueDB = trainDatabase(TrainProfile, Policy);
    ClassDatabase ClassDB =
        trainClassDatabase(TrainProfile, Policy, BandThresholds);

    SimTelemetry FF;
    FF.Registry = &PerProgram[Index];
    Observatory.attach(FF, Index, BenchObservatory::FirstFit);
    simulateFirstFit(Test, CostModel(), FirstFitAllocator::Config(), &FF);

    SimTelemetry Bsd;
    Bsd.Registry = &PerProgram[Index];
    Observatory.attach(Bsd, Index, BenchObservatory::Bsd);
    simulateBsd(Test, CostModel(), BsdAllocator::Config(), &Bsd);

    SimTelemetry Arena;
    Arena.Registry = &PerProgram[Index];
    Observatory.attach(Arena, Index, BenchObservatory::Arena);
    simulateArena(Test, TrueDB, Traces.Model.CallsPerAlloc, CostModel(),
                  ArenaAllocator::Config(), &Arena);

    SimTelemetry Multi;
    Multi.Registry = &PerProgram[Index];
    Observatory.attach(Multi, Index, BenchObservatory::Multi);
    simulateMultiArena(Test, ClassDB, MultiConfig, &Multi);
  });
  for (StatsRegistry &Program : PerProgram)
    Registry.merge(Program);
  Observatory.finish(Options, All);
  return true;
}
