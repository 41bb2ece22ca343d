//===- sim/TraceSimulator.cpp - Trace-driven allocator simulation ----------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
// Replays run through forEachEvent with concrete consumer types, so the
// per-event path has no virtual dispatch.  Each allocator family has one
// consumer, a class template on `bool Observed`: the unobserved
// instantiation is the branch-lean hot path used when no SimTelemetry is
// attached, and the observed one adds the telemetry, timeline, and
// flight-recorder hooks under `if constexpr`.  Both make identical
// allocator calls in identical order, so Counters agree bit-for-bit; only
// the observation differs.  The baseline consumer also serves the on-disk
// source (trace/ScheduleFile.h), which is why streamSimulateFirstFit and
// streamSimulateBsd are defined here.
//
//===----------------------------------------------------------------------===//

#include "sim/TraceSimulator.h"

#include "core/Profiler.h"
#include "sim/CompiledPrediction.h"
#include "sim/SimTelemetry.h"
#include "sim/StreamReplay.h"
#include "telemetry/DriftObservatory.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/LatencyRecorder.h"
#include "trace/ScheduleFile.h"

#include <unordered_set>
#include <vector>

using namespace lifepred;

namespace {

/// Replay into a first-fit or BSD heap from either event source: the
/// address table is indexed by the source's key (record id in memory, slot
/// on disk) and sized by eventKeyCount.
template <typename AllocatorT, bool Observed>
class BaselineConsumer
    : public ScheduleConsumer<BaselineConsumer<AllocatorT, Observed>> {
public:
  BaselineConsumer(AllocatorT &Allocator, uint64_t KeyCount,
                   SimTelemetry *Telemetry)
      : Allocator(Allocator), Telemetry(Telemetry),
        Latency(Telemetry ? Telemetry->Latency : nullptr),
        Addresses(KeyCount) {}

  void onAlloc(uint32_t Key, uint32_t Size, uint64_t Clock) {
    Addresses[Key] = timedAllocatorOp(latency(), LatencyRecorder::OpAlloc,
                                      [&] { return Allocator.allocate(Size); });
    raisePeak(MaxLive, Allocator.liveBytes());
    if constexpr (Observed)
      observeSample(Telemetry, Clock, Allocator, /*ArenaBytes=*/0);
  }

  void onFree(uint32_t Key, uint64_t Clock) {
    timedAllocatorOp(latency(), LatencyRecorder::OpFree,
                     [&] { Allocator.free(Addresses[Key]); });
    // Frees shatter and coalesce spans, so the observatory samples on
    // both event kinds — the trace tail is all frees, and alloc-only
    // sampling would never see the heap drain.
    if constexpr (Observed)
      observeSample(Telemetry, Clock, Allocator, /*ArenaBytes=*/0);
  }

  uint64_t maxLiveBytes() const { return MaxLive; }

private:
  /// The latency sink; a compile-time null when unobserved, so the timing
  /// folds away.
  LatencyRecorder *latency() const { return Observed ? Latency : nullptr; }

  AllocatorT &Allocator;
  SimTelemetry *Telemetry;
  LatencyRecorder *Latency;
  std::vector<uint64_t> Addresses;
  uint64_t MaxLive = 0;
};

/// Replays \p Source into \p Allocator, registered under \p Prefix and
/// observed only when \p Telemetry is attached; returns the live-byte peak.
template <typename SourceT, typename AllocatorT>
uint64_t replayBaseline(const SourceT &Source, AllocatorT &Allocator,
                        SimTelemetry *Telemetry, const char *Prefix) {
  if (Telemetry && Telemetry->Registry)
    Allocator.attachTelemetry(*Telemetry->Registry, Prefix);
  const uint64_t Keys = eventKeyCount(Source);
  uint64_t MaxLive = 0;
  if (Telemetry) {
    BaselineConsumer<AllocatorT, true> Consumer(Allocator, Keys, Telemetry);
    forEachEvent(Source, Consumer);
    MaxLive = Consumer.maxLiveBytes();
  } else {
    BaselineConsumer<AllocatorT, false> Consumer(Allocator, Keys, nullptr);
    forEachEvent(Source, Consumer);
    MaxLive = Consumer.maxLiveBytes();
  }
  if (Telemetry && Telemetry->Registry) {
    Allocator.exportTelemetry(*Telemetry->Registry, Prefix);
    exportObservatory(Telemetry, Prefix);
  }
  return MaxLive;
}

template <typename SourceT>
BaselineSimResult firstFitOver(const SourceT &Source, const CostModel &Costs,
                               FirstFitAllocator::Config Config,
                               SimTelemetry *Telemetry) {
  FirstFitAllocator Allocator(Config);
  BaselineSimResult Result;
  Result.MaxLiveBytes =
      replayBaseline(Source, Allocator, Telemetry, "firstfit.");
  Result.MaxHeapBytes = Allocator.maxHeapBytes();
  Result.FirstFit = Allocator.counters();
  Result.Instr = Costs.firstFit(Allocator.counters());
  return Result;
}

template <typename SourceT>
BaselineSimResult bsdOver(const SourceT &Source, const CostModel &Costs,
                          BsdAllocator::Config Config,
                          SimTelemetry *Telemetry) {
  BsdAllocator Allocator(Config);
  BaselineSimResult Result;
  Result.MaxLiveBytes = replayBaseline(Source, Allocator, Telemetry, "bsd.");
  Result.MaxHeapBytes = Allocator.maxHeapBytes();
  Result.Bsd = Allocator.counters();
  Result.Instr = Costs.bsd(Allocator.counters());
  return Result;
}

/// Arena replay: the predicted-short verdict is one bit load, the
/// allocate/free calls are non-virtual.  Templated over the bits provider
/// so the static lane (PredictedShortBits) and the online dynamic-override
/// lane (DynamicRouteBits) replay through the identical code path.  The
/// observed instantiation adds prediction outcomes, timeline, recorder.
template <typename BitsT, bool Observed>
class ArenaConsumer
    : public ScheduleConsumer<ArenaConsumer<BitsT, Observed>> {
public:
  ArenaConsumer(ArenaAllocator &Allocator, const AllocationTrace &Trace,
                const SiteDatabase &DB, const BitsT &Predicted,
                SimTelemetry *Telemetry)
      : Allocator(Allocator), Records(Trace.records().data()), DB(DB),
        Predicted(Predicted), Telemetry(Telemetry),
        Recorder(Telemetry ? Telemetry->Recorder : nullptr),
        Latency(Telemetry ? Telemetry->Latency : nullptr),
        Addresses(Trace.size()) {}

  void onAlloc(uint32_t Id, uint32_t Size, uint64_t Clock) {
    bool PredictedShort = Predicted.test(Id);
    if constexpr (Observed) {
      if (Recorder)
        // Pin/reset callbacks fire from inside allocate(); give them the
        // clock this allocation will be recorded at.
        Recorder->beginEvent(Clock);
    }
    Addresses[Id] = timedAllocatorOp(latency(), LatencyRecorder::OpAlloc, [&] {
      return Allocator.allocate(Size, PredictedShort);
    });
    raisePeak(MaxLive, Allocator.liveBytes());
    if constexpr (Observed)
      observeAlloc(Id, Clock, PredictedShort);
  }

  void onFree(uint32_t Id, uint64_t Clock) {
    timedAllocatorOp(latency(), LatencyRecorder::OpFree,
                     [&] { Allocator.free(Addresses[Id]); });
    if constexpr (Observed) {
      observeSample(Telemetry, Clock, Allocator, Allocator.arenaLiveBytes());
      if (Recorder)
        Recorder->recordFree(Id, Clock);
    }
  }

  void onEnd(uint64_t Clock) {
    if constexpr (Observed) {
      if (Recorder)
        Recorder->finish(Clock);
    }
  }

  uint64_t maxLiveBytes() const { return MaxLive; }

private:
  LatencyRecorder *latency() const { return Observed ? Latency : nullptr; }

  void observeAlloc(uint32_t Id, uint64_t Clock, bool PredictedShort) {
    const AllocRecord &Record = Records[Id];
    // NeverFreed is the maximal lifetime, so never-freed objects always
    // classify as actually long-lived.
    bool ActuallyShort = Record.Lifetime <= DB.threshold();
    Telemetry->Outcomes.add(PredictedShort, ActuallyShort);
    if (Telemetry->Drift)
      Telemetry->Drift->recordAlloc(Clock, Record.ChainIndex, Record.Size,
                                    PredictedShort, Record.Lifetime,
                                    ActuallyShort);
    observeSample(Telemetry, Clock, Allocator, Allocator.arenaLiveBytes());
    if (Recorder) {
      AuditPlacement Placement;
      uint64_t Addr = Addresses[Id];
      if (Allocator.isArenaAddress(Addr)) {
        Placement.ArenaIndex = Allocator.arenaIndexFor(Addr);
        Placement.Generation = Allocator.arenaGeneration(Placement.ArenaIndex);
      }
      Recorder->recordAlloc(Id, Clock, Record.ChainIndex, Record.Size,
                            PredictedShort, DB.threshold(), Placement);
    }
  }

  ArenaAllocator &Allocator;
  const AllocRecord *Records;
  const SiteDatabase &DB;
  const BitsT &Predicted;
  SimTelemetry *Telemetry;
  FlightRecorder *Recorder;
  LatencyRecorder *Latency;
  std::vector<uint64_t> Addresses;
  uint64_t MaxLive = 0;
};

/// Shared arena replay body: identical allocator calls for either bits
/// provider, so the static and online lanes differ only in the verdict
/// each record carries.
template <typename BitsT>
ArenaSimResult simulateArenaWith(const CompiledTrace &Compiled,
                                 const SiteDatabase &DB,
                                 const BitsT &Predicted, double CallsPerAlloc,
                                 const CostModel &Costs,
                                 ArenaAllocator::Config Config,
                                 SimTelemetry *Telemetry) {
  ArenaAllocator Allocator(Config);
  if (Telemetry && Telemetry->Registry)
    Allocator.attachTelemetry(*Telemetry->Registry, "arena.");
  if (Telemetry && Telemetry->Recorder) {
    Telemetry->Recorder->setArenaGeometry(AuditPlacement::DefaultBand,
                                          Allocator.arenaBytes());
    Allocator.attachLifecycle(Telemetry->Recorder);
  }
  const AllocationTrace &Trace = Compiled.trace();
  uint64_t MaxLive = 0;
  if (Telemetry) {
    ArenaConsumer<BitsT, true> Consumer(Allocator, Trace, DB, Predicted,
                                        Telemetry);
    forEachEvent(Compiled, Consumer);
    MaxLive = Consumer.maxLiveBytes();
  } else {
    ArenaConsumer<BitsT, false> Consumer(Allocator, Trace, DB, Predicted,
                                         nullptr);
    forEachEvent(Compiled, Consumer);
    MaxLive = Consumer.maxLiveBytes();
  }
  if (Telemetry && Telemetry->Registry) {
    Allocator.exportTelemetry(*Telemetry->Registry, "arena.");
    Telemetry->Outcomes.exportTelemetry(*Telemetry->Registry, "arena.pred.");
    raisePeak(Telemetry->Registry->gauge("arena.pred.sites"),
              distinctSiteCount(Trace));
    exportObservatory(Telemetry, "arena.");
  }

  ArenaSimResult Result;
  Result.MaxHeapBytes = Allocator.maxHeapBytes();
  Result.MaxLiveBytes = MaxLive;
  Result.Arena = Allocator.counters();
  Result.General = Allocator.general().counters();
  Result.InstrLen4 = Costs.arena(Result.Arena, Result.General,
                                 /*UseCce=*/false, CallsPerAlloc);
  Result.InstrCce = Costs.arena(Result.Arena, Result.General,
                                /*UseCce=*/true, CallsPerAlloc);
  return Result;
}

} // namespace

BaselineSimResult
lifepred::simulateFirstFit(const CompiledTrace &Compiled,
                           const CostModel &Costs,
                           FirstFitAllocator::Config Config,
                           SimTelemetry *Telemetry) {
  return firstFitOver(Compiled, Costs, Config, Telemetry);
}

BaselineSimResult lifepred::simulateBsd(const CompiledTrace &Compiled,
                                        const CostModel &Costs,
                                        BsdAllocator::Config Config,
                                        SimTelemetry *Telemetry) {
  return bsdOver(Compiled, Costs, Config, Telemetry);
}

StreamSimResult lifepred::streamSimulateFirstFit(
    const ScheduleFile &File, const CostModel &Costs,
    FirstFitAllocator::Config Config, SimTelemetry *Telemetry) {
  return {firstFitOver(File, Costs, Config, Telemetry), File.eventCount()};
}

StreamSimResult lifepred::streamSimulateBsd(const ScheduleFile &File,
                                            const CostModel &Costs,
                                            BsdAllocator::Config Config,
                                            SimTelemetry *Telemetry) {
  return {bsdOver(File, Costs, Config, Telemetry), File.eventCount()};
}

ArenaSimResult lifepred::simulateArena(const CompiledTrace &Compiled,
                                       const SiteDatabase &DB,
                                       double CallsPerAlloc,
                                       const CostModel &Costs,
                                       ArenaAllocator::Config Config,
                                       SimTelemetry *Telemetry) {
  PredictedShortBits Predicted(Compiled, DB);
  return simulateArenaWith(Compiled, DB, Predicted, CallsPerAlloc, Costs,
                           Config, Telemetry);
}

ArenaSimResult lifepred::simulateArena(const CompiledTrace &Compiled,
                                       const SiteDatabase &DB,
                                       const DynamicRouteBits &Routes,
                                       double CallsPerAlloc,
                                       const CostModel &Costs,
                                       ArenaAllocator::Config Config,
                                       SimTelemetry *Telemetry) {
  return simulateArenaWith(Compiled, DB, Routes, CallsPerAlloc, Costs,
                           Config, Telemetry);
}

TrainedQuantileMap
lifepred::buildTrainedQuantiles(const AllocationTrace &Trace,
                                const Profile &Trained,
                                const SiteKeyPolicy &Policy) {
  TrainedQuantileMap Map;
  std::unordered_set<uint32_t> Seen;
  for (const AllocRecord &Record : Trace.records()) {
    if (!Seen.insert(Record.ChainIndex).second)
      continue;
    SiteKey Key = siteKey(Policy, Trace.chain(Record.ChainIndex), Record.Size,
                          Record.TypeId);
    auto It = Trained.Sites.find(Key);
    if (It == Trained.Sites.end())
      continue;
    const SiteStats &Stats = It->second;
    TrainedSiteQuantiles Quantiles;
    Quantiles.Objects = Stats.Objects;
    Quantiles.Q25 = Stats.Lifetimes.quantile(0.25);
    Quantiles.Q50 = Stats.Lifetimes.quantile(0.50);
    Quantiles.Q75 = Stats.Lifetimes.quantile(0.75);
    Map.emplace(Record.ChainIndex, Quantiles);
  }
  return Map;
}
