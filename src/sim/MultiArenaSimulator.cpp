//===- sim/MultiArenaSimulator.cpp - Banded-arena simulation ---------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/MultiArenaSimulator.h"

#include "sim/CompiledPrediction.h"
#include "sim/SimTelemetry.h"
#include "telemetry/DriftObservatory.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/LatencyRecorder.h"

using namespace lifepred;

namespace {

/// Banded replay: the band verdict is one table load.  The observed
/// instantiation adds outcomes, timeline, and flight recorder.
template <bool Observed>
class MultiArenaConsumer
    : public ScheduleConsumer<MultiArenaConsumer<Observed>> {
public:
  MultiArenaConsumer(MultiArenaAllocator &Allocator,
                     const AllocationTrace &Trace, const ClassDatabase &DB,
                     const std::vector<LifetimeClass> &Bands,
                     SimTelemetry *Telemetry)
      : Allocator(Allocator), Records(Trace.records().data()), DB(DB),
        Bands(Bands.data()), Telemetry(Telemetry),
        Recorder(Telemetry ? Telemetry->Recorder : nullptr),
        Latency(Telemetry ? Telemetry->Latency : nullptr),
        Addresses(Trace.size()) {}

  void onAlloc(uint32_t Id, uint32_t Size, uint64_t Clock) {
    LifetimeClass Band = Bands[Id];
    if constexpr (Observed) {
      if (Recorder)
        Recorder->beginEvent(Clock);
    }
    Addresses[Id] = timedAllocatorOp(latency(), LatencyRecorder::OpAlloc, [&] {
      return Allocator.allocate(Size, Band);
    });
    raisePeak(MaxLive, Allocator.liveBytes());
    if constexpr (Observed) {
      const AllocRecord &Record = Records[Id];
      recordOutcome(Record, Band, Clock);
      observeSample(Telemetry, Clock, Allocator, Allocator.arenaLiveBytes());
      if (Recorder)
        recordAudit(Id, Record, Clock, Band);
    }
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
  /// The latency sink; a compile-time null when unobserved, so the timing
  /// folds away.
  LatencyRecorder *latency() const { return Observed ? Latency : nullptr; }

  void recordOutcome(const AllocRecord &Record, LifetimeClass Band,
                     uint64_t Clock) {
    const std::vector<uint64_t> &Thresholds = DB.thresholds();
    bool PredictedBanded = Band < Thresholds.size();
    // A banded prediction is right when the object died within its band's
    // threshold; an unclassified one is a miss when the widest band would
    // have covered the object.
    bool Correct = PredictedBanded
                       ? Record.Lifetime <= Thresholds[Band]
                       : Thresholds.empty() ||
                             Record.Lifetime > Thresholds.back();
    bool ActuallyShort = PredictedBanded ? Correct : !Correct;
    Telemetry->Outcomes.add(PredictedBanded, ActuallyShort);
    if (Telemetry->Drift)
      Telemetry->Drift->recordAlloc(Clock, Record.ChainIndex, Record.Size,
                                    PredictedBanded, Record.Lifetime,
                                    ActuallyShort);
  }

  /// Feeds one allocation into the flight recorder.  The per-object class
  /// threshold reproduces recordOutcome's classification: a banded object is
  /// short within its band's threshold; an unclassified one is short within
  /// the widest band's (so MissedShort counts agree with the sim's).
  void recordAudit(uint64_t Id, const AllocRecord &Record, uint64_t Clock,
                   LifetimeClass Band) {
    const std::vector<uint64_t> &Thresholds = DB.thresholds();
    bool PredictedBanded = Band < Thresholds.size();
    uint64_t ClassThreshold =
        PredictedBanded ? Thresholds[Band]
                        : (Thresholds.empty() ? 0 : Thresholds.back());
    AuditPlacement Placement;
    uint64_t Addr = Addresses[Id];
    uint8_t PlacedBand = Allocator.bandForAddress(Addr);
    if (PlacedBand != MultiArenaAllocator::GeneralBand) {
      Placement.Band = PlacedBand;
      Placement.ArenaIndex = Allocator.arenaIndexFor(PlacedBand, Addr);
      Placement.Generation =
          Allocator.arenaGeneration(PlacedBand, Placement.ArenaIndex);
    }
    Recorder->recordAlloc(Id, Clock, Record.ChainIndex, Record.Size,
                          PredictedBanded, ClassThreshold, Placement);
  }

  MultiArenaAllocator &Allocator;
  const AllocRecord *Records;
  const ClassDatabase &DB;
  const LifetimeClass *Bands;
  SimTelemetry *Telemetry;
  FlightRecorder *Recorder;
  LatencyRecorder *Latency;
  std::vector<uint64_t> Addresses;
  uint64_t MaxLive = 0;
};

} // namespace

MultiArenaSimResult
lifepred::simulateMultiArena(const CompiledTrace &Compiled,
                             const ClassDatabase &DB,
                             MultiArenaAllocator::Config Config,
                             SimTelemetry *Telemetry) {
  MultiArenaAllocator Allocator(Config);
  if (Telemetry && Telemetry->Registry)
    Allocator.attachTelemetry(*Telemetry->Registry, "multiarena.");
  if (Telemetry && Telemetry->Recorder) {
    for (size_t Band = 0; Band < Allocator.bands(); ++Band)
      Telemetry->Recorder->setArenaGeometry(
          static_cast<uint8_t>(Band),
          Allocator.bandArenaBytes(static_cast<uint8_t>(Band)));
    Allocator.attachLifecycle(Telemetry->Recorder);
  }
  const std::vector<LifetimeClass> Bands = compileBands(Compiled, DB);
  const AllocationTrace &Trace = Compiled.trace();
  uint64_t MaxLive = 0;
  if (Telemetry) {
    MultiArenaConsumer<true> Consumer(Allocator, Trace, DB, Bands, Telemetry);
    forEachEvent(Compiled, Consumer);
    MaxLive = Consumer.maxLiveBytes();
  } else {
    MultiArenaConsumer<false> Consumer(Allocator, Trace, DB, Bands, nullptr);
    forEachEvent(Compiled, Consumer);
    MaxLive = Consumer.maxLiveBytes();
  }
  if (Telemetry && Telemetry->Registry) {
    Allocator.exportTelemetry(*Telemetry->Registry, "multiarena.");
    Telemetry->Outcomes.exportTelemetry(*Telemetry->Registry,
                                        "multiarena.pred.");
    raisePeak(Telemetry->Registry->gauge("multiarena.pred.sites"),
              distinctSiteCount(Trace));
    exportObservatory(Telemetry, "multiarena.");
  }

  MultiArenaSimResult Result;
  Result.MaxHeapBytes = Allocator.maxHeapBytes();
  Result.MaxLiveBytes = MaxLive;
  for (size_t Band = 0; Band < Allocator.bands(); ++Band)
    Result.PerBand.push_back(Allocator.bandCounters(Band));
  Result.GeneralAllocs = Allocator.generalAllocs();
  Result.GeneralBytes = Allocator.generalBytes();
  Result.General = Allocator.general().counters();
  return Result;
}
