//===- sim/SimTelemetry.h - Simulation observability hooks ------*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Optional observability sinks for the trace simulators.  A SimTelemetry
/// passed to simulateFirstFit / simulateBsd / simulateArena /
/// simulateMultiArena turns on metric collection for that run: allocator
/// counters and per-allocation histograms land in the StatsRegistry,
/// byte-clock heap samples in the HeapTimeline, and (for the predicting
/// allocators) prediction outcomes are classified per event.
/// Passing nullptr — the default everywhere — leaves the simulation
/// untouched.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_SIM_SIMTELEMETRY_H
#define LIFEPRED_SIM_SIMTELEMETRY_H

#include "telemetry/HeapTimeline.h"
#include "telemetry/StatsRegistry.h"

#include <cstdint>
#include <string>

namespace lifepred {

class AllocationTrace;
class AllocatorSim;
class DriftObservatory;
class FlightRecorder;
class FragmentationProbe;
class HeapHeatmap;
class LatencyRecorder;

/// Confusion-matrix counts for lifetime prediction, using the paper's
/// terminology: an object is *actually* short-lived when its traced
/// lifetime is within the training threshold.
struct PredictionCounts {
  uint64_t TrueShort = 0;   ///< Predicted short, died within threshold.
  uint64_t FalseShort = 0;  ///< Predicted short, outlived the threshold.
  uint64_t MissedShort = 0; ///< Predicted long, died within threshold.
  uint64_t TrueLong = 0;    ///< Predicted long, outlived the threshold.

  uint64_t total() const {
    return TrueShort + FalseShort + MissedShort + TrueLong;
  }

  /// Fraction of all events predicted correctly, in percent.
  double accuracyPercent() const {
    uint64_t Total = total();
    return Total == 0 ? 0.0
                      : 100.0 * static_cast<double>(TrueShort + TrueLong) /
                            static_cast<double>(Total);
  }

  void add(bool PredictedShort, bool ActuallyShort) {
    if (PredictedShort)
      ++(ActuallyShort ? TrueShort : FalseShort);
    else
      ++(ActuallyShort ? MissedShort : TrueLong);
  }

  /// Exports the four cells as counters "<Prefix>true_short", ... .
  void exportTelemetry(StatsRegistry &Registry,
                       const std::string &Prefix) const {
    Registry.counter(Prefix + "true_short") += TrueShort;
    Registry.counter(Prefix + "false_short") += FalseShort;
    Registry.counter(Prefix + "missed_short") += MissedShort;
    Registry.counter(Prefix + "true_long") += TrueLong;
  }

  bool operator==(const PredictionCounts &Other) const = default;
};

/// Sinks for one instrumented simulation.  Null members disable the
/// corresponding collection; the struct itself is passed by pointer with a
/// nullptr default, so uninstrumented runs never touch any of this.
struct SimTelemetry {
  /// Counters, gauges, and histograms accumulate here.
  StatsRegistry *Registry = nullptr;
  /// Byte-clock heap samples accumulate here.
  HeapTimeline *Timeline = nullptr;
  /// Aggregate prediction outcomes (predicting simulators only).
  PredictionCounts Outcomes;
  /// Per-object audit trail (predicting simulators only).  When set, the
  /// simulator feeds every birth/death into the recorder, attaches it to
  /// the allocator's arena lifecycle hooks, and calls finish() at the end
  /// of the replay.  One recorder per replay — recorders are not merged;
  /// fan-out code exports them per program in task order.
  FlightRecorder *Recorder = nullptr;
  /// Heap observatory sinks (telemetry/FragmentationProbe.h etc.).  Each is
  /// stride- or period-gated independently; the simulators export probe
  /// results into Registry under the allocator family's prefix at the end
  /// of the replay.  All default to detached.
  FragmentationProbe *Fragmentation = nullptr;
  HeapHeatmap *Heatmap = nullptr;
  LatencyRecorder *Latency = nullptr;
  /// Windowed prediction-drift accounting (predicting simulators only).
  /// When set, every allocation outcome also lands in the observatory's
  /// byte-clock windows.  Not exported by exportObservatory — the drift
  /// report needs trained quantiles, so fan-out code builds and exports
  /// DriftReports per program after the replay.
  DriftObservatory *Drift = nullptr;
};

/// The span walk under observeSample, exposed for shard-aware callers: one
/// pass over \p Allocator's free and live spans feeding \p Probe and/or
/// \p Heatmap (either may be null; both null is a no-op).  The serving
/// engine calls this once per shard sub-heap — each shard is its own
/// AllocatorSim, so the walk needs no notion of sharding, only a caller
/// that aggregates per-shard samples into one probe.  Quiescent heaps
/// only.
void probeHeapSpans(const AllocatorSim &Allocator, uint64_t Clock,
                    FragmentationProbe *Probe, HeapHeatmap *Heatmap);

/// Records byte-clock observatory samples of \p Allocator when any of the
/// attached sinks (timeline, fragmentation probe, heatmap) is due at
/// \p Clock.  One fragmentation/heatmap scan shares a single span walk.
/// \p ArenaBytes is supplied by the caller because only the arena
/// allocators have the concept.  Null-telemetry calls return immediately;
/// the observed consumers pay three compares per event when all sinks
/// are attached.
void observeSample(SimTelemetry *Telemetry, uint64_t Clock,
                   const AllocatorSim &Allocator, uint64_t ArenaBytes);

/// The number of distinct allocation sites (chain-table indices) among
/// \p Trace's records: the predicting simulators' `<prefix>pred.sites`
/// gauge.
uint64_t distinctSiteCount(const AllocationTrace &Trace);

/// Exports the observatory sinks (probe state, latency distributions) into
/// Telemetry->Registry under \p Prefix.  Called by each simulator after
/// the replay, mirroring the allocator exportTelemetry discipline; no-op
/// for detached members.
void exportObservatory(SimTelemetry *Telemetry, const std::string &Prefix);

} // namespace lifepred

#endif // LIFEPRED_SIM_SIMTELEMETRY_H
