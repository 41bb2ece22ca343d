//===- sim/TraceSimulator.h - Trace-driven allocator simulation -*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives allocator simulators from an allocation trace, as the paper's
/// section 5.2 does: each allocation event carries its size and the site
/// identifier; the trained site database decides whether it goes to the
/// short-lived arenas; frees are replayed at the byte clock implied by
/// lifetimes.  The simulation reports heap sizes, arena fractions,
/// operation counts, and reference-locality accounting.
///
/// The replay entry points, one per (event source, allocator family,
/// router):
///
///   | source          | family      | router      | entry point              |
///   |-----------------|-------------|-------------|--------------------------|
///   | CompiledTrace   | first fit   | none        | simulateFirstFit         |
///   | CompiledTrace   | BSD         | none        | simulateBsd              |
///   | CompiledTrace   | arena       | static bits | simulateArena            |
///   | CompiledTrace   | arena       | online plan | simulateArena (Routes)   |
///   | CompiledTrace   | multi-arena | class bands | simulateMultiArena       |
///   | ScheduleFile    | first fit   | none        | streamSimulateFirstFit   |
///   | ScheduleFile    | BSD         | none        | streamSimulateBsd        |
///   | .sched, scan    | BSD         | none        | streamSimulateBsdBatched |
///   | .sched, sharded | BSD         | none        | streamReplayBsdSharded   |
///
/// The sequential rows share one consumer per family, driven by
/// forEachEvent over either source (trace/CompiledTrace.h,
/// trace/ScheduleFile.h); the last two run the Kingsley count scan in
/// sim/StreamReplay.cpp (per-class live counts, no allocator), serially
/// and one pool task per chunk, and report simulateBsd's values.  Compile
/// a trace once and share the CompiledTrace across sweeps, repeats and
/// --jobs fan-outs: it is immutable and safe to use from many threads.
/// Results are bit-identical to the replayTrace oracle (asserted in
/// tests/sim_test.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_SIM_TRACESIMULATOR_H
#define LIFEPRED_SIM_TRACESIMULATOR_H

#include "alloc/ArenaAllocator.h"
#include "alloc/BsdAllocator.h"
#include "alloc/CostModel.h"
#include "alloc/FirstFitAllocator.h"
#include "core/SiteDatabase.h"
#include "telemetry/LifetimeAudit.h"
#include "trace/AllocationTrace.h"
#include "trace/CompiledTrace.h"

#include <cstdint>

namespace lifepred {

class DynamicRouteBits;
struct Profile;
struct SimTelemetry;

/// Results of one first-fit (or BSD) baseline simulation.
struct BaselineSimResult {
  uint64_t MaxHeapBytes = 0;
  uint64_t MaxLiveBytes = 0;
  FirstFitAllocator::Counters FirstFit;
  BsdAllocator::Counters Bsd;
  InstrPerOp Instr;
};

/// Results of one arena-allocator simulation.
struct ArenaSimResult {
  uint64_t MaxHeapBytes = 0;  ///< Includes the arena area.
  uint64_t MaxLiveBytes = 0;
  ArenaAllocator::Counters Arena;
  FirstFitAllocator::Counters General;
  InstrPerOp InstrLen4; ///< Cost with length-4 chain prediction.
  InstrPerOp InstrCce;  ///< Cost with call-chain encryption.

  double arenaAllocPercent() const {
    uint64_t Total = Arena.ArenaAllocs + Arena.GeneralAllocs;
    return Total == 0 ? 0.0
                      : 100.0 * static_cast<double>(Arena.ArenaAllocs) /
                            static_cast<double>(Total);
  }
  double arenaBytesPercent() const {
    uint64_t Total = Arena.ArenaBytes + Arena.GeneralBytes;
    return Total == 0 ? 0.0
                      : 100.0 * static_cast<double>(Arena.ArenaBytes) /
                            static_cast<double>(Total);
  }
};

/// Simulates a compiled trace over a plain first-fit heap.  A non-null
/// \p Telemetry collects metrics under "firstfit." (see SimTelemetry.h);
/// the default leaves the replay uninstrumented and branch-lean.
BaselineSimResult simulateFirstFit(
    const CompiledTrace &Compiled, const CostModel &Costs = {},
    FirstFitAllocator::Config Config = FirstFitAllocator::Config(),
    SimTelemetry *Telemetry = nullptr);

/// Simulates a compiled trace over the BSD allocator.  A non-null
/// \p Telemetry collects metrics under "bsd.".
BaselineSimResult simulateBsd(const CompiledTrace &Compiled,
                              const CostModel &Costs = {},
                              BsdAllocator::Config Config = BsdAllocator::Config(),
                              SimTelemetry *Telemetry = nullptr);

/// Simulates a compiled trace over the lifetime-predicting arena
/// allocator, with \p DB deciding which allocations are predicted
/// short-lived.  \p Compiled must carry site keys under DB's policy; the
/// database is resolved to one predicted-short bit per record before the
/// replay, so the hot loop performs no site-table probes.
/// \p CallsPerAlloc feeds the cce cost estimate.  A non-null \p Telemetry
/// collects metrics under "arena." plus prediction outcomes (an event is
/// actually short-lived when its lifetime is within DB's training
/// threshold) aggregated and per site.
ArenaSimResult simulateArena(const CompiledTrace &Compiled,
                             const SiteDatabase &DB, double CallsPerAlloc,
                             const CostModel &Costs = {},
                             ArenaAllocator::Config Config = ArenaAllocator::Config(),
                             SimTelemetry *Telemetry = nullptr);

/// Online-routing overload: replays with \p Routes — the dynamic-override
/// lane (sim/CompiledPrediction.h), typically wrapping an OnlineRoutePlan
/// from runtime/Retrainer.h — deciding each record's arena/general
/// placement instead of the static database probe.  \p DB still supplies
/// the classification threshold for the prediction-outcome telemetry, so
/// static and online runs score against the same ground truth.
ArenaSimResult simulateArena(const CompiledTrace &Compiled,
                             const SiteDatabase &DB,
                             const DynamicRouteBits &Routes,
                             double CallsPerAlloc,
                             const CostModel &Costs = {},
                             ArenaAllocator::Config Config = ArenaAllocator::Config(),
                             SimTelemetry *Telemetry = nullptr);

/// Maps each of \p Trace's chain indices (the flight recorder's site ids)
/// to the lifetime quantiles its site trained at in \p Trained, keyed under
/// \p Policy.  Sites carrying several sizes use the chain's first record as
/// the representative.  Sites unseen in training are absent, which the
/// audit renders as "-" drift.  Bridges the profiler's SiteKey world to the
/// telemetry layer's plain chain-index world.
TrainedQuantileMap buildTrainedQuantiles(const AllocationTrace &Trace,
                                         const Profile &Trained,
                                         const SiteKeyPolicy &Policy);

} // namespace lifepred

#endif // LIFEPRED_SIM_TRACESIMULATOR_H
