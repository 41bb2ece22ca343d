//===- sim/StreamReplay.h - Streamed schedule-file replay -------*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays on-disk schedule files (trace/ScheduleFile.h): the billion-event
/// tier.  Two replay shapes (see the entry-point table in
/// sim/TraceSimulator.h):
///
///  * **Sequential streamed** (streamSimulateFirstFit / streamSimulateBsd):
///    the in-memory simulators' own consumer, driven by the ScheduleFile
///    overload of forEachEvent, so allocator calls, their order, and the
///    telemetry hooks are those of simulateFirstFit/simulateBsd — counters
///    and the exported registry are byte-identical on the same trace, the
///    equivalence the schedule tests pin.  Resident memory stays O(chunk +
///    live slots): each chunk's pages are dropped once replayed, and the
///    address table is indexed by slot.  Defined in TraceSimulator.cpp,
///    next to the consumer they share.  Placement-level telemetry (probe,
///    heatmap, latency, timeline) attaches to this shape only.
///
///  * **Kingsley scan** (streamSimulateBsdBatched / streamReplayBsdSharded):
///    Kingsley never splits, coalesces, or moves a block between size
///    classes, so every value it reports is a function of per-class live
///    counts.  A kernel reduces each chunk to per-class count deltas and
///    running maxima relative to the chunk's entry — no addresses, no free
///    lists, no slot table — and a combine step folds the chunk summaries
///    in chunk order into the allocator's counters, heap peak, live peak
///    and the "bsd." registry values, exactly as the sequential replay
///    reports them.  The two entry points run the same kernel and combine;
///    the sharded one runs the kernel's chunks on a thread pool, so its
///    output is the sequential one at any pool size.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_SIM_STREAMREPLAY_H
#define LIFEPRED_SIM_STREAMREPLAY_H

#include "alloc/BsdAllocator.h"
#include "alloc/CostModel.h"
#include "alloc/FirstFitAllocator.h"
#include "sim/TraceSimulator.h"
#include "trace/ScheduleFile.h"

#include <cstdint>

namespace lifepred {

class ThreadPool;
class StatsRegistry;
struct SimTelemetry;

/// Results of one streamed baseline replay.
struct StreamSimResult : BaselineSimResult {
  uint64_t Events = 0; ///< Events replayed (the file's event count).
};

/// Streams \p File through a first-fit heap, chunk by chunk.  Telemetry
/// (registry prefix "firstfit.", timeline sampling) matches
/// simulateFirstFit byte-for-byte.
StreamSimResult streamSimulateFirstFit(
    const ScheduleFile &File, const CostModel &Costs = {},
    FirstFitAllocator::Config Config = FirstFitAllocator::Config(),
    SimTelemetry *Telemetry = nullptr);

/// Streams \p File through the BSD allocator, chunk by chunk.  Telemetry
/// (registry prefix "bsd.", timeline sampling) matches simulateBsd
/// byte-for-byte.
StreamSimResult streamSimulateBsd(
    const ScheduleFile &File, const CostModel &Costs = {},
    BsdAllocator::Config Config = BsdAllocator::Config(),
    SimTelemetry *Telemetry = nullptr);

/// The Kingsley scan on one thread.  Counters, MaxHeapBytes, MaxLiveBytes
/// and the "bsd." registry values a non-null \p Registry receives equal
/// streamSimulateBsd's / simulateBsd's.
StreamSimResult streamSimulateBsdBatched(
    const ScheduleFile &File, const CostModel &Costs = {},
    BsdAllocator::Config Config = BsdAllocator::Config(),
    StatsRegistry *Registry = nullptr);

/// Results of a sharded replay.
struct ShardedBsdResult {
  BsdAllocator::Counters Totals; ///< The sequential replay's counters.
  uint64_t WarmupAllocs = 0;     ///< Always 0: the scan warms up nothing.
  uint64_t MaxHeapBytes = 0;     ///< The sequential heap peak.
  uint64_t MaxLiveBytes = 0;     ///< The sequential live-byte peak.
  uint64_t Events = 0;           ///< Trace events replayed.
  uint64_t Shards = 0;           ///< Chunks scanned, one pool task each.
};

/// The Kingsley scan with one pool task per chunk of \p File, combined in
/// chunk order, so every result is the sequential one at any pool size.
/// A non-null \p Registry receives the "bsd." values of
/// streamSimulateBsdBatched under "shard.", plus "shard.count".
ShardedBsdResult streamReplayBsdSharded(
    const ScheduleFile &File, ThreadPool &Pool,
    BsdAllocator::Config Config = BsdAllocator::Config(),
    StatsRegistry *Registry = nullptr);

} // namespace lifepred

#endif // LIFEPRED_SIM_STREAMREPLAY_H
