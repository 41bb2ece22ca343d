//===- sim/StreamReplay.cpp - Streamed schedule-file replay ----------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/StreamReplay.h"

#include "support/ThreadPool.h"
#include "telemetry/StatsRegistry.h"

#include <algorithm>
#include <cassert>
#include <vector>

using namespace lifepred;

namespace {

constexpr unsigned ClassCount = BsdAllocator::BucketCount;

/// One chunk's effect on a Kingsley heap, as counts relative to the state
/// at the chunk's entry.  The maxima start at 0, the empty prefix, so a
/// chunk that only frees a class contributes 0 to its peak, never less.
struct ChunkSummary {
  int64_t NetLive[ClassCount] = {};  ///< Live-block change per class.
  int64_t PeakLive[ClassCount] = {}; ///< Highest live-block change.
  uint64_t Allocs[ClassCount] = {};  ///< Allocations per class.
  int64_t NetBytes = 0;              ///< Live-payload change.
  int64_t PeakBytes = 0;             ///< Highest live-payload change.
  uint64_t Events = 0;
};

/// The kernel: reduces chunk \p Chunk of \p File to its summary.  It reads
/// only the events (a free carries its object's size, so it names its
/// class), and needs no slot table, free list, or warm-up.
ChunkSummary scanChunk(const ScheduleFile &File, uint64_t Chunk,
                       const BsdAllocator::Config &Config) {
  ChunkSummary Out;
  const ScheduleEvent *Events = File.chunkEvents(Chunk);
  const uint64_t Count = File.chunkEventCount(Chunk);
  const uint64_t SlotCount = File.slotCount();
  int64_t Bytes = 0;
  for (uint64_t I = 0; I < Count; ++I) {
    const ScheduleEvent &Event = Events[I];
    const uint32_t Slot = Event.TaggedSlot & ~EventSchedule::FreeBit;
    if (Slot >= SlotCount)
      File.rejectEventSlot(Chunk, Slot);
    const bool IsFree = Event.TaggedSlot & EventSchedule::FreeBit;
    const unsigned Class = BsdAllocator::bucketFor(Config, Event.Size);
    assert(Class < ClassCount && "size class out of range");
    // +1 for an alloc, -1 for a free, without a branch on the coin flip.
    const int64_t Step = 1 - 2 * int64_t(IsFree);
    Out.NetLive[Class] += Step;
    Out.PeakLive[Class] = std::max(Out.PeakLive[Class], Out.NetLive[Class]);
    Out.Allocs[Class] += !IsFree;
    Bytes += Step * int64_t(Event.Size);
    Out.PeakBytes = std::max(Out.PeakBytes, Bytes);
  }
  Out.NetBytes = Bytes;
  Out.Events = Count;
  File.dropChunk(Chunk);
  return Out;
}

/// The combine: folds chunk summaries, in chunk order, into what a
/// sequential Kingsley replay reports.  A class refills exactly when an
/// allocation finds every one of its blocks live, so its refills are
/// ceil(peak live / blocks per extent); the heap never shrinks, so its
/// peak is the final size.
class KingsleyScan {
public:
  explicit KingsleyScan(const BsdAllocator::Config &Config) : Cfg(Config) {}

  void add(const ChunkSummary &Chunk) {
    for (unsigned Class = 0; Class < ClassCount; ++Class) {
      PeakLive[Class] =
          std::max(PeakLive[Class], Live[Class] + Chunk.PeakLive[Class]);
      Live[Class] += Chunk.NetLive[Class];
      Allocs[Class] += Chunk.Allocs[Class];
    }
    PeakBytes = std::max(PeakBytes, LiveBytes + Chunk.PeakBytes);
    LiveBytes += Chunk.NetBytes;
    Events += Chunk.Events;
  }

  BsdAllocator::Counters counters() const {
    BsdAllocator::Counters Stats;
    for (unsigned Class = 0; Class < ClassCount; ++Class) {
      Stats.Allocs += Allocs[Class];
      Stats.PageRefills += refills(Class);
      Stats.BucketBits += Allocs[Class] * Class;
    }
    Stats.Frees = Events - Stats.Allocs;
    return Stats;
  }

  uint64_t heapBytes() const {
    uint64_t Bytes = 0;
    for (unsigned Class = 0; Class < ClassCount; ++Class)
      Bytes += refills(Class) * extentBytes(Class);
    return Bytes;
  }

  uint64_t maxLiveBytes() const { return uint64_t(PeakBytes); }
  uint64_t events() const { return Events; }

  /// The keys and values of BsdAllocator::exportTelemetry plus its
  /// "<Prefix>class_bytes" histogram.
  void exportTelemetry(StatsRegistry &Registry,
                       const std::string &Prefix) const {
    const BsdAllocator::Counters Stats = counters();
    Registry.counter(Prefix + "allocs") += Stats.Allocs;
    Registry.counter(Prefix + "frees") += Stats.Frees;
    Registry.counter(Prefix + "page_refills") += Stats.PageRefills;
    Registry.counter(Prefix + "bucket_bits") += Stats.BucketBits;
    raisePeak(Registry.gauge(Prefix + "heap_bytes"), heapBytes());
    raisePeak(Registry.gauge(Prefix + "max_heap_bytes"), heapBytes());
    raisePeak(Registry.gauge(Prefix + "live_bytes"), uint64_t(LiveBytes));
    uint64_t FreeBlocks = 0;
    for (unsigned Class = 0; Class < ClassCount; ++Class)
      FreeBlocks +=
          refills(Class) * blocksPerExtent(Class) - uint64_t(Live[Class]);
    raisePeak(Registry.gauge(Prefix + "free_blocks"), FreeBlocks);
    Log2Histogram &ClassBytes = Registry.histogram(Prefix + "class_bytes");
    for (unsigned Class = 0; Class < ClassCount; ++Class)
      ClassBytes.recordMany(uint64_t(1) << Class, Allocs[Class]);
  }

private:
  uint64_t extentBytes(unsigned Class) const {
    return std::max(uint64_t(1) << Class, Cfg.PageBytes);
  }
  uint64_t blocksPerExtent(unsigned Class) const {
    return extentBytes(Class) >> Class;
  }
  uint64_t refills(unsigned Class) const {
    const uint64_t PerExtent = blocksPerExtent(Class);
    return (uint64_t(PeakLive[Class]) + PerExtent - 1) / PerExtent;
  }

  BsdAllocator::Config Cfg;
  int64_t Live[ClassCount] = {};
  int64_t PeakLive[ClassCount] = {};
  uint64_t Allocs[ClassCount] = {};
  int64_t LiveBytes = 0;
  int64_t PeakBytes = 0;
  uint64_t Events = 0;
};

} // namespace

StreamSimResult lifepred::streamSimulateBsdBatched(
    const ScheduleFile &File, const CostModel &Costs,
    BsdAllocator::Config Config, StatsRegistry *Registry) {
  KingsleyScan Scan(Config);
  File.adviseSequential();
  for (uint64_t Chunk = 0; Chunk < File.chunkCount(); ++Chunk)
    Scan.add(scanChunk(File, Chunk, Config));
  if (Registry)
    Scan.exportTelemetry(*Registry, "bsd.");

  StreamSimResult Result;
  Result.MaxHeapBytes = Scan.heapBytes();
  Result.MaxLiveBytes = Scan.maxLiveBytes();
  Result.Events = Scan.events();
  Result.Bsd = Scan.counters();
  Result.Instr = Costs.bsd(Result.Bsd);
  return Result;
}

ShardedBsdResult lifepred::streamReplayBsdSharded(
    const ScheduleFile &File, ThreadPool &Pool, BsdAllocator::Config Config,
    StatsRegistry *Registry) {
  std::vector<ChunkSummary> Summaries(File.chunkCount());
  parallelForIndex(Pool, Summaries.size(), [&](size_t Chunk) {
    Summaries[Chunk] = scanChunk(File, Chunk, Config);
  });
  KingsleyScan Scan(Config);
  for (const ChunkSummary &Summary : Summaries)
    Scan.add(Summary);
  if (Registry) {
    Scan.exportTelemetry(*Registry, "shard.");
    raisePeak(Registry->gauge("shard.count"), Summaries.size());
  }

  ShardedBsdResult Result;
  Result.Totals = Scan.counters();
  Result.MaxHeapBytes = Scan.heapBytes();
  Result.MaxLiveBytes = Scan.maxLiveBytes();
  Result.Events = Scan.events();
  Result.Shards = Summaries.size();
  return Result;
}
