//===- trace/ScheduleFile.h - On-disk streamed event schedules --*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk, mmap-streamable form of a compiled event schedule: the
/// billion-event replay tier.  An in-memory EventSchedule holds 12 bytes
/// per event plus an O(trace) address table at replay time, which caps
/// trace size at available RAM.  A ScheduleFile instead stores the event
/// stream once on disk — 16 bytes per event — and replays it in fixed-size
/// chunks, so resident memory is O(chunk) + O(max-live-objects) regardless
/// of trace length.
///
/// Two ideas make the format self-contained and shardable:
///
///  * **Slot addressing.**  At write time every object id is renamed to a
///    *slot*: a LIFO stack recycles the slots of dead objects, so the slot
///    space is exactly the high-water mark of concurrently-live objects.
///    A replayer's address table is indexed by slot and sized slotCount(),
///    independent of how many events the file holds.  Free events carry
///    the object's size, so replay needs no side lookup into the trace.
///
///  * **Fixed-size chunks.**  The event stream is cut into chunks of
///    EventsPerChunk events (the last one may be short), the streaming and
///    madvise granularity.  Chunk i starts at event i * EventsPerChunk, so
///    the header alone locates every chunk and the file stores no chunk
///    index.  A chunk is replayed from its events alone: the sharded
///    Kingsley scan needs nothing else (see sim/StreamReplay.h).  The
///    chunk partition is a property of the *file*, never of the worker
///    count, which is what keeps that scan's output identical at any
///    --jobs.
///
/// The writer is incremental: append() accepts one trace segment at a
/// time, offsetting byte clocks so segments concatenate into one monotonic
/// stream.  A billion-event schedule is therefore built from bounded-size
/// segments without ever materializing the whole trace: all the writer
/// carries across an append is the sizes of the slots still live.
///
/// File layout, version 2 (all fields little-endian host integers):
///
///   [header 80 B] [events 16 B each]
///
/// The reader validates the header the same way TraceBinaryIO guards
/// corrupt traces: magic, version, counts, and a file size of exactly
/// HeaderBytes + 16 * EventCount, checked before anything is dereferenced;
/// a truncated, padded or bit-flipped header is rejected with a
/// diagnostic, never crashed on, and so is a file of any other version
/// (version 1 also held a chunk index and live-in tables).
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_TRACE_SCHEDULEFILE_H
#define LIFEPRED_TRACE_SCHEDULEFILE_H

#include "trace/AllocationTrace.h"
#include "trace/CompiledTrace.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

namespace lifepred {

/// One on-disk replay event.  TaggedSlot's high bit marks a free (the same
/// convention as EventSchedule::FreeBit); the low 31 bits are the object's
/// slot.  Size is the payload size — stored on the free as well, so replay
/// is self-contained.  Clock is the global byte clock of the event.
struct ScheduleEvent {
  uint32_t TaggedSlot = 0;
  uint32_t Size = 0;
  uint64_t Clock = 0;
};
static_assert(sizeof(ScheduleEvent) == 16, "on-disk event must be 16 bytes");

/// Streams compiled schedules to disk, one trace segment at a time.
/// Usage: construct, append() each segment, finish().  The header is
/// backpatched at finish(), so an interrupted write leaves a file the
/// reader rejects (zero magic).
class ScheduleFileWriter {
public:
  struct Config {
    /// Events per chunk: the streaming granularity.  Small values stress
    /// chunk-boundary handling in tests; the default keeps a chunk's
    /// events at 64 MB.
    uint64_t EventsPerChunk = uint64_t(1) << 22;
  };

  explicit ScheduleFileWriter(const std::string &Path);
  ScheduleFileWriter(const std::string &Path, Config C);
  ~ScheduleFileWriter();

  ScheduleFileWriter(const ScheduleFileWriter &) = delete;
  ScheduleFileWriter &operator=(const ScheduleFileWriter &) = delete;

  /// False when the output file could not be opened or a write failed;
  /// error() says why.
  bool valid() const { return Out != nullptr && Error.empty(); }
  const std::string &error() const { return Error; }

  /// Appends one compiled segment.  \p Trace supplies the per-record sizes
  /// the schedule's tagged ids refer to.  Byte clocks are offset so that
  /// consecutive segments form one monotonic stream.  Every death of a
  /// trace is part of its own schedule, so a segment's freed objects
  /// release their slots before the next append; never-freed objects
  /// simply stay live (their slots are never recycled) and show up in
  /// later chunks' live-in tables like any other live object.
  void append(const EventSchedule &Schedule, const AllocationTrace &Trace);

  /// Convenience: compiles \p Trace's schedule, then appends it.
  void append(const AllocationTrace &Trace);

  /// Flushes the buffered events and writes the final header.  Returns
  /// false (with error() set) if any write failed.  No further appends.
  bool finish();

  uint64_t eventCount() const { return Events; }
  uint64_t allocCount() const { return Allocs; }
  uint64_t slotCount() const { return NextSlot; }
  uint64_t chunkCount() const {
    return (Events + Cfg.EventsPerChunk - 1) / Cfg.EventsPerChunk;
  }
  uint64_t maxLiveBytes() const { return GlobalPeakLive; }

private:
  void writeEvent(uint32_t TaggedSlot, uint32_t Size, uint64_t Clock);
  void flushEvents();

  std::FILE *Out = nullptr;
  std::string Error;
  Config Cfg;

  std::vector<ScheduleEvent> Buffer;

  /// Slot allocator: the size of each slot's current object plus the LIFO
  /// recycling stack of dead slots.  NextSlot is the high-water mark.
  std::vector<uint32_t> SlotSizes;
  std::vector<uint32_t> FreeSlots;
  uint32_t NextSlot = 0;

  uint64_t Events = 0;
  uint64_t Allocs = 0;
  uint64_t LiveBytesNow = 0;
  uint64_t GlobalPeakLive = 0;
  uint64_t TotalAllocBytes = 0;
  uint64_t ClockOffset = 0; ///< Base clock of the current segment.
  uint64_t MaxClock = 0;    ///< Largest global clock written so far.
  uint64_t EndClock = 0;    ///< Global post-last-alloc clock.
  bool Finished = false;
};

/// Memory-mapped reader.  open() validates the header and every section
/// bound before returning; all accessors are then O(1) pointer arithmetic
/// into the mapping.  Safe to share read-only across threads.
class ScheduleFile {
public:
  static constexpr char Magic[8] = {'L', 'P', 'S', 'C', 'H', 'E', 'D', '1'};
  static constexpr uint32_t Version = 2;
  static constexpr uint64_t HeaderBytes = 80;

  /// Maps and validates \p Path.  Returns std::nullopt with \p Error set
  /// on any structural problem (missing file, bad magic or version,
  /// implausible counts, a size other than HeaderBytes + 16 * events).
  static std::optional<ScheduleFile> open(const std::string &Path,
                                          std::string &Error);

  ScheduleFile(ScheduleFile &&Other) noexcept;
  ScheduleFile &operator=(ScheduleFile &&Other) noexcept;
  ScheduleFile(const ScheduleFile &) = delete;
  ScheduleFile &operator=(const ScheduleFile &) = delete;
  ~ScheduleFile();

  uint64_t eventCount() const { return Events; }
  uint64_t allocCount() const { return Allocs; }
  uint64_t slotCount() const { return Slots; }
  uint64_t endClock() const { return End; }
  uint64_t totalAllocBytes() const { return AllocBytes; }
  uint64_t maxLiveBytes() const { return MaxLive; }
  uint64_t eventsPerChunk() const { return PerChunk; }
  uint64_t chunkCount() const { return ChunkTotal; }
  uint64_t fileBytes() const { return MapBytes; }

  /// Chunk \p Index's events: EventsPerChunk of them from event
  /// Index * EventsPerChunk, fewer in the last chunk.
  const ScheduleEvent *chunkEvents(uint64_t Index) const {
    return EventBase + Index * PerChunk;
  }
  uint64_t chunkEventCount(uint64_t Index) const {
    return std::min(PerChunk, Events - Index * PerChunk);
  }

  /// Advises the kernel the event region will be read front to back.
  void adviseSequential() const;

  /// Releases chunk \p Index's event pages from this process (the O(chunk)
  /// residency lever); the data stays valid and refaults from page cache
  /// if touched again.  No-op where madvise is unavailable.
  void dropChunk(uint64_t Index) const;

  /// Reports an event in chunk \p Chunk whose slot \p Slot is not below
  /// slotCount(), then aborts, in release builds too.  open() does not scan
  /// the event section (that would read the whole file twice), so every
  /// loop that decodes an event slot checks it and calls this on failure.
  [[noreturn]] void rejectEventSlot(uint64_t Chunk, uint32_t Slot) const;

private:
  ScheduleFile() = default;

  const unsigned char *Map = nullptr;
  uint64_t MapBytes = 0;
  /// Non-null only in the no-mmap fallback, which reads the whole file.
  std::vector<unsigned char> Owned;

  const ScheduleEvent *EventBase = nullptr;

  uint64_t Events = 0;
  uint64_t Allocs = 0;
  uint64_t Slots = 0;
  uint64_t End = 0;
  uint64_t AllocBytes = 0;
  uint64_t MaxLive = 0;
  uint64_t PerChunk = 0;
  uint64_t ChunkTotal = 0;
};

/// Replays \p File into \p Consumer chunk by chunk, with the event protocol
/// of the in-memory forEachEvent (trace/CompiledTrace.h); here the key is
/// the event's slot, so a key-indexed table stays O(live objects).  Each
/// chunk's pages are dropped once replayed, so resident memory stays
/// O(chunk).  A slot outside slotCount() aborts naming its chunk.
template <typename ConsumerT>
inline void forEachEvent(const ScheduleFile &File, ConsumerT &&Consumer) {
  const uint64_t SlotCount = File.slotCount();
  File.adviseSequential();
  for (uint64_t Chunk = 0; Chunk < File.chunkCount(); ++Chunk) {
    const ScheduleEvent *Events = File.chunkEvents(Chunk);
    const uint64_t Count = File.chunkEventCount(Chunk);
    for (uint64_t I = 0; I < Count; ++I) {
      const ScheduleEvent &Event = Events[I];
      const uint32_t Slot = Event.TaggedSlot & ~EventSchedule::FreeBit;
      if (Slot >= SlotCount)
        File.rejectEventSlot(Chunk, Slot);
      if (Event.TaggedSlot & EventSchedule::FreeBit)
        Consumer.onFree(Slot, Event.Clock);
      else
        Consumer.onAlloc(Slot, Event.Size, Event.Clock);
    }
    File.dropChunk(Chunk);
  }
  Consumer.onEnd(File.endClock());
}

/// Size of a key-indexed table for forEachEvent over \p File: one entry
/// per slot.
inline uint64_t eventKeyCount(const ScheduleFile &File) {
  return File.slotCount();
}

} // namespace lifepred

#endif // LIFEPRED_TRACE_SCHEDULEFILE_H
