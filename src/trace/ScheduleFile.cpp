//===- trace/ScheduleFile.cpp - On-disk streamed event schedules -----------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "trace/ScheduleFile.h"

#include <cassert>
#include <cstdlib>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#define LIFEPRED_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define LIFEPRED_HAVE_MMAP 0
#include <fstream>
#endif

using namespace lifepred;

namespace {

// Fixed header layout (112 bytes).  Offsets are load-bearing: the reader
// validates HeaderBytes against this exact size before trusting anything.
struct FileHeader {
  char Magic[8];
  uint32_t Version;
  uint32_t HeaderBytes;
  uint64_t EventCount;
  uint64_t AllocCount;
  uint64_t SlotCount;
  uint64_t EndClock;
  uint64_t TotalAllocBytes;
  uint64_t MaxLiveBytes;
  uint64_t EventsPerChunk;
  uint64_t ChunkCount;
  uint64_t ChunkIndexOffset;
  uint64_t LiveInCount;
  uint64_t LiveInOffset;
  uint64_t EventsOffset;
};
static_assert(sizeof(FileHeader) == ScheduleFile::HeaderBytes,
              "header layout drifted from the documented 112 bytes");

constexpr size_t EventFlushCount = 1 << 16; // 1 MB write granularity.

} // namespace

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

ScheduleFileWriter::ScheduleFileWriter(const std::string &Path)
    : ScheduleFileWriter(Path, Config()) {}

ScheduleFileWriter::ScheduleFileWriter(const std::string &Path, Config C)
    : Cfg(C) {
  if (Cfg.EventsPerChunk == 0)
    Cfg.EventsPerChunk = 1;
  Out = std::fopen(Path.c_str(), "wb");
  if (!Out) {
    Error = "cannot open " + Path + " for writing";
    return;
  }
  // Placeholder header; finish() backpatches the real one.  An interrupted
  // write therefore leaves zero magic, which the reader rejects.
  unsigned char Zero[ScheduleFile::HeaderBytes] = {};
  if (std::fwrite(Zero, 1, sizeof(Zero), Out) != sizeof(Zero))
    Error = "short write to " + Path;
  Buffer.reserve(EventFlushCount);
}

ScheduleFileWriter::~ScheduleFileWriter() {
  if (Out)
    std::fclose(Out);
}

void ScheduleFileWriter::flushEvents() {
  if (Buffer.empty() || !Out)
    return;
  if (std::fwrite(Buffer.data(), sizeof(ScheduleEvent), Buffer.size(), Out) !=
      Buffer.size())
    Error = "short write while streaming events";
  Buffer.clear();
}

void ScheduleFileWriter::beginChunk() {
  if (!Chunks.empty()) {
    Chunks.back().EventCount = Events - Chunks.back().FirstEvent;
    Chunks.back().MaxLiveBytes = ChunkPeakLive;
  }
  ScheduleChunkInfo Info;
  Info.FirstEvent = Events;
  Info.StartClock = MaxClock;
  Info.LiveInFirst = LiveIns.size();
  Info.LiveInBytes = LiveBytesNow;
  // The live set at the boundary, in slot order: everything a shard must
  // re-allocate before replaying this chunk with a fresh allocator.
  uint64_t LiveCount = 0;
  for (uint32_t Slot = 0; Slot < NextSlot; ++Slot) {
    if (SlotSizes[Slot] == DeadSlot)
      continue;
    LiveIns.push_back({Slot, static_cast<uint32_t>(SlotSizes[Slot])});
    ++LiveCount;
  }
  Info.LiveInCount = LiveCount;
  Chunks.push_back(Info);
  ChunkPeakLive = LiveBytesNow;
  EventsInChunk = 0;
}

void ScheduleFileWriter::writeEvent(uint32_t TaggedSlot, uint32_t Size,
                                    uint64_t Clock) {
  Buffer.push_back({TaggedSlot, Size, Clock});
  if (Buffer.size() >= EventFlushCount)
    flushEvents();
  ++Events;
  ++EventsInChunk;
  MaxClock = Clock;
}

void ScheduleFileWriter::append(const EventSchedule &Schedule,
                                const AllocationTrace &Trace) {
  assert(!Finished && "append after finish");
  if (!valid())
    return;
  const uint32_t *Ids = Schedule.taggedIds();
  const uint64_t *Clocks = Schedule.clocks();
  const AllocRecord *Records = Trace.records().data();
  std::vector<uint32_t> IdToSlot(Trace.size());

  for (size_t Event = 0, Count = Schedule.size(); Event < Count; ++Event) {
    // The chunk boundary is drawn *before* this event's state change, so
    // the live-in table describes the heap as it stands when the chunk's
    // first event has not yet run — exactly what a shard warm-up replays.
    if (EventsInChunk == Cfg.EventsPerChunk || Events == 0)
      beginChunk();
    uint32_t Tagged = Ids[Event];
    uint64_t Clock = Clocks[Event] + ClockOffset;
    if (Tagged & EventSchedule::FreeBit) {
      uint32_t Slot = IdToSlot[Tagged & ~EventSchedule::FreeBit];
      uint32_t Size = static_cast<uint32_t>(SlotSizes[Slot]);
      SlotSizes[Slot] = DeadSlot;
      FreeSlots.push_back(Slot);
      LiveBytesNow -= Size;
      writeEvent(Slot | EventSchedule::FreeBit, Size, Clock);
      continue;
    }
    uint32_t Size = Records[Tagged].Size;
    uint32_t Slot;
    if (FreeSlots.empty()) {
      Slot = NextSlot++;
      SlotSizes.push_back(Size);
    } else {
      Slot = FreeSlots.back();
      FreeSlots.pop_back();
      SlotSizes[Slot] = Size;
    }
    IdToSlot[Tagged] = Slot;
    LiveBytesNow += Size;
    if (LiveBytesNow > ChunkPeakLive)
      ChunkPeakLive = LiveBytesNow;
    if (LiveBytesNow > GlobalPeakLive)
      GlobalPeakLive = LiveBytesNow;
    TotalAllocBytes += Size;
    ++Allocs;
    writeEvent(Slot, Size, Clock);
  }

  EndClock = ClockOffset + Schedule.endClock();
  // Tail deaths can carry clocks past the segment's end clock; the next
  // segment starts after the largest clock written so the global stream
  // stays monotonic.
  ClockOffset = MaxClock;
}

void ScheduleFileWriter::append(const AllocationTrace &Trace) {
  append(EventSchedule(Trace), Trace);
}

bool ScheduleFileWriter::finish() {
  assert(!Finished && "finish called twice");
  Finished = true;
  if (!valid())
    return false;
  if (!Chunks.empty()) {
    Chunks.back().EventCount = Events - Chunks.back().FirstEvent;
    Chunks.back().MaxLiveBytes = ChunkPeakLive;
  }
  flushEvents();

  FileHeader Header = {};
  std::memcpy(Header.Magic, ScheduleFile::Magic, sizeof(Header.Magic));
  Header.Version = ScheduleFile::Version;
  Header.HeaderBytes = ScheduleFile::HeaderBytes;
  Header.EventCount = Events;
  Header.AllocCount = Allocs;
  Header.SlotCount = NextSlot;
  Header.EndClock = EndClock;
  Header.TotalAllocBytes = TotalAllocBytes;
  Header.MaxLiveBytes = GlobalPeakLive;
  Header.EventsPerChunk = Cfg.EventsPerChunk;
  Header.ChunkCount = Chunks.size();
  Header.EventsOffset = ScheduleFile::HeaderBytes;
  Header.ChunkIndexOffset =
      Header.EventsOffset + Events * sizeof(ScheduleEvent);
  Header.LiveInOffset =
      Header.ChunkIndexOffset + Chunks.size() * sizeof(ScheduleChunkInfo);
  Header.LiveInCount = LiveIns.size();

  if (!Chunks.empty() &&
      std::fwrite(Chunks.data(), sizeof(ScheduleChunkInfo), Chunks.size(),
                  Out) != Chunks.size())
    Error = "short write of the chunk index";
  if (Error.empty() && !LiveIns.empty() &&
      std::fwrite(LiveIns.data(), sizeof(ScheduleLiveIn), LiveIns.size(),
                  Out) != LiveIns.size())
    Error = "short write of the live-in table";
  if (Error.empty()) {
    if (std::fseek(Out, 0, SEEK_SET) != 0 ||
        std::fwrite(&Header, sizeof(Header), 1, Out) != 1)
      Error = "cannot backpatch the schedule header";
  }
  if (std::fclose(Out) != 0 && Error.empty())
    Error = "close failed (disk full?)";
  Out = nullptr;
  return Error.empty();
}

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

namespace {

/// True when \p Count elements of \p ElemSize fit at \p Offset in a file
/// of \p FileSize bytes, with no uint64 overflow possible.
bool sectionFits(uint64_t Offset, uint64_t Count, uint64_t ElemSize,
                 uint64_t FileSize) {
  if (Offset > FileSize)
    return false;
  return Count <= (FileSize - Offset) / ElemSize;
}

} // namespace

std::optional<ScheduleFile> ScheduleFile::open(const std::string &Path,
                                               std::string &Error) {
  ScheduleFile File;

#if LIFEPRED_HAVE_MMAP
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0) {
    Error = "cannot open " + Path;
    return std::nullopt;
  }
  struct stat St;
  if (::fstat(Fd, &St) != 0 || St.st_size < 0) {
    ::close(Fd);
    Error = "cannot stat " + Path;
    return std::nullopt;
  }
  File.MapBytes = static_cast<uint64_t>(St.st_size);
  if (File.MapBytes < HeaderBytes) {
    ::close(Fd);
    Error = Path + ": truncated (shorter than the schedule header)";
    return std::nullopt;
  }
  void *Base =
      ::mmap(nullptr, File.MapBytes, PROT_READ, MAP_PRIVATE, Fd, 0);
  ::close(Fd); // The mapping outlives the descriptor.
  if (Base == MAP_FAILED) {
    Error = "cannot mmap " + Path;
    return std::nullopt;
  }
  File.Map = static_cast<const unsigned char *>(Base);
#else
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Error = "cannot open " + Path;
    return std::nullopt;
  }
  File.Owned.assign(std::istreambuf_iterator<char>(In),
                    std::istreambuf_iterator<char>());
  File.MapBytes = File.Owned.size();
  if (File.MapBytes < HeaderBytes) {
    Error = Path + ": truncated (shorter than the schedule header)";
    return std::nullopt;
  }
  File.Map = File.Owned.data();
#endif

  // Header validation, TraceBinaryIO-style: nothing past this point is
  // dereferenced until its section provably fits in the file.
  FileHeader Header;
  std::memcpy(&Header, File.Map, sizeof(Header));
  auto Reject = [&](const std::string &Why) {
    Error = Path + ": " + Why;
    return std::nullopt;
  };
  if (std::memcmp(Header.Magic, Magic, sizeof(Magic)) != 0)
    return Reject("not a schedule file (bad magic)");
  if (Header.Version != Version)
    return Reject("unsupported schedule version " +
                  std::to_string(Header.Version));
  if (Header.HeaderBytes != HeaderBytes)
    return Reject("unexpected header size " +
                  std::to_string(Header.HeaderBytes));
  if (Header.EventsOffset != HeaderBytes)
    return Reject("events section at unexpected offset");
  if (Header.AllocCount > Header.EventCount)
    return Reject("more allocations than events");
  if (Header.SlotCount > Header.AllocCount ||
      Header.SlotCount >= EventSchedule::FreeBit)
    return Reject("implausible slot count");
  if (Header.EventsPerChunk == 0)
    return Reject("zero events per chunk");
  uint64_t WantChunks =
      Header.EventCount == 0
          ? 0
          : (Header.EventCount + Header.EventsPerChunk - 1) /
                Header.EventsPerChunk;
  if (Header.ChunkCount != WantChunks)
    return Reject("chunk count disagrees with event count");
  if (!sectionFits(Header.EventsOffset, Header.EventCount,
                   sizeof(ScheduleEvent), File.MapBytes))
    return Reject("event section exceeds the file");
  if (!sectionFits(Header.ChunkIndexOffset, Header.ChunkCount,
                   sizeof(ScheduleChunkInfo), File.MapBytes))
    return Reject("chunk index exceeds the file");
  if (!sectionFits(Header.LiveInOffset, Header.LiveInCount,
                   sizeof(ScheduleLiveIn), File.MapBytes))
    return Reject("live-in table exceeds the file");
  if (Header.ChunkIndexOffset !=
      Header.EventsOffset + Header.EventCount * sizeof(ScheduleEvent))
    return Reject("chunk index at unexpected offset");
  if (Header.LiveInOffset !=
      Header.ChunkIndexOffset + Header.ChunkCount * sizeof(ScheduleChunkInfo))
    return Reject("live-in table at unexpected offset");

  File.Events = Header.EventCount;
  File.Allocs = Header.AllocCount;
  File.Slots = Header.SlotCount;
  File.End = Header.EndClock;
  File.AllocBytes = Header.TotalAllocBytes;
  File.MaxLive = Header.MaxLiveBytes;
  File.PerChunk = Header.EventsPerChunk;
  File.ChunkTotal = Header.ChunkCount;
  File.LiveInTotal = Header.LiveInCount;
  File.EventBase =
      reinterpret_cast<const ScheduleEvent *>(File.Map + Header.EventsOffset);
  File.ChunkIndex = reinterpret_cast<const ScheduleChunkInfo *>(
      File.Map + Header.ChunkIndexOffset);
  File.LiveInBase =
      reinterpret_cast<const ScheduleLiveIn *>(File.Map + Header.LiveInOffset);

  // The chunk index must tile the event stream exactly and index the
  // live-in table contiguously; a corrupt index is rejected here rather
  // than crashing a replay.
  uint64_t LiveInRunning = 0;
  uint64_t PrevStart = 0;
  for (uint64_t I = 0; I < File.ChunkTotal; ++I) {
    const ScheduleChunkInfo &Info = File.ChunkIndex[I];
    if (Info.FirstEvent != I * File.PerChunk)
      return Reject("chunk " + std::to_string(I) + " misplaced");
    uint64_t WantCount =
        std::min(File.PerChunk, File.Events - Info.FirstEvent);
    if (Info.EventCount != WantCount)
      return Reject("chunk " + std::to_string(I) + " has a bad event count");
    if (Info.LiveInFirst != LiveInRunning ||
        Info.LiveInCount > File.LiveInTotal - LiveInRunning)
      return Reject("chunk " + std::to_string(I) +
                    " live-in range is inconsistent");
    LiveInRunning += Info.LiveInCount;
    if (Info.StartClock < PrevStart)
      return Reject("chunk clocks are not monotonic");
    PrevStart = Info.StartClock;
  }
  if (LiveInRunning != File.LiveInTotal)
    return Reject("live-in table has unreferenced entries");
  for (uint64_t I = 0; I < File.LiveInTotal; ++I)
    if (File.LiveInBase[I].Slot >= File.Slots)
      return Reject("live-in slot out of range");

  return File;
}

ScheduleFile::ScheduleFile(ScheduleFile &&Other) noexcept {
  *this = std::move(Other);
}

ScheduleFile &ScheduleFile::operator=(ScheduleFile &&Other) noexcept {
  if (this == &Other)
    return *this;
#if LIFEPRED_HAVE_MMAP
  if (Map && Owned.empty())
    ::munmap(const_cast<unsigned char *>(Map), MapBytes);
#endif
  Map = Other.Map;
  MapBytes = Other.MapBytes;
  Owned = std::move(Other.Owned);
  EventBase = Other.EventBase;
  ChunkIndex = Other.ChunkIndex;
  LiveInBase = Other.LiveInBase;
  Events = Other.Events;
  Allocs = Other.Allocs;
  Slots = Other.Slots;
  End = Other.End;
  AllocBytes = Other.AllocBytes;
  MaxLive = Other.MaxLive;
  PerChunk = Other.PerChunk;
  ChunkTotal = Other.ChunkTotal;
  LiveInTotal = Other.LiveInTotal;
  Other.Map = nullptr;
  Other.MapBytes = 0;
  return *this;
}

ScheduleFile::~ScheduleFile() {
#if LIFEPRED_HAVE_MMAP
  if (Map && Owned.empty())
    ::munmap(const_cast<unsigned char *>(Map), MapBytes);
#endif
}

void ScheduleFile::adviseSequential() const {
#if LIFEPRED_HAVE_MMAP
  if (Map && Owned.empty())
    ::madvise(const_cast<unsigned char *>(Map), MapBytes, MADV_SEQUENTIAL);
#endif
}

void ScheduleFile::dropChunk(uint64_t Index) const {
#if LIFEPRED_HAVE_MMAP
  if (!Map || !Owned.empty())
    return;
  const ScheduleChunkInfo &Info = ChunkIndex[Index];
  uint64_t PageMask = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE)) - 1;
  uint64_t Begin = HeaderBytes + Info.FirstEvent * sizeof(ScheduleEvent);
  uint64_t End =
      Begin + Info.EventCount * sizeof(ScheduleEvent);
  // Page-align outward; a boundary page shared with a neighbouring chunk
  // just refaults from page cache if it is touched again.
  Begin &= ~PageMask;
  End = (End + PageMask) & ~PageMask;
  if (End > MapBytes)
    End = MapBytes;
  if (End > Begin)
    ::madvise(const_cast<unsigned char *>(Map + Begin), End - Begin,
              MADV_DONTNEED);
#else
  (void)Index;
#endif
}

void ScheduleFile::rejectEventSlot(uint64_t Chunk, uint32_t Slot) const {
  std::fprintf(stderr,
               "corrupt schedule file: chunk %llu holds event slot %u, "
               "outside the slot count %llu\n",
               static_cast<unsigned long long>(Chunk), Slot,
               static_cast<unsigned long long>(Slots));
  std::abort();
}
