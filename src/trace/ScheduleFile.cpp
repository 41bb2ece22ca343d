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

// Fixed header layout (80 bytes); the events follow it directly.  Offsets
// are load-bearing: Magic and Version sit where every earlier version put
// them, so an old file is rejected by its version, not misread.
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
  uint64_t Reserved; ///< Zero; keeps the events 16-byte aligned.
};
static_assert(sizeof(FileHeader) == ScheduleFile::HeaderBytes,
              "header layout drifted from the documented 80 bytes");
// A 16-byte event that straddles two cache lines slows every replay scan
// by about a sixth, so the event section starts on an event boundary.
static_assert(ScheduleFile::HeaderBytes % sizeof(ScheduleEvent) == 0,
              "events must stay 16-byte aligned in the mapping");

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

void ScheduleFileWriter::writeEvent(uint32_t TaggedSlot, uint32_t Size,
                                    uint64_t Clock) {
  Buffer.push_back({TaggedSlot, Size, Clock});
  if (Buffer.size() >= EventFlushCount)
    flushEvents();
  ++Events;
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
    uint32_t Tagged = Ids[Event];
    uint64_t Clock = Clocks[Event] + ClockOffset;
    if (Tagged & EventSchedule::FreeBit) {
      uint32_t Slot = IdToSlot[Tagged & ~EventSchedule::FreeBit];
      uint32_t Size = SlotSizes[Slot];
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
  if (Header.AllocCount > Header.EventCount)
    return Reject("more allocations than events");
  if (Header.SlotCount > Header.AllocCount ||
      Header.SlotCount >= EventSchedule::FreeBit)
    return Reject("implausible slot count");
  if (Header.EventsPerChunk == 0)
    return Reject("zero events per chunk");
  // The events are the whole body: a short file is truncated, a long one
  // is padded or carries sections this version does not define.  Dividing
  // the body, rather than multiplying the count, cannot overflow.
  const uint64_t BodyBytes = File.MapBytes - HeaderBytes;
  if (BodyBytes % sizeof(ScheduleEvent) != 0 ||
      BodyBytes / sizeof(ScheduleEvent) != Header.EventCount)
    return Reject("file size " + std::to_string(File.MapBytes) +
                  " disagrees with " + std::to_string(Header.EventCount) +
                  " events");

  File.Events = Header.EventCount;
  File.Allocs = Header.AllocCount;
  File.Slots = Header.SlotCount;
  File.End = Header.EndClock;
  File.AllocBytes = Header.TotalAllocBytes;
  File.MaxLive = Header.MaxLiveBytes;
  File.PerChunk = Header.EventsPerChunk;
  File.ChunkTotal = Header.EventCount / Header.EventsPerChunk +
                    (Header.EventCount % Header.EventsPerChunk != 0);
  File.EventBase =
      reinterpret_cast<const ScheduleEvent *>(File.Map + HeaderBytes);
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
  Events = Other.Events;
  Allocs = Other.Allocs;
  Slots = Other.Slots;
  End = Other.End;
  AllocBytes = Other.AllocBytes;
  MaxLive = Other.MaxLive;
  PerChunk = Other.PerChunk;
  ChunkTotal = Other.ChunkTotal;
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
  uint64_t PageMask = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE)) - 1;
  uint64_t Begin = HeaderBytes + Index * PerChunk * sizeof(ScheduleEvent);
  uint64_t End = Begin + chunkEventCount(Index) * sizeof(ScheduleEvent);
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
