//===- tests/schedule_test.cpp - On-disk schedule replay -------------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The streamed-replay equivalence suite.  Pins the billion-event tier's
/// three load-bearing claims:
///
///  * streamed replay of a .sched file exports a registry byte-identical
///    to the in-memory simulators on the same trace, for every paper
///    workload, and the sharded replay's merged registry is identical at
///    --jobs 1, 2, and 8;
///  * chunk live-in tables describe the heap exactly as it stands before
///    the chunk's first event, even when objects straddle chunk
///    boundaries (tiny EventsPerChunk forces straddling);
///  * the batched bitmap fast path stays in lockstep with the BSD
///    free-list allocator on every shadow-oracle-validated corpus trace;
///  * corrupt or truncated .sched files are rejected at open(), and an
///    out-of-range event slot aborts the replay naming its chunk.
///
//===----------------------------------------------------------------------===//

#include "sim/SimTelemetry.h"
#include "sim/StreamReplay.h"
#include "sim/TraceSimulator.h"
#include "support/ThreadPool.h"
#include "telemetry/StatsRegistry.h"
#include "trace/CompiledTrace.h"
#include "trace/ScheduleFile.h"
#include "trace/TraceBinaryIO.h"
#include "verify/ShadowSim.h"
#include "verify/TraceFuzzer.h"
#include "workloads/Programs.h"
#include "workloads/WorkloadRunner.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

using namespace lifepred;

#ifndef LIFEPRED_CORPUS_DIR
#error "LIFEPRED_CORPUS_DIR must be defined by the build"
#endif

namespace {

/// Writes \p Trace to a fresh .sched file under the test temp dir and
/// opens it.  \p EventsPerChunk is deliberately small in most tests so
/// every trace spans many chunks.
std::optional<ScheduleFile> roundTrip(const AllocationTrace &Trace,
                                      const std::string &Name,
                                      uint64_t EventsPerChunk,
                                      std::string &Path) {
  Path = testing::TempDir() + Name;
  ScheduleFileWriter::Config Config;
  Config.EventsPerChunk = EventsPerChunk;
  ScheduleFileWriter Writer(Path, Config);
  Writer.append(Trace);
  if (!Writer.finish()) {
    ADD_FAILURE() << "writer: " << Writer.error();
    return std::nullopt;
  }
  std::string Error;
  std::optional<ScheduleFile> File = ScheduleFile::open(Path, Error);
  if (!File)
    ADD_FAILURE() << "open: " << Error;
  return File;
}

std::string registryJson(const StatsRegistry &Registry) {
  std::string Out;
  Registry.writeJson(Out, "");
  return Out;
}

class PaperWorkloadScheduleTest : public testing::TestWithParam<ProgramModel> {
protected:
  AllocationTrace trace() const {
    RunOptions Options;
    Options.Scale = 0.05;
    FunctionRegistry Functions;
    return runWorkload(GetParam(), Options, Functions);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Streamed vs in-memory equivalence on the paper workloads
//===----------------------------------------------------------------------===//

TEST_P(PaperWorkloadScheduleTest, StreamedRegistryMatchesInMemory) {
  AllocationTrace Trace = trace();
  std::string Path;
  std::optional<ScheduleFile> File =
      roundTrip(Trace, GetParam().Name + std::string(".sched"), 4096, Path);
  ASSERT_TRUE(File.has_value());
  EXPECT_GT(File->chunkCount(), 1u)
      << "trace too small to exercise chunked streaming";

  // In-memory replays (the PR 4 paths) into one registry...
  StatsRegistry InMemory;
  SimTelemetry MemTel;
  MemTel.Registry = &InMemory;
  CompiledTrace Compiled(Trace);
  BaselineSimResult MemFf = simulateFirstFit(Compiled, {}, {}, &MemTel);
  BaselineSimResult MemBsd = simulateBsd(Compiled, {}, {}, &MemTel);

  // ...streamed replays of the same events into another.
  StatsRegistry Streamed;
  SimTelemetry StreamTel;
  StreamTel.Registry = &Streamed;
  StreamSimResult StreamFf = streamSimulateFirstFit(*File, {}, {}, &StreamTel);
  StreamSimResult StreamBsd = streamSimulateBsd(*File, {}, {}, &StreamTel);

  EXPECT_EQ(registryJson(InMemory), registryJson(Streamed));
  EXPECT_EQ(MemFf.MaxHeapBytes, StreamFf.MaxHeapBytes);
  EXPECT_EQ(MemFf.MaxLiveBytes, StreamFf.MaxLiveBytes);
  EXPECT_EQ(MemBsd.MaxHeapBytes, StreamBsd.MaxHeapBytes);
  EXPECT_EQ(MemBsd.MaxLiveBytes, StreamBsd.MaxLiveBytes);
  EXPECT_EQ(MemBsd.Bsd.Allocs, StreamBsd.Bsd.Allocs);
  EXPECT_EQ(MemBsd.Bsd.PageRefills, StreamBsd.Bsd.PageRefills);

  // The batched bitmap fast path exports the same "bsd." registry values.
  StatsRegistry Batched;
  SimTelemetry BatchTel;
  BatchTel.Registry = &Batched;
  StreamSimResult Fast = streamSimulateBsdBatched(*File, {}, {}, 512, &BatchTel);
  EXPECT_EQ(MemBsd.Bsd.Allocs, Fast.Bsd.Allocs);
  EXPECT_EQ(MemBsd.Bsd.Frees, Fast.Bsd.Frees);
  EXPECT_EQ(MemBsd.Bsd.PageRefills, Fast.Bsd.PageRefills);
  EXPECT_EQ(MemBsd.Bsd.BucketBits, Fast.Bsd.BucketBits);
  EXPECT_EQ(MemBsd.MaxHeapBytes, Fast.MaxHeapBytes);
  EXPECT_EQ(MemBsd.MaxLiveBytes, Fast.MaxLiveBytes);

  std::remove(Path.c_str());
}

TEST_P(PaperWorkloadScheduleTest, ShardedRegistryIdenticalAcrossJobs) {
  AllocationTrace Trace = trace();
  std::string Path;
  std::optional<ScheduleFile> File =
      roundTrip(Trace, GetParam().Name + std::string("_shard.sched"), 2048,
                Path);
  ASSERT_TRUE(File.has_value());

  std::string Reference;
  for (unsigned Jobs : {1u, 2u, 8u}) {
    ThreadPool Pool(Jobs);
    StatsRegistry Registry;
    ShardedBsdResult Result =
        streamReplayBsdSharded(*File, Pool, {}, &Registry);
    EXPECT_EQ(Result.Events, File->eventCount());
    std::string Json = registryJson(Registry);
    if (Reference.empty())
      Reference = Json;
    else
      EXPECT_EQ(Reference, Json) << "sharded output diverged at jobs="
                                 << Jobs;
  }
  std::remove(Path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    PaperPrograms, PaperWorkloadScheduleTest,
    testing::ValuesIn(allPrograms()),
    [](const testing::TestParamInfo<ProgramModel> &Info) {
      std::string Name = Info.param.Name;
      std::replace_if(
          Name.begin(), Name.end(),
          [](char C) { return !std::isalnum(static_cast<unsigned char>(C)); },
          '_');
      return Name;
    });

//===----------------------------------------------------------------------===//
// Chunk boundaries
//===----------------------------------------------------------------------===//

// With EventsPerChunk far below the trace's live-object count, most
// objects die in a later chunk than they were born in.  Every chunk's
// live-in table must then describe the heap exactly as it stands before
// the chunk's first event — the state a shard warm-up reconstructs.
TEST(ScheduleChunkTest, LiveInTablesDescribeStateBeforeChunk) {
  AllocationTrace Trace = generateFuzzTrace(FuzzProfile::Uniform, 7, 500);
  std::string Path;
  std::optional<ScheduleFile> File =
      roundTrip(Trace, "straddle.sched", 64, Path);
  ASSERT_TRUE(File.has_value());
  ASSERT_GT(File->chunkCount(), 4u);

  // Replay the schedule sequentially, checking each chunk's live-in table
  // against the independently tracked live set at its entry.
  std::vector<uint64_t> LiveSize(File->slotCount(), 0); // 0 = dead.
  uint64_t LiveBytes = 0;
  for (uint64_t Chunk = 0; Chunk < File->chunkCount(); ++Chunk) {
    const ScheduleChunkInfo &Info = File->chunk(Chunk);
    const ScheduleLiveIn *LiveIn = File->chunkLiveIn(Chunk);
    uint64_t ExpectLive = 0;
    for (uint64_t Size : LiveSize)
      ExpectLive += Size != 0;
    ASSERT_EQ(Info.LiveInCount, ExpectLive) << "chunk " << Chunk;
    ASSERT_EQ(Info.LiveInBytes, LiveBytes) << "chunk " << Chunk;
    for (uint64_t I = 0; I < Info.LiveInCount; ++I) {
      ASSERT_LT(LiveIn[I].Slot, LiveSize.size());
      EXPECT_EQ(LiveIn[I].Size, LiveSize[LiveIn[I].Slot])
          << "chunk " << Chunk << " live-in entry " << I;
    }
    const ScheduleEvent *Events = File->chunkEvents(Chunk);
    for (uint64_t I = 0; I < Info.EventCount; ++I) {
      const uint32_t Slot = Events[I].TaggedSlot & ~EventSchedule::FreeBit;
      if (Events[I].TaggedSlot & EventSchedule::FreeBit) {
        EXPECT_NE(LiveSize[Slot], 0u) << "free of a dead slot";
        LiveBytes -= LiveSize[Slot];
        LiveSize[Slot] = 0;
      } else {
        EXPECT_EQ(LiveSize[Slot], 0u) << "alloc into a live slot";
        LiveSize[Slot] = Events[I].Size;
        LiveBytes += Events[I].Size;
      }
    }
  }
  // Whatever is still live at end-of-schedule must be exactly the trace's
  // never-freed objects.
  uint64_t ImmortalBytes = 0;
  for (const AllocRecord &Record : Trace.records())
    if (Record.Lifetime == NeverFreed)
      ImmortalBytes += Record.Size;
  EXPECT_EQ(LiveBytes, ImmortalBytes);

  // Straddling must not disturb equivalence: the streamed sequential and
  // batched replays still match the in-memory simulation bit for bit.
  BaselineSimResult Mem = simulateBsd(CompiledTrace(Trace));
  StreamSimResult Seq = streamSimulateBsd(*File);
  StreamSimResult Fast = streamSimulateBsdBatched(*File, {}, {}, 32);
  EXPECT_EQ(Mem.Bsd.Allocs, Seq.Bsd.Allocs);
  EXPECT_EQ(Mem.Bsd.PageRefills, Seq.Bsd.PageRefills);
  EXPECT_EQ(Mem.MaxHeapBytes, Seq.MaxHeapBytes);
  EXPECT_EQ(Mem.Bsd.Allocs, Fast.Bsd.Allocs);
  EXPECT_EQ(Mem.Bsd.PageRefills, Fast.Bsd.PageRefills);
  EXPECT_EQ(Mem.Bsd.BucketBits, Fast.Bsd.BucketBits);
  EXPECT_EQ(Mem.MaxHeapBytes, Fast.MaxHeapBytes);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Bitmap fast path vs the shadow-oracle-validated allocator
//===----------------------------------------------------------------------===//

namespace {

std::vector<std::string> corpusFiles() {
  std::vector<std::string> Files;
  std::error_code EC;
  for (const auto &Entry :
       std::filesystem::directory_iterator(LIFEPRED_CORPUS_DIR, EC))
    if (Entry.path().extension() == ".lptrace")
      Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  return Files;
}

class BitmapLockstepTest : public testing::TestWithParam<std::string> {};

} // namespace

TEST_P(BitmapLockstepTest, MatchesShadowCheckedBsdOnCorpusTrace) {
  std::ifstream IS(GetParam(), std::ios::binary);
  ASSERT_TRUE(IS) << "cannot open " << GetParam();
  std::optional<AllocationTrace> Trace = readTraceBinary(IS);
  ASSERT_TRUE(Trace.has_value());

  // The oracle vouches for the BSD reference on this trace...
  ShadowReport Report =
      shadowCheckBsd(*Trace, BsdAllocator::Config(), ReplayPath::Compiled);
  ASSERT_TRUE(Report.clean()) << Report.summary();

  // ...and the bitmap fast path must stay in lockstep with that reference.
  std::string Path;
  std::string Name =
      std::filesystem::path(GetParam()).stem().string() + ".sched";
  std::optional<ScheduleFile> File = roundTrip(*Trace, Name, 256, Path);
  ASSERT_TRUE(File.has_value());
  BaselineSimResult Mem = simulateBsd(CompiledTrace(*Trace));
  for (size_t BatchEvents : {7u, 512u}) { // Odd size exercises tail batches.
    StreamSimResult Fast = streamSimulateBsdBatched(*File, {}, {}, BatchEvents);
    EXPECT_EQ(Mem.Bsd.Allocs, Fast.Bsd.Allocs) << "batch=" << BatchEvents;
    EXPECT_EQ(Mem.Bsd.Frees, Fast.Bsd.Frees) << "batch=" << BatchEvents;
    EXPECT_EQ(Mem.Bsd.PageRefills, Fast.Bsd.PageRefills)
        << "batch=" << BatchEvents;
    EXPECT_EQ(Mem.Bsd.BucketBits, Fast.Bsd.BucketBits)
        << "batch=" << BatchEvents;
    EXPECT_EQ(Mem.MaxHeapBytes, Fast.MaxHeapBytes) << "batch=" << BatchEvents;
    EXPECT_EQ(Mem.MaxLiveBytes, Fast.MaxLiveBytes) << "batch=" << BatchEvents;
  }
  std::remove(Path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, BitmapLockstepTest, testing::ValuesIn(corpusFiles()),
    [](const testing::TestParamInfo<std::string> &Info) {
      std::string Name = std::filesystem::path(Info.param).stem().string();
      std::replace_if(
          Name.begin(), Name.end(),
          [](char C) { return !std::isalnum(static_cast<unsigned char>(C)); },
          '_');
      return Name;
    });

//===----------------------------------------------------------------------===//
// Corrupt and truncated files
//===----------------------------------------------------------------------===//

namespace {

/// Writes a small valid schedule and returns its bytes.
std::string validScheduleBytes() {
  AllocationTrace Trace = generateFuzzTrace(FuzzProfile::Uniform, 11, 64);
  std::string Path = testing::TempDir() + "valid.sched";
  ScheduleFileWriter::Config Config;
  Config.EventsPerChunk = 32;
  ScheduleFileWriter Writer(Path, Config);
  Writer.append(Trace);
  EXPECT_TRUE(Writer.finish()) << Writer.error();
  std::ifstream IS(Path, std::ios::binary);
  std::string Bytes((std::istreambuf_iterator<char>(IS)),
                    std::istreambuf_iterator<char>());
  std::remove(Path.c_str());
  return Bytes;
}

/// Expects open() to reject \p Bytes with a non-empty diagnostic.
void expectRejected(const std::string &Bytes, const std::string &Label) {
  std::string Path = testing::TempDir() + Label + ".sched";
  {
    std::ofstream OS(Path, std::ios::binary);
    OS.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  }
  std::string Error;
  std::optional<ScheduleFile> File = ScheduleFile::open(Path, Error);
  EXPECT_FALSE(File.has_value()) << Label << " was accepted";
  EXPECT_FALSE(Error.empty()) << Label << " produced no diagnostic";
  std::remove(Path.c_str());
}

} // namespace

TEST(ScheduleCorruptionTest, RejectsDamagedFiles) {
  const std::string Valid = validScheduleBytes();
  ASSERT_GT(Valid.size(), ScheduleFile::HeaderBytes);

  // Sanity: the pristine bytes open fine.
  {
    std::string Path = testing::TempDir() + "pristine.sched";
    std::ofstream(Path, std::ios::binary).write(Valid.data(),
                                                (std::streamsize)Valid.size());
    std::string Error;
    EXPECT_TRUE(ScheduleFile::open(Path, Error).has_value()) << Error;
    std::remove(Path.c_str());
  }

  expectRejected("", "empty");
  expectRejected(Valid.substr(0, 50), "short_header");
  expectRejected(Valid.substr(0, ScheduleFile::HeaderBytes + 3),
                 "truncated_body");

  std::string BadMagic = Valid;
  BadMagic[0] = 'X';
  expectRejected(BadMagic, "bad_magic");

  // An interrupted write leaves the backpatched header all-zero.
  std::string ZeroHeader = Valid;
  std::fill_n(ZeroHeader.begin(), ScheduleFile::HeaderBytes, '\0');
  expectRejected(ZeroHeader, "zero_header");

  std::string BadVersion = Valid;
  BadVersion[8] = 0x7f; // Version field follows the 8-byte magic.
  expectRejected(BadVersion, "bad_version");

  // Inflate EventCount (offset 16) so the events section overruns the file.
  std::string BadCount = Valid;
  BadCount[16 + 6] = 0x7f; // A petabyte-scale event count.
  expectRejected(BadCount, "oversized_event_count");

  // A missing file is an error, not a crash.
  std::string Error;
  EXPECT_FALSE(
      ScheduleFile::open(testing::TempDir() + "nonexistent.sched", Error)
          .has_value());
  EXPECT_FALSE(Error.empty());
}

TEST(ScheduleCorruptionTest, OutOfRangeEventSlotAbortsNamingItsChunk) {
  // open() validates the header, chunk index and live-in table but does
  // not scan the events, so a corrupted event slot opens cleanly.  Every
  // replay that decodes it must then abort naming the chunk, never index
  // past its slot-sized tables.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::string Bytes = validScheduleBytes();
  // The first event of chunk 1 (32 events per chunk): keep its free bit,
  // set every slot bit.
  const size_t TaggedSlot = ScheduleFile::HeaderBytes + 32 * 16;
  ASSERT_GT(Bytes.size(), TaggedSlot + 4);
  Bytes[TaggedSlot] = Bytes[TaggedSlot + 1] = Bytes[TaggedSlot + 2] =
      static_cast<char>(0xff);
  Bytes[TaggedSlot + 3] =
      static_cast<char>((Bytes[TaggedSlot + 3] & 0x80) | 0x7f);
  std::string Path = testing::TempDir() + "bad_event_slot.sched";
  std::ofstream(Path, std::ios::binary)
      .write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  std::string Error;
  std::optional<ScheduleFile> File = ScheduleFile::open(Path, Error);
  ASSERT_TRUE(File.has_value()) << Error;

  const char *Message = "chunk 1 holds event slot 2147483647";
  EXPECT_DEATH(streamSimulateBsd(*File), Message);
  EXPECT_DEATH(streamSimulateFirstFit(*File), Message);
  EXPECT_DEATH(streamSimulateBsdBatched(*File), Message);
  ThreadPool Pool(1);
  EXPECT_DEATH(streamReplayBsdSharded(*File, Pool), Message);
  std::remove(Path.c_str());
}
