//===- tests/schedule_test.cpp - On-disk schedule replay -------------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The streamed-replay equivalence suite.  Pins the billion-event tier's
/// load-bearing claims:
///
///  * streamed replay of a .sched file exports a registry byte-identical
///    to the in-memory simulators on the same trace, for every paper
///    workload;
///  * the Kingsley scan (streamSimulateBsdBatched, streamReplayBsdSharded)
///    reports exactly what simulateBsd reports — counters, heap and live
///    peaks, the full "bsd." registry, and "shard." keys equal to the
///    "bsd." ones — on every corpus trace, fuzz profile and paper program,
///    at every tested chunk size and pool size, including chunks small
///    enough that most objects die in a later chunk than their birth;
///  * corrupt, truncated, padded or version-1 .sched files are rejected
///    at open(), and an out-of-range event slot aborts the replay naming
///    its chunk.
///
//===----------------------------------------------------------------------===//

#include "callchain/CallChain.h"
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

/// \p Sharded's "shard." keys renamed to "bsd.", "shard.count" left out:
/// the registry the sharded scan must agree with one key for one.
StatsRegistry shardKeysAsBsd(const StatsRegistry &Sharded) {
  const std::string Shard = "shard.";
  auto Rename = [&](const std::string &Name) {
    EXPECT_EQ(Name.compare(0, Shard.size(), Shard), 0) << Name;
    return "bsd." + Name.substr(Shard.size());
  };
  StatsRegistry Out;
  for (const auto &[Name, Value] : Sharded.counters())
    Out.counter(Rename(Name)) = Value;
  for (const auto &[Name, Value] : Sharded.gauges())
    if (Name != "shard.count")
      Out.gauge(Rename(Name)) = Value;
  for (const auto &[Name, Histogram] : Sharded.histograms())
    Out.histogram(Rename(Name)) = Histogram;
  return Out;
}

/// Expects both Kingsley-scan entry points, run over \p File (which holds
/// \p Trace), to report exactly what simulateBsd reports on \p Trace:
/// counters, heap and live peaks, and the full "bsd." registry, which the
/// sharded scan's "shard." keys must equal one for one — at pools of 1,
/// 2 and 8.
void expectScanMatchesBsd(const AllocationTrace &Trace,
                          const ScheduleFile &File, const std::string &Label) {
  StatsRegistry Reference;
  SimTelemetry Telemetry;
  Telemetry.Registry = &Reference;
  const BaselineSimResult Mem =
      simulateBsd(CompiledTrace(Trace), {}, {}, &Telemetry);

  StatsRegistry Batched;
  const StreamSimResult Scan = streamSimulateBsdBatched(File, {}, {}, &Batched);
  EXPECT_EQ(Mem.Bsd, Scan.Bsd) << Label;
  EXPECT_EQ(Mem.MaxHeapBytes, Scan.MaxHeapBytes) << Label;
  EXPECT_EQ(Mem.MaxLiveBytes, Scan.MaxLiveBytes) << Label;
  EXPECT_EQ(File.maxLiveBytes(), Scan.MaxLiveBytes) << Label;
  EXPECT_EQ(File.eventCount(), Scan.Events) << Label;
  EXPECT_EQ(registryJson(Reference), registryJson(Batched)) << Label;

  for (unsigned Jobs : {1u, 2u, 8u}) {
    ThreadPool Pool(Jobs);
    StatsRegistry Sharded;
    const ShardedBsdResult Result =
        streamReplayBsdSharded(File, Pool, {}, &Sharded);
    EXPECT_EQ(Mem.Bsd, Result.Totals) << Label << " jobs=" << Jobs;
    EXPECT_EQ(Mem.MaxHeapBytes, Result.MaxHeapBytes)
        << Label << " jobs=" << Jobs;
    EXPECT_EQ(Mem.MaxLiveBytes, Result.MaxLiveBytes)
        << Label << " jobs=" << Jobs;
    EXPECT_EQ(File.eventCount(), Result.Events) << Label << " jobs=" << Jobs;
    EXPECT_EQ(Result.WarmupAllocs, 0u) << Label << " jobs=" << Jobs;
    EXPECT_EQ(Sharded.gauges().at("shard.count"), File.chunkCount())
        << Label << " jobs=" << Jobs;
    EXPECT_EQ(registryJson(Reference), registryJson(shardKeysAsBsd(Sharded)))
        << Label << " jobs=" << Jobs;
  }
}

/// Writes \p Trace at each of \p ChunkSizes events per chunk and runs
/// expectScanMatchesBsd on every file.  Chunks of 7 events put nearly
/// every object's free in a later chunk than its alloc.
void expectScanMatchesBsdPerChunkSize(
    const AllocationTrace &Trace, const std::string &Name,
    std::initializer_list<uint64_t> ChunkSizes = {7, 256, 4096}) {
  for (uint64_t EventsPerChunk : ChunkSizes) {
    const std::string Label =
        Name + " chunk=" + std::to_string(EventsPerChunk);
    std::string Path;
    std::optional<ScheduleFile> File = roundTrip(
        Trace, Name + "_" + std::to_string(EventsPerChunk) + ".sched",
        EventsPerChunk, Path);
    ASSERT_TRUE(File.has_value()) << Label;
    expectScanMatchesBsd(Trace, *File, Label);
    std::remove(Path.c_str());
  }
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
    EXPECT_EQ(Result.Shards, File->chunkCount());
    std::string Json = registryJson(Registry);
    if (Reference.empty())
      Reference = Json;
    else
      EXPECT_EQ(Reference, Json) << "sharded output diverged at jobs="
                                 << Jobs;
  }
  std::remove(Path.c_str());
}

TEST_P(PaperWorkloadScheduleTest, KingsleyScanMatchesInMemory) {
  expectScanMatchesBsdPerChunkSize(
      trace(), GetParam().Name + std::string("_scan"), {64, 256, 4096});
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

// One hand-built trace whose chunks pin the combine's two subtle points.
// Class A (5000-byte payloads: 8 KiB blocks, one per 8 KiB extent, so its
// refills are its peak live count) runs, two events per chunk:
//   chunk 0: alloc R0, alloc R1     A live 2
//   chunk 1: alloc R2, alloc R3     A peaks at 3, entering with 2 live
//   chunk 2: free R0, free R1       frees only: adds nothing to A's peak
//   chunk 3: alloc R4, free R2
// R3 and R4 are immortal 8-byte objects of another class.  Dropping the
// entry offset would peak A at 2 in chunk 1; a relative maximum that did
// not start at 0 would let chunk 2 lower or wrap A's peak.
TEST(KingsleyScanTest, PeakAboveChunkEntryAndFreeOnlyChunk) {
  AllocationTrace Trace;
  const uint32_t Chain = Trace.internChain(CallChain{1, 2});
  // Post-alloc clocks 5000, 10000, 15000, 15008, 15016; R0 and R1 die at
  // 15008 (before R4's alloc, after R3's), R2 at 15100 (after R4's).
  Trace.append({10008, 5000, Chain, 1});
  Trace.append({5008, 5000, Chain, 1});
  Trace.append({100, 5000, Chain, 1});
  Trace.append({NeverFreed, 8, Chain, 1});
  Trace.append({NeverFreed, 8, Chain, 1});
  std::string Path;
  std::optional<ScheduleFile> File =
      roundTrip(Trace, "scan_edges.sched", 2, Path);
  ASSERT_TRUE(File.has_value());

  // The premise: the chunks hold exactly the events sketched above.
  const uint32_t Free = EventSchedule::FreeBit;
  const std::vector<std::pair<uint32_t, uint32_t>> Expected[] = {
      {{0, 5000}, {0, 5000}},
      {{0, 5000}, {0, 8}},
      {{Free, 5000}, {Free, 5000}},
      {{0, 8}, {Free, 5000}}};
  ASSERT_EQ(File->chunkCount(), std::size(Expected));
  for (uint64_t Chunk = 0; Chunk < File->chunkCount(); ++Chunk) {
    ASSERT_EQ(File->chunkEventCount(Chunk), Expected[Chunk].size());
    for (size_t I = 0; I < Expected[Chunk].size(); ++I) {
      const ScheduleEvent &Event = File->chunkEvents(Chunk)[I];
      EXPECT_EQ(Event.TaggedSlot & Free, Expected[Chunk][I].first)
          << "chunk " << Chunk << " event " << I;
      EXPECT_EQ(Event.Size, Expected[Chunk][I].second)
          << "chunk " << Chunk << " event " << I;
    }
  }

  // Three class-A extents plus one page of 16-byte blocks.
  const StreamSimResult Scan = streamSimulateBsdBatched(*File);
  EXPECT_EQ(Scan.Bsd.PageRefills, 4u);
  EXPECT_EQ(Scan.MaxHeapBytes, 4u * 8192);
  EXPECT_EQ(Scan.MaxLiveBytes, 15008u);
  expectScanMatchesBsd(Trace, *File, "scan_edges");
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// The Kingsley scan vs the shadow-oracle-validated allocator
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

class FuzzProfileScanTest : public testing::TestWithParam<FuzzProfile> {};

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

  // ...and the Kingsley scan must report exactly what it reports.
  expectScanMatchesBsdPerChunkSize(
      *Trace, std::filesystem::path(GetParam()).stem().string());
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

TEST_P(FuzzProfileScanTest, MatchesInMemoryBsd) {
  expectScanMatchesBsdPerChunkSize(
      generateFuzzTrace(GetParam(), 1993, 1500),
      std::string("fuzz_") + profileName(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, FuzzProfileScanTest, testing::ValuesIn(allProfiles()),
    [](const testing::TestParamInfo<FuzzProfile> &Info) {
      return std::string(profileName(Info.param));
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

/// Expects open() to reject \p Bytes with a diagnostic that contains
/// \p Why.
void expectRejected(const std::string &Bytes, const std::string &Label,
                    const std::string &Why = "") {
  std::string Path = testing::TempDir() + Label + ".sched";
  {
    std::ofstream OS(Path, std::ios::binary);
    OS.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  }
  std::string Error;
  std::optional<ScheduleFile> File = ScheduleFile::open(Path, Error);
  EXPECT_FALSE(File.has_value()) << Label << " was accepted";
  EXPECT_FALSE(Error.empty()) << Label << " produced no diagnostic";
  EXPECT_NE(Error.find(Why), std::string::npos) << Label << ": " << Error;
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

  // A version-1 file (it also held a chunk index and live-in tables) is
  // named as such, not misread as version 2.
  std::string Version1 = Valid;
  Version1[8] = 1;
  expectRejected(Version1, "version_1", "unsupported schedule version 1");

  // The events are the whole body, so trailing bytes are corruption too.
  expectRejected(Valid + std::string(16, '\0'), "trailing_bytes",
                 "disagrees with");

  // EventsPerChunk (offset 64, after the magic, version, header size and
  // six counts) of zero defines no chunks.
  std::string ZeroPerChunk = Valid;
  std::fill_n(ZeroPerChunk.begin() + 64, 8, '\0');
  expectRejected(ZeroPerChunk, "zero_events_per_chunk",
                 "zero events per chunk");

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
  // open() validates the header and the file size but does not scan the
  // events, so a corrupted event slot opens cleanly.  Every
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
