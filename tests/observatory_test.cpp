//===- tests/observatory_test.cpp - Heap observatory tests -----------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
// Covers the heap observatory: FragmentationProbe arithmetic and golden
// JSON, HeapHeatmap cell placement / clipping and golden JSON, a
// hand-built ten-op trace replayed through first fit with hand-computed
// expectations, jobs-invariance of every non-timing observatory key
// (thread pools of 1, 2, and 8 produce byte-identical filtered registry
// output), streamed-vs-in-memory probe equality, the LatencyRecorder
// sampling schedule and its timing-key classification, and a sanity check
// of every allocator family's live-span walk.
//
//===----------------------------------------------------------------------===//

#include "alloc/ArenaAllocator.h"
#include "alloc/BsdAllocator.h"
#include "alloc/FirstFitAllocator.h"
#include "core/Pipeline.h"
#include "sim/SimTelemetry.h"
#include "sim/StreamReplay.h"
#include "sim/TraceSimulator.h"
#include "support/Json.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include "telemetry/FragmentationProbe.h"
#include "telemetry/HeapHeatmap.h"
#include "telemetry/LatencyRecorder.h"
#include "telemetry/ReportDiff.h"
#include "telemetry/StatsRegistry.h"
#include "trace/ScheduleFile.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace lifepred;

namespace {

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + Name;
}

/// Serializes every non-timing key of \p Registry — the byte-identical
/// surface the jobs-invariance guarantee covers.  Timing keys (latency)
/// carry wall-clock values and are excluded by the same classifier
/// bench_compare uses.
std::string valueKeysOnly(const StatsRegistry &Registry) {
  std::string Out;
  for (const auto &[Key, Value] : Registry.counters())
    if (!isTimingMetric(Key))
      Out += Key + "=" + std::to_string(Value) + "\n";
  for (const auto &[Key, Value] : Registry.gauges())
    if (!isTimingMetric(Key))
      Out += Key + "=" + std::to_string(Value) + "\n";
  for (const auto &[Key, Hist] : Registry.histograms()) {
    if (isTimingMetric(Key))
      continue;
    Out += Key + ":";
    for (unsigned B = 0; B < Log2Histogram::BucketCount; ++B)
      if (Hist.bucketCount(B) != 0)
        Out += " [" + std::to_string(B) + "]=" +
               std::to_string(Hist.bucketCount(B));
    Out += "\n";
  }
  return Out;
}

/// A synthetic trace with mixed sizes and lifetimes; \p Seed varies the
/// shape so multi-program fan-outs exercise distinct heaps.
AllocationTrace makeSyntheticTrace(uint64_t Seed, size_t Objects) {
  AllocationTrace T;
  Rng R(Seed);
  uint32_t Short = T.internChain(CallChain{1, 2});
  uint32_t Long = T.internChain(CallChain{1, 3});
  for (size_t I = 0; I < Objects; ++I) {
    if (R.next() % 4 != 0)
      T.append({static_cast<uint64_t>(R.nextInRange(64, 4000)), 32, Short,
                1});
    else
      T.append({static_cast<uint64_t>(R.nextInRange(20000, 200000)),
                static_cast<uint32_t>(16 << (R.next() % 5)), Long, 2});
  }
  return T;
}

} // namespace

//===----------------------------------------------------------------------===//
// FragmentationProbe
//===----------------------------------------------------------------------===//

TEST(FragmentationProbeTest, HandComputedFragIndex) {
  FragmentationProbe Probe(1000);
  EXPECT_TRUE(Probe.due(0)) << "first sample must fire immediately";

  // Free spans of 100 and 300 bytes: total 400, largest 300, so the
  // external-fragmentation index is (400 - 300) / 400 = 25% = 250000 ppm.
  Probe.beginSample(/*Clock=*/0, /*HeapBytes=*/1000, /*LiveBytes=*/600);
  Probe.addFreeSpan(100);
  Probe.addFreeSpan(300);
  Probe.addLiveSpan(600);
  Probe.endSample();
  EXPECT_EQ(Probe.sampleCount(), 1u);
  EXPECT_EQ(Probe.lastFragIndexPpm(), 250000u);
  EXPECT_EQ(Probe.maxFragIndexPpm(), 250000u);
  EXPECT_EQ(Probe.largestFreeBlock(), 300u);

  // Clock 0 closed the [0, 1000) window; the next boundary is 1000.
  EXPECT_FALSE(Probe.due(999));
  EXPECT_TRUE(Probe.due(1000));

  // A single free span is zero external fragmentation by definition, and
  // peaks (max index, largest free) are monotone.
  Probe.beginSample(1000, 1000, 0);
  Probe.addFreeSpan(1000);
  Probe.endSample();
  EXPECT_EQ(Probe.lastFragIndexPpm(), 0u);
  EXPECT_EQ(Probe.maxFragIndexPpm(), 250000u);
  EXPECT_EQ(Probe.largestFreeBlock(), 1000u);

  // No free memory at all also reads as zero, not a division crash.
  Probe.beginSample(2000, 1000, 1000);
  Probe.addLiveSpan(1000);
  Probe.endSample();
  EXPECT_EQ(Probe.lastFragIndexPpm(), 0u);
}

TEST(FragmentationProbeTest, BulkSpansMatchLoopedSpans) {
  FragmentationProbe Bulk(1), Loop(1);
  Bulk.beginSample(0, 0, 0);
  Bulk.addFreeSpans(128, 50);
  Bulk.addLiveSpans(24, 200);
  Bulk.endSample();
  Loop.beginSample(0, 0, 0);
  for (int I = 0; I < 50; ++I)
    Loop.addFreeSpan(128);
  for (int I = 0; I < 200; ++I)
    Loop.addLiveSpan(24);
  Loop.endSample();
  EXPECT_EQ(Bulk.freeSpans(), Loop.freeSpans());
  EXPECT_EQ(Bulk.liveSpans(), Loop.liveSpans());
  EXPECT_EQ(Bulk.lastFragIndexPpm(), Loop.lastFragIndexPpm());
  EXPECT_EQ(Bulk.largestFreeBlock(), Loop.largestFreeBlock());
}

TEST(FragmentationProbeTest, DriftEstimatorUsesBackHalf) {
  // Heap doubles in the back half: samples at clocks 0/500/1000 with heap
  // 100/100/300.  The midpoint is 500, so the window is [500, 1000] and
  // growth is 200 bytes over 500 byte-clock.
  FragmentationProbe Probe(500);
  for (auto [Clock, Heap] :
       {std::pair<uint64_t, uint64_t>{0, 100}, {500, 100}, {1000, 300}}) {
    Probe.beginSample(Clock, Heap, 0);
    Probe.endSample();
  }
  FragmentationProbe::Drift D = Probe.driftEstimate();
  EXPECT_EQ(D.GrowthBytes, 200u);
  EXPECT_EQ(D.ShrinkBytes, 0u);
  EXPECT_EQ(D.WindowClock, 500u);

  // A shrinking heap reports on the shrink side instead.
  FragmentationProbe Shrink(500);
  for (auto [Clock, Heap] :
       {std::pair<uint64_t, uint64_t>{0, 300}, {500, 300}, {1000, 50}}) {
    Shrink.beginSample(Clock, Heap, 0);
    Shrink.endSample();
  }
  D = Shrink.driftEstimate();
  EXPECT_EQ(D.GrowthBytes, 0u);
  EXPECT_EQ(D.ShrinkBytes, 250u);
}

TEST(FragmentationProbeTest, GoldenJson) {
  FragmentationProbe Probe(4096);
  Probe.beginSample(0, 1024, 600);
  Probe.addFreeSpan(100);
  Probe.addFreeSpan(300);
  Probe.addLiveSpan(600);
  Probe.endSample();

  std::string Json;
  Probe.writeJson(Json, "");
  std::optional<JsonValue> Doc = parseJson(Json);
  ASSERT_TRUE(Doc && Doc->isObject()) << Json;
  EXPECT_EQ(Doc->find("stride_bytes")->number(), 4096.0);
  EXPECT_EQ(Doc->find("samples")->number(), 1.0);
  EXPECT_EQ(Doc->find("frag_index_ppm")->number(), 250000.0);
  EXPECT_EQ(Doc->find("max_frag_index_ppm")->number(), 250000.0);
  EXPECT_EQ(Doc->find("largest_free_block")->number(), 300.0);
  EXPECT_EQ(Doc->find("peak_free_bytes")->number(), 400.0);

  // Histograms serialize sparsely as [bucket_low, count] pairs: 100 lands
  // in [64, 127], 300 in [256, 511], 600 in [512, 1023].
  const JsonValue *Free = Doc->find("free_span_bytes");
  ASSERT_TRUE(Free && Free->isObject());
  EXPECT_EQ(Free->find("count")->number(), 2.0);
  EXPECT_EQ(Free->find("sum")->number(), 400.0);
  const JsonValue *Buckets = Free->find("buckets");
  ASSERT_TRUE(Buckets && Buckets->isArray());
  ASSERT_EQ(Buckets->array().size(), 2u);
  EXPECT_EQ(Buckets->array()[0].array()[0].number(), 64.0);
  EXPECT_EQ(Buckets->array()[0].array()[1].number(), 1.0);
  EXPECT_EQ(Buckets->array()[1].array()[0].number(), 256.0);
  EXPECT_EQ(Buckets->array()[1].array()[1].number(), 1.0);
  const JsonValue *Live = Doc->find("live_span_bytes");
  ASSERT_TRUE(Live && Live->isObject());
  EXPECT_EQ(Live->find("count")->number(), 1.0);
  EXPECT_EQ(Live->find("sum")->number(), 600.0);
}

TEST(FragmentationProbeTest, ExportKeysAreValueClassified) {
  FragmentationProbe Probe(1);
  Probe.beginSample(0, 100, 0);
  Probe.addFreeSpan(100);
  Probe.endSample();
  StatsRegistry Registry;
  Probe.exportTelemetry(Registry, "firstfit.");
  EXPECT_EQ(Registry.counters().at("firstfit.frag.samples"), 1u);
  EXPECT_EQ(Registry.gauges().at("firstfit.frag.largest_free_block"), 100u);
  for (const auto &[Key, Value] : Registry.counters())
    EXPECT_FALSE(isTimingMetric(Key)) << Key;
  for (const auto &[Key, Value] : Registry.gauges())
    EXPECT_FALSE(isTimingMetric(Key)) << Key;
  for (const auto &[Key, Hist] : Registry.histograms())
    EXPECT_FALSE(isTimingMetric(Key)) << Key;
}

//===----------------------------------------------------------------------===//
// HeapHeatmap
//===----------------------------------------------------------------------===//

TEST(HeapHeatmapTest, CellPlacementAndRowSplit) {
  HeapHeatmap::Config Config;
  Config.BytesPerRow = 64; // Minimum row width, power of two.
  Config.ClockStride = 100;
  HeapHeatmap Map(Config);

  // A 40-byte span at address 40 straddles the 64-byte row boundary:
  // 24 bytes land in row [0, 64), 16 bytes in row [64, 128).
  EXPECT_TRUE(Map.due(0));
  Map.beginColumn(0);
  Map.addSpan(40, 40);
  Map.endColumn();
  EXPECT_EQ(Map.rowCount(), 2u);
  EXPECT_EQ(Map.cellBytes(0, 0), 24u);
  EXPECT_EQ(Map.cellBytes(64, 0), 16u);
  EXPECT_EQ(Map.peakCellBytes(), 24u);
  EXPECT_EQ(Map.clippedBytes(), 0u);

  // Clock 250 lands in column 2; column 0's cells are untouched.
  EXPECT_FALSE(Map.due(99));
  EXPECT_TRUE(Map.due(100));
  Map.beginColumn(250);
  Map.addSpan(0, 10);
  Map.endColumn();
  EXPECT_EQ(Map.cellBytes(0, 250), 10u);
  EXPECT_EQ(Map.cellBytes(0, 0), 24u);
  EXPECT_EQ(Map.occupiedCells(), 3u);
}

TEST(HeapHeatmapTest, RowCapClipsAndAccounts) {
  HeapHeatmap::Config Config;
  Config.BytesPerRow = 64;
  Config.MaxRows = 1;
  HeapHeatmap Map(Config);
  Map.beginColumn(0);
  Map.addSpan(0, 10);      // First row: kept.
  Map.addSpan(1 << 20, 30); // Would be a second row: clipped.
  Map.endColumn();
  EXPECT_EQ(Map.rowCount(), 1u);
  EXPECT_EQ(Map.cellBytes(0, 0), 10u);
  EXPECT_EQ(Map.clippedBytes(), 30u);
}

TEST(HeapHeatmapTest, ColumnCapFoldsIntoLast) {
  HeapHeatmap::Config Config;
  Config.BytesPerRow = 64;
  Config.ClockStride = 10;
  Config.MaxColumns = 4;
  HeapHeatmap Map(Config);
  // Clock 1000 would be column 100; the cap folds it into column 3.
  Map.beginColumn(1000);
  Map.addSpan(0, 9);
  Map.endColumn();
  EXPECT_LE(Map.columnCount(), 4u);
  EXPECT_EQ(Map.cellBytes(0, 39), 9u); // Column 3 covers clock [30, 40).
}

TEST(HeapHeatmapTest, GoldenJson) {
  HeapHeatmap::Config Config;
  Config.BytesPerRow = 64;
  Config.ClockStride = 100;
  HeapHeatmap Map(Config);
  Map.beginColumn(0);
  Map.addSpan(0, 24);
  Map.endColumn();
  Map.beginColumn(100);
  Map.addSpan(0, 24);
  Map.addSpan(64, 8);
  Map.endColumn();

  std::string Json;
  Map.writeJson(Json, "");
  std::optional<JsonValue> Doc = parseJson(Json);
  ASSERT_TRUE(Doc && Doc->isObject()) << Json;
  EXPECT_EQ(Doc->find("bytes_per_row")->number(), 64.0);
  EXPECT_EQ(Doc->find("clock_stride")->number(), 100.0);
  EXPECT_EQ(Doc->find("columns")->number(), 2.0);
  EXPECT_EQ(Doc->find("clipped_bytes")->number(), 0.0);
  const JsonValue *Rows = Doc->find("rows");
  ASSERT_TRUE(Rows && Rows->isArray());
  ASSERT_EQ(Rows->array().size(), 2u);
  EXPECT_EQ(Rows->array()[0].find("base")->number(), 0.0);
  const JsonValue *Cells = Rows->array()[0].find("cells");
  ASSERT_TRUE(Cells && Cells->isArray());
  ASSERT_EQ(Cells->array().size(), 2u); // Columns 0 and 1, 24 bytes each.
  EXPECT_EQ(Cells->array()[0].array()[0].number(), 0.0);
  EXPECT_EQ(Cells->array()[0].array()[1].number(), 24.0);
  EXPECT_EQ(Cells->array()[1].array()[0].number(), 1.0);
  EXPECT_EQ(Cells->array()[1].array()[1].number(), 24.0);
  EXPECT_EQ(Rows->array()[1].find("base")->number(), 64.0);
}

//===----------------------------------------------------------------------===//
// LatencyRecorder
//===----------------------------------------------------------------------===//

TEST(LatencyRecorderTest, DeterministicSamplingSchedule) {
  LatencyRecorder Recorder(4);
  // The countdown fires on every 4th operation, starting with the 4th.
  std::vector<bool> Fired;
  for (int I = 0; I < 8; ++I)
    Fired.push_back(Recorder.due());
  EXPECT_EQ(Fired, (std::vector<bool>{false, false, false, true, false,
                                      false, false, true}));

  // Period 0 clamps to 1: every operation sampled.
  LatencyRecorder Every(0);
  EXPECT_EQ(Every.samplePeriod(), 1u);
  EXPECT_TRUE(Every.due());
  EXPECT_TRUE(Every.due());
}

TEST(LatencyRecorderTest, EveryExportedKeyIsTimingClassified) {
  LatencyRecorder Recorder(1);
  Recorder.record(LatencyRecorder::OpAlloc, 500);
  Recorder.record(LatencyRecorder::OpAlloc, 700);
  Recorder.record(LatencyRecorder::OpFree, 200);
  EXPECT_EQ(Recorder.samples(LatencyRecorder::OpAlloc), 2u);
  EXPECT_EQ(Recorder.samples(LatencyRecorder::OpFree), 1u);
  EXPECT_GT(Recorder.quantileNanos(LatencyRecorder::OpAlloc, 0.5), 0.0);

  StatsRegistry Registry;
  Recorder.exportTelemetry(Registry, "firstfit.");
  size_t Keys = 0;
  for (const auto &[Key, Value] : Registry.counters()) {
    EXPECT_TRUE(isTimingMetric(Key)) << Key;
    ++Keys;
  }
  for (const auto &[Key, Value] : Registry.gauges()) {
    EXPECT_TRUE(isTimingMetric(Key)) << Key;
    ++Keys;
  }
  for (const auto &[Key, Hist] : Registry.histograms()) {
    EXPECT_TRUE(isTimingMetric(Key)) << Key;
    ++Keys;
  }
  EXPECT_GT(Keys, 0u);
  // The filtered jobs-invariance surface therefore excludes all of them.
  EXPECT_EQ(valueKeysOnly(Registry), "");
}

TEST(LatencyRecorderTest, TimedOpPreservesResultAndDetachedIsFree) {
  LatencyRecorder Recorder(1);
  int Calls = 0;
  int Result = timedAllocatorOp(&Recorder, LatencyRecorder::OpAlloc, [&] {
    ++Calls;
    return 42;
  });
  EXPECT_EQ(Result, 42);
  EXPECT_EQ(Calls, 1);
  EXPECT_EQ(Recorder.samples(LatencyRecorder::OpAlloc), 1u);

  // Detached: the op still runs exactly once, nothing is recorded.
  Result = timedAllocatorOp(nullptr, LatencyRecorder::OpFree, [&] {
    ++Calls;
    return 7;
  });
  EXPECT_EQ(Result, 7);
  EXPECT_EQ(Calls, 2);
}

//===----------------------------------------------------------------------===//
// Hand-built ten-op trace through first fit
//===----------------------------------------------------------------------===//

TEST(ObservatoryReplayTest, TenOpTraceHandComputed) {
  // Five 24-byte allocations, then five frees in allocation order: alloc
  // clocks are 24/48/72/96/120 (the byte clock advances by the size as
  // each allocation lands) and the lifetimes below schedule the deaths at
  // 144/146/148/150/152 — ten events, every heap state hand-checkable.
  AllocationTrace T;
  uint32_t Chain = T.internChain(CallChain{1, 2});
  T.append({120, 24, Chain, 1});
  T.append({98, 24, Chain, 1});
  T.append({76, 24, Chain, 1});
  T.append({54, 24, Chain, 1});
  T.append({32, 24, Chain, 1});
  CompiledTrace Compiled(T, SiteKeyPolicy::completeChain());

  FragmentationProbe Probe(1); // Stride 1: every event samples.
  HeapHeatmap::Config MapConfig;
  MapConfig.ClockStride = 1;
  HeapHeatmap Map(MapConfig);
  StatsRegistry Registry;
  SimTelemetry Telemetry;
  Telemetry.Registry = &Registry;
  Telemetry.Fragmentation = &Probe;
  Telemetry.Heatmap = &Map;

  BaselineSimResult Result =
      simulateFirstFit(Compiled, CostModel(), FirstFitAllocator::Config(),
                       &Telemetry);

  // One observatory sample per event.
  EXPECT_EQ(Probe.sampleCount(), 10u);

  // Live objects at the ten samples: 1,2,3,4,5 while allocating, then
  // 4,3,2,1,0 while freeing — 25 live-span observations in total, each a
  // 24-byte payload (bucket [16, 31]).
  EXPECT_EQ(Probe.liveSpans().count(), 25u);
  EXPECT_EQ(Probe.liveSpans().min(), 24u);
  EXPECT_EQ(Probe.liveSpans().max(), 24u);
  EXPECT_EQ(Probe.liveSpans().bucketCount(Log2Histogram::bucketIndex(24)),
            25u);

  // After the last free everything coalesces back into a single span, so
  // the final fragmentation index is exactly zero.
  EXPECT_EQ(Probe.lastFragIndexPpm(), 0u);

  // Every event grew the probe's free-span histogram by at least one span
  // (the heap always has wilderness), and the frag index peaked above
  // zero mid-replay when freed blocks sat between live ones.
  EXPECT_GT(Probe.freeSpans().count(), 0u);
  EXPECT_GT(Probe.maxFragIndexPpm(), 0u);

  // Heatmap: one 64 KB address row; the nine samples with live memory
  // each occupy one cell (stride 1 makes every event its own column), and
  // the sample after the final free contributes none.
  EXPECT_EQ(Map.rowCount(), 1u);
  EXPECT_EQ(Map.occupiedCells(), 9u);
  const uint64_t Base = FirstFitAllocator::Config().BaseAddress;
  EXPECT_EQ(Map.cellBytes(Base, 24), 24u);   // A alone.
  EXPECT_EQ(Map.cellBytes(Base, 120), 120u); // All five live.
  EXPECT_EQ(Map.cellBytes(Base, 152), 0u);   // Everything freed.

  // The registry carries the frag export under the family prefix, and the
  // replay result is unperturbed by instrumentation.
  EXPECT_EQ(Registry.counters().at("firstfit.frag.samples"), 10u);
  BaselineSimResult Plain = simulateFirstFit(Compiled);
  EXPECT_EQ(Plain.MaxHeapBytes, Result.MaxHeapBytes);
  EXPECT_EQ(Plain.MaxLiveBytes, Result.MaxLiveBytes);
}

//===----------------------------------------------------------------------===//
// Streamed replay matches in-memory replay
//===----------------------------------------------------------------------===//

TEST(ObservatoryReplayTest, StreamedProbeMatchesInMemory) {
  AllocationTrace T = makeSyntheticTrace(0x0b5e, 4000);
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();

  const std::string Path = tempPath("observatory_stream.sched");
  ScheduleFileWriter::Config WriterConfig;
  WriterConfig.EventsPerChunk = 512; // Many chunks: cross-chunk sampling.
  ScheduleFileWriter Writer(Path, WriterConfig);
  Writer.append(T);
  ASSERT_TRUE(Writer.finish()) << Writer.error();
  std::string Error;
  auto File = ScheduleFile::open(Path, Error);
  ASSERT_TRUE(File) << Error;

  const uint64_t Stride = 8 * 1024;
  for (bool UseBsd : {false, true}) {
    FragmentationProbe MemProbe(Stride), StreamProbe(Stride);
    StatsRegistry MemRegistry, StreamRegistry;

    SimTelemetry Mem;
    Mem.Registry = &MemRegistry;
    Mem.Fragmentation = &MemProbe;
    SimTelemetry Stream;
    Stream.Registry = &StreamRegistry;
    Stream.Fragmentation = &StreamProbe;

    CompiledTrace Compiled(T, Policy);
    if (UseBsd) {
      simulateBsd(Compiled, CostModel(), BsdAllocator::Config(), &Mem);
      streamSimulateBsd(*File, CostModel(), BsdAllocator::Config(), &Stream);
    } else {
      simulateFirstFit(Compiled, CostModel(), FirstFitAllocator::Config(),
                       &Mem);
      streamSimulateFirstFit(*File, CostModel(), FirstFitAllocator::Config(),
                             &Stream);
    }

    EXPECT_EQ(MemProbe.sampleCount(), StreamProbe.sampleCount());
    EXPECT_EQ(MemProbe.lastFragIndexPpm(), StreamProbe.lastFragIndexPpm());
    EXPECT_EQ(MemProbe.maxFragIndexPpm(), StreamProbe.maxFragIndexPpm());
    EXPECT_EQ(MemProbe.largestFreeBlock(), StreamProbe.largestFreeBlock());
    EXPECT_EQ(MemProbe.freeSpans(), StreamProbe.freeSpans());
    EXPECT_EQ(MemProbe.liveSpans(), StreamProbe.liveSpans());
    EXPECT_EQ(valueKeysOnly(MemRegistry), valueKeysOnly(StreamRegistry))
        << (UseBsd ? "bsd" : "firstfit");
  }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Jobs invariance
//===----------------------------------------------------------------------===//

TEST(ObservatoryJobsTest, ValueKeysIdenticalAtAnyJobCount) {
  // Four programs, each replayed through first fit and BSD with every
  // observatory sink attached, fanned across pools of 1, 2, and 8
  // workers.  Per-program registries merged in program order must yield
  // byte-identical non-timing output regardless of the pool size.
  constexpr size_t Programs = 4;
  std::vector<AllocationTrace> Traces;
  for (size_t I = 0; I < Programs; ++I)
    Traces.push_back(makeSyntheticTrace(0x9100 + I, 1500));
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();

  auto RunAtJobs = [&](size_t Jobs) {
    ThreadPool Pool(Jobs);
    std::vector<StatsRegistry> PerProgram(Programs);
    std::vector<FragmentationProbe> Probes;
    std::vector<HeapHeatmap> Maps;
    std::vector<LatencyRecorder> Latencies(Programs * 2);
    HeapHeatmap::Config MapConfig;
    MapConfig.ClockStride = 16 * 1024;
    for (size_t I = 0; I < Programs * 2; ++I) {
      Probes.emplace_back(16 * 1024);
      Maps.emplace_back(MapConfig);
    }
    parallelForIndex(Pool, Programs, [&](size_t Index) {
      CompiledTrace Compiled(Traces[Index], Policy);
      SimTelemetry FF;
      FF.Registry = &PerProgram[Index];
      FF.Fragmentation = &Probes[Index * 2];
      FF.Heatmap = &Maps[Index * 2];
      FF.Latency = &Latencies[Index * 2];
      simulateFirstFit(Compiled, CostModel(), FirstFitAllocator::Config(),
                       &FF);
      SimTelemetry Bsd;
      Bsd.Registry = &PerProgram[Index];
      Bsd.Fragmentation = &Probes[Index * 2 + 1];
      Bsd.Heatmap = &Maps[Index * 2 + 1];
      Bsd.Latency = &Latencies[Index * 2 + 1];
      simulateBsd(Compiled, CostModel(), BsdAllocator::Config(), &Bsd);
    });
    StatsRegistry Merged;
    for (StatsRegistry &Program : PerProgram)
      Merged.merge(Program);
    // The heatmaps render in program order.
    std::string MapJson;
    for (const HeapHeatmap &Map : Maps)
      Map.writeJson(MapJson, "");
    return valueKeysOnly(Merged) + MapJson;
  };

  const std::string AtOne = RunAtJobs(1);
  const std::string AtTwo = RunAtJobs(2);
  const std::string AtEight = RunAtJobs(8);
  EXPECT_FALSE(AtOne.empty());
  EXPECT_TRUE(AtOne.find("firstfit.frag.samples") != std::string::npos);
  EXPECT_TRUE(AtOne.find("bsd.frag.samples") != std::string::npos);
  EXPECT_EQ(AtOne, AtTwo);
  EXPECT_EQ(AtOne, AtEight);
}

//===----------------------------------------------------------------------===//
// Live-span walks of every allocator family
//===----------------------------------------------------------------------===//

namespace {

/// One allocator family as the span-walk test drives it: a factory and an
/// allocate that routes predicted-short requests to the arena path where
/// the family has one.
struct SpanFamily {
  const char *Name;
  std::unique_ptr<AllocatorSim> (*Make)();
  uint64_t (*Allocate)(AllocatorSim &Heap, uint32_t Size, bool Short);
};

const SpanFamily SpanFamilies[] = {
    {"FirstFit", [] { return std::unique_ptr<AllocatorSim>(
                          std::make_unique<FirstFitAllocator>()); },
     [](AllocatorSim &Heap, uint32_t Size, bool) {
       return Heap.allocate(Size);
     }},
    {"Bsd", [] { return std::unique_ptr<AllocatorSim>(
                     std::make_unique<BsdAllocator>()); },
     [](AllocatorSim &Heap, uint32_t Size, bool) {
       return Heap.allocate(Size);
     }},
    {"Arena", [] { return std::unique_ptr<AllocatorSim>(
                       std::make_unique<ArenaAllocator>()); },
     [](AllocatorSim &Heap, uint32_t Size, bool Short) {
       return static_cast<ArenaAllocator &>(Heap).allocate(
           Size, Short ? 0 : ArenaAllocator::GeneralBand);
     }},
    {"MultiArena",
     [] {
       ArenaAllocator::Config Config;
       Config.Bands = {{8 * 1024, 4}, {32 * 1024, 8}};
       return std::unique_ptr<AllocatorSim>(
           std::make_unique<ArenaAllocator>(Config));
     },
     [](AllocatorSim &Heap, uint32_t Size, bool Short) {
       return static_cast<ArenaAllocator &>(Heap).allocate(
           Size, Short ? static_cast<LifetimeClass>(Size & 1)
                       : ArenaAllocator::GeneralBand);
     }},
};

void PrintTo(const SpanFamily &Family, std::ostream *OS) { *OS << Family.Name; }

class SpanWalkTest : public ::testing::TestWithParam<SpanFamily> {};

} // namespace

TEST_P(SpanWalkTest, LiveSpansAreTheLiveObjectsAndFitTheHeap) {
  const SpanFamily &Family = GetParam();
  std::unique_ptr<AllocatorSim> Heap = Family.Make();
  // Sizes straddle 64 bytes and reach past an arena, so size classes,
  // payload sizes and the oversize route all appear.
  const uint32_t Sizes[] = {1, 8, 24, 40, 63, 64, 65, 100, 200, 1000, 5000};
  Rng R(77);
  std::map<uint64_t, uint32_t> Live;
  for (int Op = 0; Op < 6000; ++Op) {
    if (!Live.empty() && R.nextBool(0.45)) {
      auto It = Live.begin();
      std::advance(It, R.nextBelow(Live.size()));
      Heap->free(It->first);
      Live.erase(It);
      continue;
    }
    uint32_t Size = Sizes[R.nextBelow(std::size(Sizes))];
    uint64_t Addr = Family.Allocate(*Heap, Size, R.nextBool(0.7));
    ASSERT_TRUE(Live.emplace(Addr, Size).second) << "address reused live";
  }
  ASSERT_FALSE(Live.empty());

  uint64_t SpanBytes = 0;
  std::map<uint64_t, uint64_t> Spans;
  Heap->forEachLiveSpan([&](uint64_t Addr, uint64_t Bytes) {
    EXPECT_TRUE(Spans.emplace(Addr, Bytes).second) << "visited twice";
    SpanBytes += Bytes;
  });
  EXPECT_LE(SpanBytes, Heap->heapBytes());
  ASSERT_EQ(Spans.size(), Live.size());
  const auto *Bsd = dynamic_cast<const BsdAllocator *>(Heap.get());
  for (const auto &[Addr, Size] : Live) {
    auto It = Spans.find(Addr);
    ASSERT_NE(It, Spans.end()) << "live object " << Addr << " not visited";
    // Kingsley reports the rounded block; every other family its payload.
    uint64_t Want = Bsd ? uint64_t(1) << Bsd->bucketFor(Size) : Size;
    EXPECT_EQ(It->second, Want) << Family.Name << " size " << Size;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, SpanWalkTest, ::testing::ValuesIn(SpanFamilies),
    [](const ::testing::TestParamInfo<SpanFamily> &Info) {
      return std::string(Info.param.Name);
    });
