//===- tests/telemetry_test.cpp - Telemetry subsystem tests ----------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
// Covers the observability substrate end to end: Log2Histogram bucket
// boundaries and merge algebra, StatsRegistry merge semantics and the
// jobs-invariance guarantee (per-worker registries merged in task-index
// order are identical at any thread count), golden-output and nesting
// tests for the chrome://tracing TraceEventWriter, the JSON parser that
// backs bench_compare, ReportDiff's value/timing tolerance split and exit
// semantics, HeapTimeline byte-clock sampling, and the SimTelemetry hooks
// of the trace simulators (exported counters match simulator results, and
// instrumentation never perturbs the simulation).
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "sim/MultiArenaSimulator.h"
#include "sim/SimTelemetry.h"
#include "sim/TraceSimulator.h"
#include "support/Json.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include "telemetry/HeapTimeline.h"
#include "telemetry/ReportDiff.h"
#include "telemetry/StatsRegistry.h"
#include "telemetry/TraceEventWriter.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace lifepred;

//===----------------------------------------------------------------------===//
// Log2Histogram
//===----------------------------------------------------------------------===//

TEST(Log2HistogramTest, BucketBoundariesRoundTrip) {
  // Every bucket's own boundaries map back to it.
  for (unsigned B = 0; B < Log2Histogram::BucketCount; ++B) {
    EXPECT_EQ(Log2Histogram::bucketIndex(Log2Histogram::bucketLow(B)), B);
    EXPECT_EQ(Log2Histogram::bucketIndex(Log2Histogram::bucketHigh(B)), B);
  }
  // Buckets tile the uint64 range with no gaps or overlaps.
  EXPECT_EQ(Log2Histogram::bucketLow(0), 0u);
  EXPECT_EQ(Log2Histogram::bucketHigh(0), 0u);
  for (unsigned B = 1; B < Log2Histogram::BucketCount; ++B)
    EXPECT_EQ(Log2Histogram::bucketLow(B),
              Log2Histogram::bucketHigh(B - 1) + 1);
  EXPECT_EQ(Log2Histogram::bucketHigh(Log2Histogram::BucketCount - 1),
            ~uint64_t(0));
  // Spot checks: 0 is its own bucket, powers of two start new buckets.
  EXPECT_EQ(Log2Histogram::bucketIndex(0), 0u);
  EXPECT_EQ(Log2Histogram::bucketIndex(1), 1u);
  EXPECT_EQ(Log2Histogram::bucketIndex(2), 2u);
  EXPECT_EQ(Log2Histogram::bucketIndex(3), 2u);
  EXPECT_EQ(Log2Histogram::bucketIndex(4), 3u);
  EXPECT_EQ(Log2Histogram::bucketIndex(1024), 11u);
}

TEST(Log2HistogramTest, RecordTracksStatistics) {
  Log2Histogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.sum(), 0u);
  EXPECT_EQ(H.min(), 0u); // Empty histogram reports 0, not UINT64_MAX.
  EXPECT_EQ(H.max(), 0u);
  EXPECT_DOUBLE_EQ(H.mean(), 0.0);

  for (uint64_t Value : {uint64_t(0), uint64_t(1), uint64_t(7),
                         uint64_t(1024)})
    H.record(Value);
  EXPECT_EQ(H.count(), 4u);
  EXPECT_EQ(H.sum(), 1032u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 1024u);
  EXPECT_DOUBLE_EQ(H.mean(), 258.0);
  EXPECT_EQ(H.bucketCount(0), 1u);  // 0
  EXPECT_EQ(H.bucketCount(1), 1u);  // 1
  EXPECT_EQ(H.bucketCount(3), 1u);  // 7 in [4, 7]
  EXPECT_EQ(H.bucketCount(11), 1u); // 1024 in [1024, 2047]
  EXPECT_EQ(H.bucketCount(2), 0u);
}

TEST(Log2HistogramTest, MergeMatchesDirectRecording) {
  Rng R(42);
  Log2Histogram Whole, PartA, PartB;
  for (int I = 0; I < 1000; ++I) {
    uint64_t Value = R.nextBelow(uint64_t(1) << (1 + R.nextBelow(40)));
    Whole.record(Value);
    (I % 2 ? PartA : PartB).record(Value);
  }
  Log2Histogram Merged = PartB;
  Merged.merge(PartA);
  EXPECT_TRUE(Merged == Whole);

  // Merging an empty histogram is the identity.
  Log2Histogram Empty;
  Merged.merge(Empty);
  EXPECT_TRUE(Merged == Whole);

  // Merge order does not matter.
  Log2Histogram Other = PartA;
  Other.merge(PartB);
  EXPECT_TRUE(Other == Merged);
}

TEST(Log2HistogramTest, QuantileLowerBoundConvention) {
  // Empty histograms report 0 for every quantile.
  EXPECT_EQ(Log2Histogram().quantileLowerBound(0.5), 0u);

  // The quantile is the lower bound of the bucket holding the rank
  // ceil(Phi * count); with values {0, 1, 7, 1024} the ranks 1..4 land in
  // buckets {0}, {1}, [4,7], [1024,2047].
  Log2Histogram H;
  for (uint64_t Value : {uint64_t(0), uint64_t(1), uint64_t(7),
                         uint64_t(1024)})
    H.record(Value);
  EXPECT_EQ(H.quantileLowerBound(0.25), 0u);
  EXPECT_EQ(H.quantileLowerBound(0.50), 1u);
  EXPECT_EQ(H.quantileLowerBound(0.75), 4u);
  EXPECT_EQ(H.quantileLowerBound(1.0), 1024u);
  // Phi clamps into (0, 1]: below the first rank and above the last.
  EXPECT_EQ(H.quantileLowerBound(0.0), 0u);
  EXPECT_EQ(H.quantileLowerBound(2.0), 1024u);

  // A single value reports its bucket's lower bound, not the value itself
  // (the audit report's obs_p50 convention).
  Log2Histogram Single;
  Single.record(16100);
  EXPECT_EQ(Single.quantileLowerBound(0.5), 8192u);
}

//===----------------------------------------------------------------------===//
// StatsRegistry
//===----------------------------------------------------------------------===//

TEST(StatsRegistryTest, MetricsCreateOnFirstUse) {
  StatsRegistry Reg;
  EXPECT_EQ(Reg.metricCount(), 0u);
  Reg.counter("a.count") += 3;
  Reg.gauge("a.peak") = 7;
  Reg.histogram("a.sizes").record(16);
  EXPECT_EQ(Reg.metricCount(), 3u);
  // Repeated access returns the same metric, not a new one.
  Reg.counter("a.count") += 1;
  EXPECT_EQ(Reg.counters().at("a.count"), 4u);
  EXPECT_EQ(Reg.metricCount(), 3u);
}

TEST(StatsRegistryTest, ReferencesStayValidAcrossInsertions) {
  // The attach-once contract: consumers resolve a counter to uint64_t&
  // at attach time and increment it from the hot path; later metric
  // creation must not invalidate it.
  StatsRegistry Reg;
  uint64_t &Hot = Reg.counter("hot");
  Log2Histogram *Hist = &Reg.histogram("hist");
  for (int I = 0; I < 200; ++I)
    Reg.counter("filler." + std::to_string(I)) += 1;
  ++Hot;
  Hist->record(5);
  EXPECT_EQ(Reg.counters().at("hot"), 1u);
  EXPECT_EQ(Reg.histograms().at("hist").count(), 1u);
}

TEST(StatsRegistryTest, MergeAddsCountersMaxesGaugesMergesHistograms) {
  StatsRegistry A, B;
  A.counter("shared") = 10;
  B.counter("shared") = 32;
  B.counter("only_b") = 5;
  A.gauge("peak") = 100;
  B.gauge("peak") = 60;
  B.gauge("only_b_peak") = 9;
  A.histogram("h").record(4);
  B.histogram("h").record(1024);

  A.merge(B);
  EXPECT_EQ(A.counters().at("shared"), 42u);
  EXPECT_EQ(A.counters().at("only_b"), 5u);
  EXPECT_EQ(A.gauges().at("peak"), 100u); // Max, not sum.
  EXPECT_EQ(A.gauges().at("only_b_peak"), 9u);
  EXPECT_EQ(A.histograms().at("h").count(), 2u);
  EXPECT_EQ(A.histograms().at("h").min(), 4u);
  EXPECT_EQ(A.histograms().at("h").max(), 1024u);
}

namespace {

/// Deterministic per-task metric load for the jobs-invariance test: task
/// \p Index contributes values derived only from its index.
void fillTaskRegistry(StatsRegistry &Reg, size_t Index) {
  Rng R(0x5eed + Index);
  Reg.counter("events") += 100 + Index;
  Reg.gauge("peak_bytes") =
      (Index * 7919) % 1000; // Different per task; merge takes the max.
  Log2Histogram &H = Reg.histogram("sizes");
  for (int I = 0; I < 500; ++I)
    H.record(R.nextBelow(1 << 20));
}

/// Runs \p TaskCount metric-producing tasks on a pool of \p Jobs threads
/// and merges the per-task registries in task-index order.
StatsRegistry mergedAtJobCount(unsigned Jobs, size_t TaskCount) {
  ThreadPool Pool(Jobs);
  std::vector<StatsRegistry> PerTask(TaskCount);
  parallelForIndex(Pool, TaskCount,
                   [&](size_t Index) { fillTaskRegistry(PerTask[Index], Index); });
  StatsRegistry Merged;
  for (const StatsRegistry &Reg : PerTask)
    Merged.merge(Reg);
  return Merged;
}

} // namespace

TEST(StatsRegistryTest, MergedRegistriesIdenticalAtAnyJobCount) {
  // The no-lock design's central claim: each worker owns a registry, and
  // merging them at the join point in task-index order gives bit-identical
  // results no matter how many threads executed the tasks.
  const size_t TaskCount = 16;
  StatsRegistry Serial = mergedAtJobCount(1, TaskCount);
  StatsRegistry TwoJobs = mergedAtJobCount(2, TaskCount);
  StatsRegistry EightJobs = mergedAtJobCount(8, TaskCount);
  EXPECT_TRUE(Serial == TwoJobs);
  EXPECT_TRUE(Serial == EightJobs);
  EXPECT_EQ(Serial.counters().at("events"),
            100u * TaskCount + TaskCount * (TaskCount - 1) / 2);
}

TEST(StatsRegistryTest, WriteJsonIsValidAndComplete) {
  StatsRegistry Reg;
  Reg.counter("ff.allocs") = 12;
  Reg.counter("ff.frees") = 11;
  Reg.gauge("ff.max_heap") = 4096;
  Log2Histogram &H = Reg.histogram("ff.scan_len");
  H.record(0);
  H.record(3);
  H.record(3);

  std::string Out;
  Reg.writeJson(Out, "  ");
  std::optional<JsonValue> Doc = parseJson(Out);
  ASSERT_TRUE(Doc.has_value()) << Out;

  const JsonValue *Counters = Doc->find("counters");
  ASSERT_TRUE(Counters && Counters->isObject());
  EXPECT_DOUBLE_EQ(Counters->numberOr("ff.allocs", -1), 12.0);
  EXPECT_DOUBLE_EQ(Counters->numberOr("ff.frees", -1), 11.0);

  const JsonValue *Gauges = Doc->find("gauges");
  ASSERT_TRUE(Gauges && Gauges->isObject());
  EXPECT_DOUBLE_EQ(Gauges->numberOr("ff.max_heap", -1), 4096.0);

  const JsonValue *Histograms = Doc->find("histograms");
  ASSERT_TRUE(Histograms && Histograms->isObject());
  const JsonValue *Hist = Histograms->find("ff.scan_len");
  ASSERT_TRUE(Hist && Hist->isObject());
  EXPECT_DOUBLE_EQ(Hist->numberOr("count", -1), 3.0);
  EXPECT_DOUBLE_EQ(Hist->numberOr("sum", -1), 6.0);
  EXPECT_DOUBLE_EQ(Hist->numberOr("min", -1), 0.0);
  EXPECT_DOUBLE_EQ(Hist->numberOr("max", -1), 3.0);
  // Buckets are sparse [low, count] rows whose counts sum to the total.
  const JsonValue *Buckets = Hist->find("buckets");
  ASSERT_TRUE(Buckets && Buckets->isArray());
  double BucketTotal = 0;
  for (const JsonValue &Row : Buckets->array()) {
    ASSERT_TRUE(Row.isArray());
    ASSERT_EQ(Row.array().size(), 2u);
    BucketTotal += Row.array()[1].number();
  }
  EXPECT_DOUBLE_EQ(BucketTotal, 3.0);
}

TEST(StatsRegistryTest, HistogramJsonEmitsQuantileSummaries) {
  // 50 values in [2,3], 40 in [64,127], 10 in [4096,8191]: the p50/p90/p99
  // lower bounds are the respective bucket floors — integers a baseline
  // can gate at exact tolerance.
  StatsRegistry Reg;
  Log2Histogram &H = Reg.histogram("lat");
  for (int I = 0; I < 50; ++I)
    H.record(3);
  for (int I = 0; I < 40; ++I)
    H.record(100);
  for (int I = 0; I < 10; ++I)
    H.record(5000);

  std::string Out;
  Reg.writeJson(Out, "  ");
  std::optional<JsonValue> Doc = parseJson(Out);
  ASSERT_TRUE(Doc.has_value()) << Out;
  const JsonValue *Hist = Doc->find("histograms")->find("lat");
  ASSERT_TRUE(Hist && Hist->isObject());
  EXPECT_DOUBLE_EQ(Hist->numberOr("p50", -1), 2.0);
  EXPECT_DOUBLE_EQ(Hist->numberOr("p90", -1), 64.0);
  EXPECT_DOUBLE_EQ(Hist->numberOr("p99", -1), 4096.0);
}

//===----------------------------------------------------------------------===//
// TraceEventWriter
//===----------------------------------------------------------------------===//

namespace {

/// A clock that returns 10, 20, 30, ... so golden output is deterministic.
TraceEventWriter::ClockFn tickingClock() {
  auto Next = std::make_shared<std::atomic<uint64_t>>(0);
  return [Next]() -> uint64_t { return Next->fetch_add(10) + 10; };
}

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + Name;
}

} // namespace

TEST(TraceEventWriterTest, GoldenJson) {
  TraceEventWriter Writer(tempPath("golden_trace.json"), tickingClock());
  Writer.beginSpan("train", "sim");
  Writer.instant("mark", "sim");
  Writer.endSpan();
  EXPECT_EQ(Writer.eventCount(), 3u);
  EXPECT_EQ(Writer.toJson(),
            "{\"traceEvents\": [\n"
            "  {\"ph\": \"B\", \"name\": \"train\", \"cat\": \"sim\", "
            "\"pid\": 1, \"tid\": 0, \"ts\": 10},\n"
            "  {\"ph\": \"i\", \"name\": \"mark\", \"cat\": \"sim\", "
            "\"s\": \"t\", \"pid\": 1, \"tid\": 0, \"ts\": 20},\n"
            "  {\"ph\": \"E\", \"pid\": 1, \"tid\": 0, \"ts\": 30}\n"
            "], \"displayTimeUnit\": \"ms\"}\n");
}

TEST(TraceEventWriterTest, EmptyWriterStillEmitsValidJson) {
  TraceEventWriter Writer(tempPath("empty_trace.json"), tickingClock());
  std::string Json = Writer.toJson();
  std::optional<JsonValue> Doc = parseJson(Json);
  ASSERT_TRUE(Doc.has_value()) << Json;
  const JsonValue *Events = Doc->find("traceEvents");
  ASSERT_TRUE(Events && Events->isArray());
  EXPECT_TRUE(Events->array().empty());
}

TEST(TraceEventWriterTest, OpenSpansAutoCloseAtSerialization) {
  TraceEventWriter Writer(tempPath("open_trace.json"), tickingClock());
  Writer.beginSpan("outer"); // ts 10
  Writer.beginSpan("inner"); // ts 20
  std::string Json = Writer.toJson(); // Now = 30; both spans closed there.
  std::optional<JsonValue> Doc = parseJson(Json);
  ASSERT_TRUE(Doc.has_value()) << Json;
  const JsonValue *Events = Doc->find("traceEvents");
  ASSERT_TRUE(Events && Events->isArray());
  ASSERT_EQ(Events->array().size(), 4u);
  for (size_t I : {size_t(2), size_t(3)}) {
    const JsonValue &E = Events->array()[I];
    EXPECT_EQ(E.find("ph")->string(), "E");
    EXPECT_DOUBLE_EQ(E.numberOr("ts", -1), 30.0);
  }
}

TEST(TraceEventWriterTest, UnbalancedEndSpanIsDropped) {
  TraceEventWriter Writer(tempPath("unbalanced_trace.json"), tickingClock());
  Writer.endSpan(); // No open span: must not record an orphan "E".
  EXPECT_EQ(Writer.eventCount(), 0u);
  Writer.beginSpan("x");
  Writer.endSpan();
  Writer.endSpan(); // Extra end, dropped again.
  EXPECT_EQ(Writer.eventCount(), 2u);
}

TEST(TraceEventWriterTest, SpansNestPerThread) {
  TraceEventWriter Writer(tempPath("mt_trace.json"), tickingClock());
  const unsigned ThreadCount = 4;
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < ThreadCount; ++I)
    Threads.emplace_back([&Writer] {
      Writer.beginSpan("outer", "replay");
      Writer.instant("tick", "replay");
      Writer.beginSpan("inner", "replay");
      Writer.endSpan();
      Writer.endSpan();
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Writer.eventCount(), ThreadCount * 5u);

  std::optional<JsonValue> Doc = parseJson(Writer.toJson());
  ASSERT_TRUE(Doc.has_value());
  const JsonValue *Events = Doc->find("traceEvents");
  ASSERT_TRUE(Events && Events->isArray());

  // Per tid, "B"/"E" events must be well nested: depth never goes
  // negative and every span is closed by the end.
  std::map<unsigned, int> Depth;
  for (const JsonValue &E : Events->array()) {
    unsigned Tid = static_cast<unsigned>(E.numberOr("tid", 999));
    const std::string &Phase = E.find("ph")->string();
    if (Phase == "B")
      ++Depth[Tid];
    else if (Phase == "E") {
      --Depth[Tid];
      EXPECT_GE(Depth[Tid], 0) << "unbalanced E on tid " << Tid;
    }
  }
  EXPECT_EQ(Depth.size(), size_t(ThreadCount)); // Distinct tid per thread.
  for (const auto &[Tid, D] : Depth)
    EXPECT_EQ(D, 0) << "span left open on tid " << Tid;
}

TEST(TraceEventWriterTest, CloseWritesParseableFileOnce) {
  std::string Path = tempPath("closed_trace.json");
  {
    TraceEventWriter Writer(Path, tickingClock());
    TraceSpan Span(&Writer, "phase");
    { TraceSpan Inner(&Writer, "step", "replay"); }
    // Destructor closes the writer and writes the file.
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  std::optional<JsonValue> Doc = parseJson(Buffer.str());
  ASSERT_TRUE(Doc.has_value());
  const JsonValue *Events = Doc->find("traceEvents");
  ASSERT_TRUE(Events && Events->isArray());
  EXPECT_EQ(Events->array().size(), 4u);
  EXPECT_EQ(Doc->find("displayTimeUnit")->string(), "ms");
}

TEST(TraceEventWriterTest, CompleteAndInstantAtUseExplicitTimestamps) {
  // The arena-occupancy exporter emits 'X' complete events and instants
  // with caller-supplied byte-clock timestamps on synthetic tracks — no
  // wall clock, no per-thread span stack.
  TraceEventWriter Writer(tempPath("complete_trace.json"), tickingClock());
  Writer.complete("fill", "arena", 100, 500, 250);
  Writer.instantAt("reset", "arena", 100, 750);
  EXPECT_EQ(Writer.eventCount(), 2u);

  std::optional<JsonValue> Doc = parseJson(Writer.toJson());
  ASSERT_TRUE(Doc.has_value());
  const JsonValue *Events = Doc->find("traceEvents");
  ASSERT_TRUE(Events && Events->isArray());
  ASSERT_EQ(Events->array().size(), 2u);
  const JsonValue &Complete = Events->array()[0];
  EXPECT_EQ(Complete.find("ph")->string(), "X");
  EXPECT_DOUBLE_EQ(Complete.numberOr("ts", -1), 500.0);
  EXPECT_DOUBLE_EQ(Complete.numberOr("dur", -1), 250.0);
  EXPECT_DOUBLE_EQ(Complete.numberOr("tid", -1), 100.0);
  const JsonValue &Instant = Events->array()[1];
  EXPECT_EQ(Instant.find("ph")->string(), "i");
  EXPECT_DOUBLE_EQ(Instant.numberOr("ts", -1), 750.0);
  EXPECT_DOUBLE_EQ(Instant.numberOr("tid", -1), 100.0);
}

TEST(TraceEventWriterTest, NullTraceSpanIsNoOp) {
  // Instrumented code paths pass nullptr when tracing is off; the RAII
  // guard must be inert.
  TraceSpan Span(nullptr, "ignored");
  TraceSpan Inner(nullptr, "also-ignored", "replay");
}

//===----------------------------------------------------------------------===//
// Json parser
//===----------------------------------------------------------------------===//

TEST(JsonTest, ParsesScalarsAndStructures) {
  std::optional<JsonValue> Doc = parseJson(
      " {\"a\": 1.5, \"b\": \"x\\ny\", \"c\": [1, -2e2, true, null], "
      "\"d\": {\"e\": -3}, \"u\": \"\\u0041\"} ");
  ASSERT_TRUE(Doc.has_value());
  ASSERT_TRUE(Doc->isObject());
  EXPECT_DOUBLE_EQ(Doc->numberOr("a", 0), 1.5);
  EXPECT_EQ(Doc->find("b")->string(), "x\ny");
  const JsonValue *C = Doc->find("c");
  ASSERT_TRUE(C && C->isArray());
  ASSERT_EQ(C->array().size(), 4u);
  EXPECT_DOUBLE_EQ(C->array()[0].number(), 1.0);
  EXPECT_DOUBLE_EQ(C->array()[1].number(), -200.0);
  EXPECT_TRUE(C->array()[2].boolean());
  EXPECT_EQ(C->array()[3].kind(), JsonValue::Kind::Null);
  EXPECT_DOUBLE_EQ(Doc->find("d")->numberOr("e", 0), -3.0);
  EXPECT_EQ(Doc->find("u")->string(), "A");
  EXPECT_EQ(Doc->find("missing"), nullptr);
  EXPECT_DOUBLE_EQ(Doc->numberOr("missing", 7.0), 7.0);
}

TEST(JsonTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(parseJson("").has_value());
  EXPECT_FALSE(parseJson("{").has_value());
  EXPECT_FALSE(parseJson("{\"a\":}").has_value());
  EXPECT_FALSE(parseJson("[1, 2,]").has_value());
  EXPECT_FALSE(parseJson("\"unterminated").has_value());
  EXPECT_FALSE(parseJson("{} trailing").has_value());
  EXPECT_FALSE(parseJson("{\"a\": 1} {\"b\": 2}").has_value());
}

TEST(JsonTest, EscapingRoundTrips) {
  std::string Out;
  appendJsonEscaped(Out, "a\"b\\c\nd\te\x01"
                         "f");
  EXPECT_EQ(Out, "a\\\"b\\\\c\\nd\\te\\u0001f");
  std::optional<JsonValue> Doc = parseJson("\"" + Out + "\"");
  ASSERT_TRUE(Doc.has_value());
  EXPECT_EQ(Doc->string(), "a\"b\\c\nd\te\x01"
                           "f");
}

//===----------------------------------------------------------------------===//
// ReportDiff
//===----------------------------------------------------------------------===//

namespace {

/// A minimal schema-v2 report with one value of each metric class.
std::string makeReport(double Events, double WallSeconds, double MaxHeap,
                       double CounterX, const std::string &GitSha = "abc123") {
  std::ostringstream Out;
  Out << "{\n  \"schema_version\": 2,\n  \"bench\": \"unit\",\n"
      << "  \"manifest\": {\"git_sha\": \"" << GitSha
      << "\", \"jobs\": 1},\n"
      << "  \"events\": " << Events << ",\n  \"wall_seconds\": "
      << WallSeconds << ",\n  \"events_per_sec\": "
      << (WallSeconds > 0 ? Events / WallSeconds : 0) << ",\n"
      << "  \"values\": {\"max_heap\": " << MaxHeap << "},\n"
      << "  \"telemetry\": {\"counters\": {\"x\": " << CounterX
      << "}, \"gauges\": {},\n"
      << "  \"histograms\": {\"h\": {\"count\": 4, \"sum\": 10}}}\n}\n";
  return Out.str();
}

JsonValue parsed(const std::string &Text) {
  std::optional<JsonValue> Doc = parseJson(Text);
  EXPECT_TRUE(Doc.has_value());
  return Doc ? *Doc : JsonValue::makeNull();
}

} // namespace

TEST(ReportDiffTest, IdenticalReportsAreOk) {
  JsonValue Report = parsed(makeReport(1000, 2.0, 4096, 17));
  DiffResult Result = diffReports(Report, Report);
  EXPECT_TRUE(Result.ok());
  EXPECT_TRUE(Result.Drifted.empty());
  EXPECT_TRUE(Result.MissingInNew.empty());
  EXPECT_TRUE(Result.Notes.empty());
  // Value metrics compared: events, values.max_heap, counters.x, and the
  // histogram's count and sum.  Timing metrics are skipped by default.
  EXPECT_EQ(Result.Compared, 5u);
}

TEST(ReportDiffTest, ValueDriftIsRegression) {
  JsonValue Old = parsed(makeReport(1000, 2.0, 4096, 17));
  JsonValue New = parsed(makeReport(1000, 2.0, 4096, 18));
  DiffResult Result = diffReports(Old, New);
  EXPECT_FALSE(Result.ok());
  ASSERT_EQ(Result.Drifted.size(), 1u);
  EXPECT_EQ(Result.Drifted[0].Key, "telemetry.counters.x");
  EXPECT_FALSE(Result.Drifted[0].Timing);
  // A generous tolerance admits the same drift.
  DiffOptions Loose;
  Loose.ValueTolerance = 0.10;
  EXPECT_TRUE(diffReports(Old, New, Loose).ok());
}

TEST(ReportDiffTest, TimingDriftIgnoredUnlessOptedIn) {
  JsonValue Old = parsed(makeReport(1000, 2.0, 4096, 17));
  JsonValue New = parsed(makeReport(1000, 4.0, 4096, 17)); // 2x slower.
  EXPECT_TRUE(diffReports(Old, New).ok());
  DiffOptions WithTime;
  WithTime.TimeTolerance = 0.25;
  DiffResult Result = diffReports(Old, New, WithTime);
  EXPECT_FALSE(Result.ok());
  for (const MetricDrift &Drift : Result.Drifted)
    EXPECT_TRUE(Drift.Timing) << Drift.Key;
}

TEST(ReportDiffTest, MissingMetricIsRegressionNewMetricIsNot) {
  JsonValue Old = parsed(makeReport(1000, 2.0, 4096, 17));
  // New report dropped counter x but gained counter y.
  JsonValue New = parsed(
      "{\"schema_version\": 2, \"events\": 1000, \"wall_seconds\": 2.0,"
      " \"events_per_sec\": 500, \"values\": {\"max_heap\": 4096},"
      " \"telemetry\": {\"counters\": {\"y\": 1}, \"gauges\": {},"
      " \"histograms\": {\"h\": {\"count\": 4, \"sum\": 10}}}}");
  DiffResult Result = diffReports(Old, New);
  EXPECT_FALSE(Result.ok());
  ASSERT_EQ(Result.MissingInNew.size(), 1u);
  EXPECT_EQ(Result.MissingInNew[0], "telemetry.counters.x");
  ASSERT_EQ(Result.OnlyInNew.size(), 1u);
  EXPECT_EQ(Result.OnlyInNew[0], "telemetry.counters.y");
}

TEST(ReportDiffTest, ManifestAndSchemaDifferencesAreNotesOnly) {
  JsonValue Old = parsed(makeReport(1000, 2.0, 4096, 17, "abc123"));
  JsonValue New = parsed(makeReport(1000, 2.0, 4096, 17, "def456"));
  DiffResult Result = diffReports(Old, New);
  EXPECT_TRUE(Result.ok()); // Provenance differs; metrics do not.
  ASSERT_EQ(Result.Notes.size(), 1u);
  EXPECT_NE(Result.Notes[0].find("manifest.git_sha"), std::string::npos);
}

TEST(ReportDiffTest, TimingMetricsMatchedByKey) {
  EXPECT_TRUE(isTimingMetric("wall_seconds"));
  EXPECT_TRUE(isTimingMetric("events_per_sec"));
  EXPECT_TRUE(isTimingMetric("values.speedup_vs_ff"));
  EXPECT_FALSE(isTimingMetric("events"));
  EXPECT_FALSE(isTimingMetric("telemetry.counters.arena.resets"));
}

TEST(ReportDiffTest, OnlineMetricsMatchedByKey) {
  EXPECT_TRUE(isOnlineMetric("telemetry.counters.online.arena_bytes"));
  EXPECT_TRUE(isOnlineMetric("values.GAWK.online.retrains"));
  EXPECT_TRUE(isOnlineMetric("values.GAWK.retrain.epochs"));
  EXPECT_FALSE(isOnlineMetric("values.GAWK.static.accuracy_pct"));
  EXPECT_FALSE(isOnlineMetric("wall_seconds"));
}

TEST(ReportDiffTest, OnlineKeysAreValueClassEvenUnderContentionNames) {
  // Online-prediction metrics are deterministic by contract: a drifted
  // online.* counter is a regression at the strict value tolerance even
  // when the key would otherwise match a contention substring, while a
  // latency key inside the family stays in the (default-ignored) timing
  // class.
  auto report = [](double Depth, double Latency) {
    std::ostringstream Out;
    Out << "{\"schema_version\": 2, \"events\": 10, \"wall_seconds\": 1.0,"
        << " \"events_per_sec\": 10, \"values\": {},"
        << " \"telemetry\": {\"counters\": {\"online.queue_depth\": " << Depth
        << ", \"online.window_latency_p99\": " << Latency
        << "}, \"gauges\": {}, \"histograms\": {}}}";
    return Out.str();
  };
  JsonValue Old = parsed(report(8, 100));
  JsonValue DepthDrift = parsed(report(9, 100));
  DiffResult Result = diffReports(Old, DepthDrift);
  EXPECT_FALSE(Result.ok());
  ASSERT_EQ(Result.Drifted.size(), 1u);
  EXPECT_EQ(Result.Drifted[0].Key, "telemetry.counters.online.queue_depth");
  EXPECT_FALSE(Result.Drifted[0].Timing);

  // A plain contention key with the same drift is not compared at all.
  JsonValue OldPlain = parsed(
      "{\"schema_version\": 2, \"events\": 10, \"wall_seconds\": 1.0,"
      " \"events_per_sec\": 10, \"values\": {},"
      " \"telemetry\": {\"counters\": {\"serving.queue_depth\": 8},"
      " \"gauges\": {}, \"histograms\": {}}}");
  JsonValue NewPlain = parsed(
      "{\"schema_version\": 2, \"events\": 10, \"wall_seconds\": 1.0,"
      " \"events_per_sec\": 10, \"values\": {},"
      " \"telemetry\": {\"counters\": {\"serving.queue_depth\": 9},"
      " \"gauges\": {}, \"histograms\": {}}}");
  EXPECT_TRUE(diffReports(OldPlain, NewPlain).ok());

  // Latency drift inside the online family: timing class, ignored by
  // default, flagged as Timing when opted in.
  JsonValue LatencyDrift = parsed(report(8, 200));
  EXPECT_TRUE(diffReports(Old, LatencyDrift).ok());
  DiffOptions WithTime;
  WithTime.TimeTolerance = 0.25;
  DiffResult Timed = diffReports(Old, LatencyDrift, WithTime);
  EXPECT_FALSE(Timed.ok());
  ASSERT_EQ(Timed.Drifted.size(), 1u);
  EXPECT_TRUE(Timed.Drifted[0].Timing);
}

TEST(ReportDiffTest, GlobMatchSemantics) {
  // Literals (dots included) match only themselves, over the whole text.
  EXPECT_TRUE(globMatch("abc", "abc"));
  EXPECT_FALSE(globMatch("abc", "abd"));
  EXPECT_FALSE(globMatch("abc", "ab"));
  EXPECT_FALSE(globMatch("abc", "abcd"));
  EXPECT_TRUE(globMatch("a.c", "a.c"));
  EXPECT_FALSE(globMatch("a.c", "axc")); // '.' is not a wildcard.
  EXPECT_TRUE(globMatch("", ""));
  EXPECT_FALSE(globMatch("", "a"));

  // '?' matches exactly one character.
  EXPECT_TRUE(globMatch("a?c", "abc"));
  EXPECT_FALSE(globMatch("a?c", "ac"));
  EXPECT_FALSE(globMatch("?", ""));

  // '*' matches any run, including the empty one, with backtracking.
  EXPECT_TRUE(globMatch("*", ""));
  EXPECT_TRUE(globMatch("*", "anything"));
  EXPECT_TRUE(globMatch("a*", "a"));
  EXPECT_TRUE(globMatch("a*", "abc"));
  EXPECT_FALSE(globMatch("a*", "ba"));
  EXPECT_TRUE(globMatch("*c", "abc"));
  EXPECT_TRUE(globMatch("a*c", "ac"));
  EXPECT_TRUE(globMatch("a*b*c", "a.x.b.y.c"));
  EXPECT_FALSE(globMatch("a*b*c", "a.x.b.y"));
  EXPECT_TRUE(globMatch("*ab", "aab"));
  EXPECT_TRUE(globMatch("a*ab", "aab"));

  // The intended use: metric-key prefixes.
  EXPECT_TRUE(globMatch("telemetry.counters.audit.*",
                        "telemetry.counters.audit.CFRAC.wasted_bytes"));
  EXPECT_FALSE(globMatch("telemetry.counters.audit.*",
                         "telemetry.gauges.audit.top1.site"));
}

TEST(ReportDiffTest, IgnoreGlobsExcludeMetricsEntirely) {
  JsonValue Old = parsed(makeReport(1000, 2.0, 4096, 17));
  JsonValue New = parsed(makeReport(1000, 2.0, 4096, 18));

  // The drifted counter is excluded, counted as ignored, and no longer
  // compared.
  DiffOptions Ignore;
  Ignore.IgnoreGlobs = {"telemetry.counters.*"};
  DiffResult Result = diffReports(Old, New, Ignore);
  EXPECT_TRUE(Result.ok());
  EXPECT_EQ(Result.Ignored, 1u);
  EXPECT_EQ(Result.Compared, 4u); // One fewer than the unignored diff.

  // Ignoring an unrelated class still catches the drift.
  DiffOptions Unrelated;
  Unrelated.IgnoreGlobs = {"values.*"};
  EXPECT_FALSE(diffReports(Old, New, Unrelated).ok());

  // Ignored keys are exempt from the missing-metric regression too: a
  // report that dropped counter x and gained counter y diffs clean when
  // both are ignored.
  JsonValue Renamed = parsed(
      "{\"schema_version\": 2, \"events\": 1000, \"wall_seconds\": 2.0,"
      " \"events_per_sec\": 500, \"values\": {\"max_heap\": 4096},"
      " \"telemetry\": {\"counters\": {\"y\": 1}, \"gauges\": {},"
      " \"histograms\": {\"h\": {\"count\": 4, \"sum\": 10}}}}");
  DiffOptions IgnoreBoth;
  IgnoreBoth.IgnoreGlobs = {"telemetry.counters.?"};
  DiffResult RenameResult = diffReports(Old, Renamed, IgnoreBoth);
  EXPECT_TRUE(RenameResult.ok());
  EXPECT_TRUE(RenameResult.MissingInNew.empty());
  EXPECT_TRUE(RenameResult.OnlyInNew.empty());
}

TEST(ReportDiffTest, RunBenchCompareIgnoreFlag) {
  std::string OldPath = tempPath("ignore_old.json");
  std::string DriftPath = tempPath("ignore_drift.json");
  { std::ofstream(OldPath) << makeReport(1000, 2.0, 4096, 17); }
  { std::ofstream(DriftPath) << makeReport(1000, 2.0, 4096, 18); }

  EXPECT_EQ(runBenchCompare({OldPath, DriftPath, "--quiet"}), 1);
  EXPECT_EQ(runBenchCompare({OldPath, DriftPath,
                             "--ignore=telemetry.counters.*", "--quiet"}),
            0);
  // A glob that matches nothing changes nothing.
  EXPECT_EQ(runBenchCompare({OldPath, DriftPath, "--ignore=nope.*",
                             "--quiet"}),
            1);
}

TEST(ReportDiffTest, RunBenchCompareExitSemantics) {
  std::string OldPath = tempPath("report_old.json");
  std::string SamePath = tempPath("report_same.json");
  std::string DriftPath = tempPath("report_drift.json");
  { std::ofstream(OldPath) << makeReport(1000, 2.0, 4096, 17); }
  { std::ofstream(SamePath) << makeReport(1000, 2.5, 4096, 17); }
  { std::ofstream(DriftPath) << makeReport(1000, 2.0, 4100, 17); }

  EXPECT_EQ(runBenchCompare({OldPath, SamePath, "--quiet"}), 0);
  EXPECT_EQ(runBenchCompare({OldPath, DriftPath, "--quiet"}), 1);
  // Drift within an explicit tolerance passes.
  EXPECT_EQ(runBenchCompare({OldPath, DriftPath, "--tol=0.01", "--quiet"}),
            0);
  // Usage and IO errors are exit 2, distinct from regressions.
  EXPECT_EQ(runBenchCompare({OldPath}), 2);
  EXPECT_EQ(runBenchCompare({OldPath, SamePath, "--bogus"}), 2);
  EXPECT_EQ(runBenchCompare({OldPath, tempPath("does_not_exist.json"),
                             "--quiet"}),
            2);
  // A tolerance must be a whole, finite, non-negative number: "abc" must
  // not become a silent 0 (an exact timing gate), nor "1e-9x" 1e-9.
  for (const char *Bad :
       {"--tol=abc", "--tol=1e-9x", "--tol=", "--tol=-1", "--tol=nan",
        "--time-tol=abc", "--time-tol=20x", "--time-tol=-0.5",
        "--time-tol=inf"})
    EXPECT_EQ(runBenchCompare({OldPath, SamePath, Bad, "--quiet"}), 2) << Bad;
  EXPECT_EQ(runBenchCompare({OldPath, SamePath, "--tol=1e-9",
                             "--time-tol=20.0", "--quiet"}),
            0);
}

//===----------------------------------------------------------------------===//
// HeapTimeline
//===----------------------------------------------------------------------===//

TEST(HeapTimelineTest, StrideGatesSampling) {
  HeapTimeline Zero(0);
  EXPECT_EQ(Zero.stride(), 1u); // Stride 0 clamps to 1.

  HeapTimeline T(100);
  EXPECT_TRUE(T.due(0)); // First sample triggers immediately.
  T.record({0, 10, 10, 0, 1});
  EXPECT_FALSE(T.due(99));
  EXPECT_TRUE(T.due(100));
  // A burst past several boundaries records once and skips the missed
  // boundaries instead of back-filling.
  T.record({250, 20, 20, 0, 1});
  EXPECT_FALSE(T.due(299));
  EXPECT_TRUE(T.due(300));
  EXPECT_EQ(T.samples().size(), 2u);
}

TEST(HeapTimelineTest, FragmentationPercent) {
  EXPECT_DOUBLE_EQ((HeapSample{0, 1000, 750, 0, 0}).fragmentationPercent(),
                   25.0);
  EXPECT_DOUBLE_EQ((HeapSample{0, 0, 0, 0, 0}).fragmentationPercent(), 0.0);
  // Live above heap (cannot happen, but must not underflow) clamps to 0.
  EXPECT_DOUBLE_EQ((HeapSample{0, 100, 200, 0, 0}).fragmentationPercent(),
                   0.0);
}

TEST(HeapTimelineTest, ExportAndJson) {
  HeapTimeline T(10);
  T.record({0, 100, 80, 0, 2});
  T.record({10, 200, 100, 0, 5});
  T.record({20, 400, 100, 50, 3});

  StatsRegistry Reg;
  T.exportTelemetry(Reg, "timeline.");
  EXPECT_EQ(Reg.gauges().at("timeline.samples"), 3u);
  EXPECT_EQ(Reg.gauges().at("timeline.peak_free_blocks"), 5u);
  // Peak fragmentation is sample 3's (400-100)/400 = 75%.
  EXPECT_EQ(Reg.gauges().at("timeline.peak_frag_pct"), 75u);

  std::string Out;
  T.writeJson(Out, "  ");
  std::optional<JsonValue> Doc = parseJson(Out);
  ASSERT_TRUE(Doc.has_value()) << Out;
  EXPECT_DOUBLE_EQ(Doc->numberOr("stride_bytes", 0), 10.0);
  const JsonValue *Columns = Doc->find("columns");
  ASSERT_TRUE(Columns && Columns->isArray());
  EXPECT_EQ(Columns->array().size(), 6u);
  const JsonValue *Samples = Doc->find("samples");
  ASSERT_TRUE(Samples && Samples->isArray());
  ASSERT_EQ(Samples->array().size(), 3u);
  for (const JsonValue &Row : Samples->array()) {
    ASSERT_TRUE(Row.isArray());
    EXPECT_EQ(Row.array().size(), Columns->array().size());
  }
  EXPECT_DOUBLE_EQ(Samples->array()[1].array()[1].number(), 200.0);
}

//===----------------------------------------------------------------------===//
// SimTelemetry and simulator export
//===----------------------------------------------------------------------===//

namespace {

/// The distinct chain indices among \p T's records, counted by set.
uint64_t distinctChains(const AllocationTrace &T) {
  std::set<uint32_t> Chains;
  for (const AllocRecord &Record : T.records())
    Chains.insert(Record.ChainIndex);
  return Chains.size();
}

/// A trace of mostly short-lived objects from one site plus rare
/// long-lived ones from another (sim_test's shape).
AllocationTrace churnTrace(uint64_t Seed, size_t Objects) {
  AllocationTrace T;
  Rng R(Seed);
  uint32_t ShortChain = T.internChain(CallChain{1, 2});
  uint32_t LongChain = T.internChain(CallChain{1, 3});
  for (size_t I = 0; I < Objects; ++I) {
    if (R.nextBool(0.95))
      T.append({static_cast<uint64_t>(R.nextInRange(8, 2000)), 32,
                ShortChain, 1});
    else
      T.append({static_cast<uint64_t>(R.nextInRange(100000, 400000)), 64,
                LongChain, 1});
  }
  return T;
}

} // namespace

TEST(SimTelemetryTest, PredictionCountsClassifyAndExport) {
  PredictionCounts C;
  C.add(true, true);   // True short.
  C.add(true, true);
  C.add(true, false);  // False short.
  C.add(false, true);  // Missed short.
  C.add(false, false); // True long.
  EXPECT_EQ(C.TrueShort, 2u);
  EXPECT_EQ(C.FalseShort, 1u);
  EXPECT_EQ(C.MissedShort, 1u);
  EXPECT_EQ(C.TrueLong, 1u);
  EXPECT_EQ(C.total(), 5u);
  EXPECT_DOUBLE_EQ(C.accuracyPercent(), 60.0);
  EXPECT_DOUBLE_EQ(PredictionCounts().accuracyPercent(), 0.0);

  StatsRegistry Reg;
  C.exportTelemetry(Reg, "pred.");
  EXPECT_EQ(Reg.counters().at("pred.true_short"), 2u);
  EXPECT_EQ(Reg.counters().at("pred.false_short"), 1u);
  EXPECT_EQ(Reg.counters().at("pred.missed_short"), 1u);
  EXPECT_EQ(Reg.counters().at("pred.true_long"), 1u);
}

TEST(SimTelemetryTest, FirstFitExportMatchesSimResult) {
  AllocationTrace T = churnTrace(21, 20000);
  StatsRegistry Reg;
  HeapTimeline Timeline(64 * 1024);
  SimTelemetry Tel;
  Tel.Registry = &Reg;
  Tel.Timeline = &Timeline;
  CompiledTrace Compiled(T);
  BaselineSimResult R = simulateFirstFit(Compiled, {}, {}, &Tel);

  EXPECT_EQ(Reg.counters().at("firstfit.allocs"), R.FirstFit.Allocs);
  EXPECT_EQ(Reg.counters().at("firstfit.frees"), R.FirstFit.Frees);
  EXPECT_EQ(Reg.counters().at("firstfit.search_steps"),
            R.FirstFit.SearchSteps);
  EXPECT_EQ(Reg.gauges().at("firstfit.max_heap_bytes"), R.MaxHeapBytes);
  // Every allocation records one scan-length sample.
  EXPECT_EQ(Reg.histograms().at("firstfit.scan_len").count(),
            R.FirstFit.Allocs);
  EXPECT_EQ(Reg.histograms().at("firstfit.scan_len").sum(),
            R.FirstFit.SearchSteps);
  EXPECT_GT(Timeline.samples().size(), 1u);

  // Instrumentation must not perturb the simulation itself.
  BaselineSimResult Plain = simulateFirstFit(Compiled);
  EXPECT_EQ(Plain.MaxHeapBytes, R.MaxHeapBytes);
  EXPECT_EQ(Plain.MaxLiveBytes, R.MaxLiveBytes);
  EXPECT_TRUE(Plain.FirstFit == R.FirstFit);
}

TEST(SimTelemetryTest, BsdExportMatchesSimResult) {
  AllocationTrace T = churnTrace(22, 20000);
  StatsRegistry Reg;
  SimTelemetry Tel;
  Tel.Registry = &Reg;
  CompiledTrace Compiled(T);
  BaselineSimResult R = simulateBsd(Compiled, {}, {}, &Tel);

  EXPECT_EQ(Reg.counters().at("bsd.allocs"), R.Bsd.Allocs);
  EXPECT_EQ(Reg.counters().at("bsd.frees"), R.Bsd.Frees);
  EXPECT_EQ(Reg.counters().at("bsd.page_refills"), R.Bsd.PageRefills);
  // One size-class sample per allocation.
  EXPECT_EQ(Reg.histograms().at("bsd.class_bytes").count(), R.Bsd.Allocs);

  BaselineSimResult Plain = simulateBsd(Compiled);
  EXPECT_EQ(Plain.MaxHeapBytes, R.MaxHeapBytes);
  EXPECT_TRUE(Plain.Bsd == R.Bsd);
}

TEST(SimTelemetryTest, ArenaOutcomesCoverEveryAllocation) {
  AllocationTrace T = churnTrace(23, 30000);
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  SiteDatabase DB = trainDatabase(profileTrace(T, Policy), Policy);

  StatsRegistry Reg;
  SimTelemetry Tel;
  Tel.Registry = &Reg;
  CompiledTrace Compiled(T, DB.policy());
  ArenaSimResult R = simulateArena(Compiled, DB, 5.0, {}, {}, &Tel);

  // Every allocation event is classified exactly once.
  EXPECT_EQ(Tel.Outcomes.total(), uint64_t(T.size()));

  // Exported counters mirror the in-memory confusion matrix and the
  // simulator's own counters.
  EXPECT_EQ(Reg.counters().at("arena.pred.true_short"), Tel.Outcomes.TrueShort);
  EXPECT_EQ(Reg.counters().at("arena.pred.false_short"),
            Tel.Outcomes.FalseShort);
  // The sites gauge counts the trace's distinct chain indices.
  EXPECT_EQ(Reg.gauges().at("arena.pred.sites"), distinctChains(T));
  EXPECT_EQ(distinctChains(T), 2u); // churnTrace has two sites.
  EXPECT_EQ(Reg.counters().at("arena.arena_allocs"), R.Arena.ArenaAllocs);
  EXPECT_EQ(Reg.counters().at("arena.general_allocs"), R.Arena.GeneralAllocs);
  // The well-trained churn trace predicts nearly everything correctly.
  EXPECT_GT(Tel.Outcomes.accuracyPercent(), 90.0);

  ArenaSimResult Plain = simulateArena(Compiled, DB, 5.0);
  EXPECT_EQ(Plain.MaxHeapBytes, R.MaxHeapBytes);
  EXPECT_TRUE(Plain.Arena == R.Arena);
}

TEST(SimTelemetryTest, MultiArenaOutcomesCoverEveryAllocation) {
  AllocationTrace T = churnTrace(24, 30000);
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  ClassDatabase DB =
      trainClassDatabase(profileTrace(T, Policy), Policy, {4096, 32 * 1024});

  StatsRegistry Reg;
  SimTelemetry Tel;
  Tel.Registry = &Reg;
  CompiledTrace Compiled(T, DB.policy());
  MultiArenaSimResult R = simulateMultiArena(Compiled, DB, {}, &Tel);

  EXPECT_EQ(Tel.Outcomes.total(), uint64_t(T.size()));
  EXPECT_EQ(Reg.counters().at("multiarena.pred.true_short"),
            Tel.Outcomes.TrueShort);
  EXPECT_EQ(Reg.counters().at("multiarena.general_allocs"), R.GeneralAllocs);
  EXPECT_EQ(Reg.gauges().at("multiarena.pred.sites"), distinctChains(T));

  MultiArenaSimResult Plain = simulateMultiArena(Compiled, DB);
  EXPECT_EQ(Plain.MaxHeapBytes, R.MaxHeapBytes);
  EXPECT_EQ(Plain.GeneralAllocs, R.GeneralAllocs);
  EXPECT_EQ(Plain.GeneralBytes, R.GeneralBytes);
}

//===----------------------------------------------------------------------===//
// Log2Histogram edge cases (observatory satellite tests)
//===----------------------------------------------------------------------===//

TEST(Log2HistogramTest, OverflowBucketHoldsMaxValues) {
  // ~0 has 64 significant bits, so it lands in the last bucket, whose
  // lower bound is 2^63 — the quantile floor for any all-overflow stream.
  const unsigned Last = Log2Histogram::BucketCount - 1;
  EXPECT_EQ(Log2Histogram::bucketIndex(~uint64_t(0)), Last);
  EXPECT_EQ(Log2Histogram::bucketLow(Last), uint64_t(1) << 63);

  Log2Histogram H;
  H.record(~uint64_t(0));
  H.record(~uint64_t(0) - 1);
  EXPECT_EQ(H.bucketCount(Last), 2u);
  EXPECT_EQ(H.max(), ~uint64_t(0));
  EXPECT_EQ(H.quantileLowerBound(0.5), uint64_t(1) << 63);
  EXPECT_EQ(H.quantileLowerBound(1.0), uint64_t(1) << 63);
  // The sum saturates arithmetic concerns aside: two near-2^64 values wrap
  // modulo 2^64, which is fine — sum() is documentation, quantiles gate.
}

TEST(Log2HistogramTest, QuantileLowerBoundEdges) {
  Log2Histogram Empty;
  EXPECT_EQ(Empty.quantileLowerBound(0.5), 0u);

  // A single value: every phi (including the out-of-range ones, which
  // clamp) returns its bucket's lower bound.
  Log2Histogram One;
  One.record(5); // bucket index 3, bucket low 4.
  for (double Phi : {0.0, 0.001, 0.5, 1.0, 2.0})
    EXPECT_EQ(One.quantileLowerBound(Phi), 4u) << "phi=" << Phi;

  // Two buckets: the rank boundary lands exactly between them.
  Log2Histogram Two;
  Two.record(1);   // bucket 1, low 1.
  Two.record(100); // bucket 7, low 64.
  EXPECT_EQ(Two.quantileLowerBound(0.5), 1u);
  EXPECT_EQ(Two.quantileLowerBound(0.51), 64u);
  EXPECT_EQ(Two.quantileLowerBound(1.0), 64u);

  // Zero is its own bucket with lower bound 0.
  Log2Histogram Zero;
  Zero.record(0);
  EXPECT_EQ(Zero.quantileLowerBound(1.0), 0u);
  EXPECT_EQ(Zero.count(), 1u);
}

TEST(Log2HistogramTest, RecordManyMatchesRepeatedRecord) {
  Log2Histogram Bulk, Loop;
  Bulk.recordMany(24, 1000);
  Bulk.recordMany(8192, 3);
  Bulk.recordMany(7, 0); // No-op: zero count must not disturb min/max.
  for (int I = 0; I < 1000; ++I)
    Loop.record(24);
  for (int I = 0; I < 3; ++I)
    Loop.record(8192);
  EXPECT_EQ(Bulk, Loop);
  EXPECT_EQ(Bulk.count(), 1003u);
  EXPECT_EQ(Bulk.sum(), uint64_t(24) * 1000 + uint64_t(8192) * 3);
  EXPECT_EQ(Bulk.min(), 24u);
  EXPECT_EQ(Bulk.max(), 8192u);
}
