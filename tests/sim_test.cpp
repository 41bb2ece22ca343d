//===- tests/sim_test.cpp - Trace simulator tests --------------------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "sim/MultiArenaSimulator.h"
#include "sim/SimTelemetry.h"
#include "sim/StreamReplay.h"
#include "sim/TraceSimulator.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include "trace/CompiledTrace.h"
#include "trace/ScheduleFile.h"
#include "trace/TraceReplayer.h"
#include "workloads/Programs.h"
#include "workloads/WorkloadRunner.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <optional>

using namespace lifepred;

namespace {

/// A trace of short-lived objects from one site plus rare long-lived ones
/// from another.
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

TEST(SimTest, FirstFitBaselineProducesSaneMetrics) {
  AllocationTrace T = churnTrace(1, 20000);
  BaselineSimResult R = simulateFirstFit(CompiledTrace(T));
  EXPECT_GT(R.MaxHeapBytes, 0u);
  EXPECT_GE(R.MaxHeapBytes, R.MaxLiveBytes);
  EXPECT_EQ(R.FirstFit.Allocs, 20000u);
  EXPECT_EQ(R.FirstFit.Frees, 20000u);
  EXPECT_GT(R.Instr.Alloc, 0.0);
  EXPECT_GT(R.Instr.Free, 0.0);
}

TEST(SimTest, BsdBaselineFasterButFatterThanFirstFit) {
  AllocationTrace T = churnTrace(2, 20000);
  CompiledTrace Compiled(T);
  BaselineSimResult FF = simulateFirstFit(Compiled);
  BaselineSimResult Bsd = simulateBsd(Compiled);
  // The paper's Table 9 relationship: BSD free is far cheaper.
  EXPECT_LT(Bsd.Instr.Free, FF.Instr.Free);
  EXPECT_LT(Bsd.Instr.total(), FF.Instr.total());
}

TEST(SimTest, ArenaWithEmptyDatabaseDegeneratesToFirstFit) {
  // The paper: "the first-fit algorithm becomes the degenerate case of an
  // arena allocator that allocates no objects in arenas."
  AllocationTrace T = churnTrace(3, 20000);
  SiteDatabase Empty(SiteKeyPolicy::completeChain(), 32768);
  CompiledTrace Compiled(T, Empty.policy());
  ArenaSimResult Arena = simulateArena(Compiled, Empty, 5.0);
  BaselineSimResult FF = simulateFirstFit(Compiled);
  EXPECT_EQ(Arena.Arena.ArenaAllocs, 0u);
  EXPECT_EQ(Arena.Arena.GeneralAllocs, 20000u);
  // Identical general-heap behaviour, plus the 64 KB arena area.
  EXPECT_EQ(Arena.MaxHeapBytes, FF.MaxHeapBytes + 64 * 1024);
  EXPECT_EQ(Arena.General.SearchSteps, FF.FirstFit.SearchSteps);
}

TEST(SimTest, TrainedDatabaseSendsShortLivedToArenas) {
  AllocationTrace T = churnTrace(4, 40000);
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  SiteDatabase DB = trainDatabase(profileTrace(T, Policy), Policy);
  ArenaSimResult R = simulateArena(CompiledTrace(T, Policy), DB, 5.0);
  // ~95% of objects are short-lived and their site qualifies.
  EXPECT_GT(R.arenaAllocPercent(), 90.0);
  EXPECT_EQ(R.Arena.ArenaFrees, R.Arena.ArenaAllocs);
}

TEST(SimTest, ArenaCceCostExceedsLen4ForManyCallsPerAlloc) {
  AllocationTrace T = churnTrace(5, 20000);
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  SiteDatabase DB = trainDatabase(profileTrace(T, Policy), Policy);
  ArenaSimResult R =
      simulateArena(CompiledTrace(T, Policy), DB, /*CallsPerAlloc=*/20.0);
  EXPECT_GT(R.InstrCce.Alloc, R.InstrLen4.Alloc);
  EXPECT_DOUBLE_EQ(R.InstrCce.Free, R.InstrLen4.Free);
}

TEST(SimTest, SuccessfulPredictionBeatsFirstFitCpuCost) {
  // The paper's GAWK case: near-total prediction makes arena allocation
  // far cheaper than first fit.
  AllocationTrace T;
  uint32_t C = T.internChain(CallChain{1, 2});
  Rng R(6);
  for (int I = 0; I < 40000; ++I)
    T.append({static_cast<uint64_t>(R.nextInRange(8, 2000)), 32, C, 1});
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  SiteDatabase DB = trainDatabase(profileTrace(T, Policy), Policy);
  CompiledTrace Compiled(T, Policy);
  ArenaSimResult Arena = simulateArena(Compiled, DB, 5.0);
  BaselineSimResult FF = simulateFirstFit(Compiled);
  EXPECT_LT(Arena.InstrLen4.total(), FF.Instr.total());
  EXPECT_LT(Arena.InstrLen4.Free, 15.0); // Count decrement is cheap.
}

TEST(SimTest, PollutionDegradesArenaAllocation) {
  // The paper's CFRAC case: train a site as short-lived, then feed a test
  // trace where it allocates immortal objects.  The arenas fill with live
  // objects and the allocator degenerates.
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  AllocationTrace Train;
  uint32_t C = Train.internChain(CallChain{1, 2});
  Rng R(7);
  for (int I = 0; I < 20000; ++I)
    Train.append({static_cast<uint64_t>(R.nextInRange(8, 2000)), 32, C, 1});
  SiteDatabase DB = trainDatabase(profileTrace(Train, Policy), Policy);

  AllocationTrace Test;
  uint32_t C2 = Test.internChain(CallChain{1, 2});
  for (int I = 0; I < 20000; ++I) {
    bool Error = R.nextBool(0.05);
    Test.append({Error ? NeverFreed
                       : static_cast<uint64_t>(R.nextInRange(8, 2000)),
                 32, C2, 1});
  }
  ArenaSimResult Polluted =
      simulateArena(CompiledTrace(Test, Policy), DB, 5.0);
  EXPECT_GT(Polluted.Arena.FallbackAllocs, 10000u);
  EXPECT_LT(Polluted.arenaAllocPercent(), 20.0);
}

TEST(SimTest, HeapSizeReportedInGrowthGranularity) {
  AllocationTrace T = churnTrace(8, 5000);
  BaselineSimResult R = simulateFirstFit(CompiledTrace(T));
  EXPECT_EQ(R.MaxHeapBytes % 8192, 0u);
}

//===----------------------------------------------------------------------===//
// Differential tests: the compiled event schedule and the simulators built
// on it against the replayTrace reference oracle.
//===----------------------------------------------------------------------===//

namespace {

/// One oracle event, as replayTrace hands it to a consumer.
struct OracleEvent {
  bool Free;
  uint64_t Id;
  uint64_t Clock;

  bool operator==(const OracleEvent &Other) const = default;
};

/// Records the oracle's exact event stream.
class EventLogger : public TraceConsumer {
public:
  void onAlloc(uint64_t Id, const AllocRecord &, uint64_t Clock) override {
    Events.push_back({false, Id, Clock});
  }
  void onFree(uint64_t Id, const AllocRecord &, uint64_t Clock) override {
    Events.push_back({true, Id, Clock});
  }
  void onEnd(uint64_t Clock) override { EndClock = Clock; }

  std::vector<OracleEvent> Events;
  uint64_t EndClock = 0;
};

/// Asserts the compiled schedule of \p Trace is event-for-event identical
/// (tag, id, clock) to the replayTrace oracle.
void expectScheduleMatchesOracle(const AllocationTrace &Trace) {
  EventLogger Oracle;
  replayTrace(Trace, Oracle);
  EventSchedule Schedule(Trace);
  ASSERT_EQ(Schedule.size(), Oracle.Events.size());
  for (size_t E = 0; E < Schedule.size(); ++E) {
    const OracleEvent &Expected = Oracle.Events[E];
    ASSERT_EQ(Schedule.isFree(E), Expected.Free) << "event " << E;
    ASSERT_EQ(Schedule.objectId(E), Expected.Id) << "event " << E;
    ASSERT_EQ(Schedule.clock(E), Expected.Clock) << "event " << E;
  }
  EXPECT_EQ(Schedule.endClock(), Oracle.EndClock);
}

/// A fuzz trace: random sizes, heavy death-clock collisions (sizes and
/// lifetimes share small multiples so tie-break order matters), and a
/// sprinkling of never-freed objects.
AllocationTrace fuzzTrace(uint64_t Seed, size_t Objects) {
  AllocationTrace T;
  Rng R(Seed);
  uint32_t Chains[3] = {T.internChain(CallChain{1}),
                        T.internChain(CallChain{1, 2}),
                        T.internChain(CallChain{1, 2, 3})};
  for (size_t I = 0; I < Objects; ++I) {
    AllocRecord Record;
    Record.Size = static_cast<uint32_t>(16 * R.nextInRange(1, 8));
    Record.Lifetime = R.nextBool(0.1)
                          ? NeverFreed
                          : static_cast<uint64_t>(16 * R.nextInRange(0, 500));
    Record.ChainIndex = Chains[R.nextInRange(0, 2)];
    Record.Refs = 1;
    T.append(Record);
  }
  return T;
}

/// Oracle-driven baseline replay: the pre-compilation reference path,
/// calling the allocator in replayTrace's event order.
template <typename AllocatorT>
std::pair<uint64_t, uint64_t> oracleBaseline(const AllocationTrace &Trace,
                                             AllocatorT &Allocator) {
  class Consumer : public TraceConsumer {
  public:
    Consumer(AllocatorT &Allocator, size_t Objects) : Allocator(Allocator) {
      Addresses.resize(Objects);
    }
    void onAlloc(uint64_t Id, const AllocRecord &Record, uint64_t) override {
      Addresses[Id] = Allocator.allocate(Record.Size);
      raisePeak(MaxLive, Allocator.liveBytes());
    }
    void onFree(uint64_t Id, const AllocRecord &, uint64_t) override {
      Allocator.free(Addresses[Id]);
    }
    AllocatorT &Allocator;
    std::vector<uint64_t> Addresses;
    uint64_t MaxLive = 0;
  };
  Consumer C(Allocator, Trace.size());
  replayTrace(Trace, C);
  return {Allocator.maxHeapBytes(), C.MaxLive};
}

} // namespace

TEST(CompiledTraceTest, ScheduleMatchesOracleOnPaperWorkloads) {
  for (const ProgramModel &Model : allPrograms()) {
    SCOPED_TRACE(Model.Name);
    FunctionRegistry Registry;
    RunOptions Run;
    Run.Scale = 0.05;
    Run.Seed = 0x1993;
    Run.Kind = RunKind::Test;
    AllocationTrace Trace = runWorkload(Model, Run, Registry);
    expectScheduleMatchesOracle(Trace);
  }
}

TEST(CompiledTraceTest, ScheduleMatchesOracleOnFuzzTraces) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    SCOPED_TRACE(Seed);
    expectScheduleMatchesOracle(fuzzTrace(Seed, 4000));
  }
  // Degenerate shapes: empty, single never-freed, all dying at once.
  expectScheduleMatchesOracle(AllocationTrace());
  {
    AllocationTrace T;
    uint32_t C = T.internChain(CallChain{1});
    T.append({NeverFreed, 64, C, 1});
    expectScheduleMatchesOracle(T);
  }
  {
    AllocationTrace T;
    uint32_t C = T.internChain(CallChain{1});
    for (int I = 0; I < 100; ++I)
      T.append({0, 16, C, 1}); // Every object dies before the next birth.
    expectScheduleMatchesOracle(T);
  }
}

TEST(CompiledTraceTest, BaselineCountersMatchOracleReplay) {
  // flat-ff and bsd: the compiled simulators must make exactly the
  // allocator calls the oracle-driven replay makes.
  for (uint64_t Seed = 11; Seed <= 13; ++Seed) {
    SCOPED_TRACE(Seed);
    AllocationTrace T = fuzzTrace(Seed, 6000);
    CompiledTrace Compiled(T);

    FirstFitAllocator OracleFF;
    auto [FFHeap, FFLive] = oracleBaseline(T, OracleFF);
    BaselineSimResult FF = simulateFirstFit(Compiled);
    EXPECT_EQ(FF.FirstFit, OracleFF.counters());
    EXPECT_EQ(FF.MaxHeapBytes, FFHeap);
    EXPECT_EQ(FF.MaxLiveBytes, FFLive);

    BsdAllocator OracleBsd;
    auto [BsdHeap, BsdLive] = oracleBaseline(T, OracleBsd);
    BaselineSimResult Bsd = simulateBsd(Compiled);
    EXPECT_EQ(Bsd.Bsd, OracleBsd.counters());
    EXPECT_EQ(Bsd.MaxHeapBytes, BsdHeap);
    EXPECT_EQ(Bsd.MaxLiveBytes, BsdLive);
  }
}

TEST(CompiledTraceTest, ArenaCountersMatchOracleReplay) {
  // The arena simulator's pre-resolved PredictedShort bits against an
  // oracle replay that re-derives every site key and probes the database
  // per event — the path the compiled artifacts replaced.
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  for (uint64_t Seed = 21; Seed <= 23; ++Seed) {
    SCOPED_TRACE(Seed);
    AllocationTrace T = churnTrace(Seed, 20000);
    SiteDatabase DB = trainDatabase(profileTrace(T, Policy), Policy);

    class Consumer : public TraceConsumer {
    public:
      Consumer(ArenaAllocator &Allocator, const AllocationTrace &Trace,
               const SiteDatabase &DB, const SiteKeyPolicy &Policy)
          : Allocator(Allocator), Trace(Trace), DB(DB), Policy(Policy) {
        Addresses.resize(Trace.size());
      }
      void onAlloc(uint64_t Id, const AllocRecord &Record,
                   uint64_t) override {
        bool Predicted = DB.contains(siteKey(
            Policy, Trace.chain(Record.ChainIndex), Record.Size,
            Record.TypeId));
        Addresses[Id] = Allocator.allocate(Record.Size, Predicted);
      }
      void onFree(uint64_t Id, const AllocRecord &, uint64_t) override {
        Allocator.free(Addresses[Id]);
      }
      ArenaAllocator &Allocator;
      const AllocationTrace &Trace;
      const SiteDatabase &DB;
      const SiteKeyPolicy &Policy;
      std::vector<uint64_t> Addresses;
    };
    ArenaAllocator Oracle;
    Consumer C(Oracle, T, DB, Policy);
    replayTrace(T, C);

    ArenaSimResult R = simulateArena(CompiledTrace(T, Policy), DB, 5.0);
    EXPECT_EQ(R.Arena, Oracle.counters());
    EXPECT_EQ(R.MaxHeapBytes, Oracle.maxHeapBytes());
  }
}

TEST(CompiledTraceTest, MultiArenaCountersMatchOracleReplay) {
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  const std::vector<uint64_t> Thresholds = {16 * 1024, 32 * 1024};
  MultiArenaAllocator::Config Config;
  Config.Bands = {{32 * 1024, 8}, {32 * 1024, 8}};
  for (uint64_t Seed = 31; Seed <= 33; ++Seed) {
    SCOPED_TRACE(Seed);
    AllocationTrace T = churnTrace(Seed, 20000);
    ClassDatabase DB =
        trainClassDatabase(profileTrace(T, Policy), Policy, Thresholds);

    class Consumer : public TraceConsumer {
    public:
      Consumer(MultiArenaAllocator &Allocator, const AllocationTrace &Trace,
               const ClassDatabase &DB, const SiteKeyPolicy &Policy)
          : Allocator(Allocator), Trace(Trace), DB(DB), Policy(Policy) {
        Addresses.resize(Trace.size());
      }
      void onAlloc(uint64_t Id, const AllocRecord &Record,
                   uint64_t) override {
        LifetimeClass Band = DB.classify(siteKey(
            Policy, Trace.chain(Record.ChainIndex), Record.Size,
            Record.TypeId));
        Addresses[Id] = Allocator.allocate(Record.Size, Band);
      }
      void onFree(uint64_t Id, const AllocRecord &, uint64_t) override {
        Allocator.free(Addresses[Id]);
      }
      MultiArenaAllocator &Allocator;
      const AllocationTrace &Trace;
      const ClassDatabase &DB;
      const SiteKeyPolicy &Policy;
      std::vector<uint64_t> Addresses;
    };
    MultiArenaAllocator Oracle(Config);
    Consumer C(Oracle, T, DB, Policy);
    replayTrace(T, C);

    MultiArenaSimResult R =
        simulateMultiArena(CompiledTrace(T, Policy), DB, Config);
    EXPECT_EQ(R.MaxHeapBytes, Oracle.maxHeapBytes());
    ASSERT_EQ(R.PerBand.size(), Oracle.bands());
    for (size_t Band = 0; Band < Oracle.bands(); ++Band) {
      const auto &Got = R.PerBand[Band];
      const auto &Want = Oracle.bandCounters(Band);
      EXPECT_EQ(Got.Allocs, Want.Allocs) << "band " << Band;
      EXPECT_EQ(Got.Bytes, Want.Bytes) << "band " << Band;
      EXPECT_EQ(Got.Frees, Want.Frees) << "band " << Band;
      EXPECT_EQ(Got.ScanSteps, Want.ScanSteps) << "band " << Band;
      EXPECT_EQ(Got.Resets, Want.Resets) << "band " << Band;
      EXPECT_EQ(Got.Fallbacks, Want.Fallbacks) << "band " << Band;
    }
    EXPECT_EQ(R.GeneralAllocs, Oracle.generalAllocs());
    EXPECT_EQ(R.GeneralBytes, Oracle.generalBytes());
    EXPECT_EQ(R.General, Oracle.general().counters());
  }
}

TEST(CompiledTraceTest, ObservedWithNoSinksIdenticalToUnobserved) {
  // Observation must not perturb: with a SimTelemetry attached but no sink
  // set, every family runs its observed consumer, and the results must
  // equal the unobserved replay's, in memory and from a .sched file of the
  // same trace.
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  AllocationTrace T = churnTrace(42, 30000);
  Profile P = profileTrace(T, Policy);
  SiteDatabase DB = trainDatabase(P, Policy);
  ClassDatabase Classes = trainClassDatabase(P, Policy, {4096, 32 * 1024});
  CompiledTrace Compiled(T, Policy);

  auto expectSameBaseline = [](const BaselineSimResult &Want,
                               const BaselineSimResult &Got,
                               const char *What) {
    EXPECT_EQ(Want.MaxHeapBytes, Got.MaxHeapBytes) << What;
    EXPECT_EQ(Want.MaxLiveBytes, Got.MaxLiveBytes) << What;
    EXPECT_EQ(Want.FirstFit, Got.FirstFit) << What;
    EXPECT_EQ(Want.Bsd, Got.Bsd) << What;
  };

  BaselineSimResult FirstFit = simulateFirstFit(Compiled);
  BaselineSimResult Bsd = simulateBsd(Compiled);
  {
    SimTelemetry NoSinks;
    expectSameBaseline(FirstFit,
                       simulateFirstFit(Compiled, {}, {}, &NoSinks),
                       "firstfit");
    expectSameBaseline(Bsd, simulateBsd(Compiled, {}, {}, &NoSinks), "bsd");
  }

  // The on-disk source runs the same consumers, keyed by slot.
  std::string Path = testing::TempDir() + "observed_no_sinks.sched";
  ScheduleFileWriter::Config WriterConfig;
  WriterConfig.EventsPerChunk = 4096;
  ScheduleFileWriter Writer(Path, WriterConfig);
  Writer.append(T);
  ASSERT_TRUE(Writer.finish()) << Writer.error();
  std::string Error;
  std::optional<ScheduleFile> File = ScheduleFile::open(Path, Error);
  ASSERT_TRUE(File.has_value()) << Error;
  {
    SimTelemetry NoSinks;
    expectSameBaseline(FirstFit, streamSimulateFirstFit(*File),
                       "stream firstfit");
    expectSameBaseline(FirstFit,
                       streamSimulateFirstFit(*File, {}, {}, &NoSinks),
                       "observed stream firstfit");
    expectSameBaseline(Bsd, streamSimulateBsd(*File), "stream bsd");
    expectSameBaseline(Bsd, streamSimulateBsd(*File, {}, {}, &NoSinks),
                       "observed stream bsd");
  }
  std::remove(Path.c_str());

  ArenaSimResult Arena = simulateArena(Compiled, DB, 5.0);
  SimTelemetry ArenaTel;
  ArenaSimResult ObservedArena =
      simulateArena(Compiled, DB, 5.0, {}, {}, &ArenaTel);
  EXPECT_EQ(Arena.Arena, ObservedArena.Arena);
  EXPECT_EQ(Arena.General, ObservedArena.General);
  EXPECT_EQ(Arena.MaxHeapBytes, ObservedArena.MaxHeapBytes);
  EXPECT_EQ(Arena.MaxLiveBytes, ObservedArena.MaxLiveBytes);

  MultiArenaSimResult Multi = simulateMultiArena(Compiled, Classes);
  SimTelemetry MultiTel;
  MultiArenaSimResult ObservedMulti =
      simulateMultiArena(Compiled, Classes, {}, &MultiTel);
  EXPECT_EQ(Multi.MaxHeapBytes, ObservedMulti.MaxHeapBytes);
  EXPECT_EQ(Multi.MaxLiveBytes, ObservedMulti.MaxLiveBytes);
  EXPECT_EQ(Multi.GeneralAllocs, ObservedMulti.GeneralAllocs);
  EXPECT_EQ(Multi.GeneralBytes, ObservedMulti.GeneralBytes);
  EXPECT_EQ(Multi.General, ObservedMulti.General);
  ASSERT_EQ(Multi.PerBand.size(), ObservedMulti.PerBand.size());
  for (size_t Band = 0; Band < Multi.PerBand.size(); ++Band) {
    EXPECT_EQ(Multi.PerBand[Band].Allocs, ObservedMulti.PerBand[Band].Allocs);
    EXPECT_EQ(Multi.PerBand[Band].Bytes, ObservedMulti.PerBand[Band].Bytes);
    EXPECT_EQ(Multi.PerBand[Band].Resets, ObservedMulti.PerBand[Band].Resets);
  }

  // The observed arena replay still scores outcomes; check them against a
  // direct per-record recomputation.
  PredictionCounts Expected;
  for (const AllocRecord &Record : T.records()) {
    bool Predicted = DB.contains(siteKey(
        Policy, T.chain(Record.ChainIndex), Record.Size, Record.TypeId));
    Expected.add(Predicted, Record.Lifetime <= DB.threshold());
  }
  EXPECT_EQ(ArenaTel.Outcomes, Expected);
}

TEST(CompiledTraceTest, SharedScheduleIsStableAcrossConcurrentReplays) {
  // One compiled trace, many simultaneous replays: every thread must see
  // the same immutable schedule and produce the serial result.
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  AllocationTrace T = churnTrace(77, 30000);
  SiteDatabase DB = trainDatabase(profileTrace(T, Policy), Policy);
  CompiledTrace Compiled(T, Policy);
  ArenaSimResult Serial = simulateArena(Compiled, DB, 5.0);

  ThreadPool Pool(4);
  std::vector<ArenaSimResult> Results(8);
  parallelForIndex(Pool, Results.size(), [&](size_t Index) {
    Results[Index] = simulateArena(Compiled, DB, 5.0);
  });
  for (const ArenaSimResult &R : Results) {
    EXPECT_EQ(R.Arena, Serial.Arena);
    EXPECT_EQ(R.General, Serial.General);
    EXPECT_EQ(R.MaxHeapBytes, Serial.MaxHeapBytes);
    EXPECT_EQ(R.MaxLiveBytes, Serial.MaxLiveBytes);
  }
}
