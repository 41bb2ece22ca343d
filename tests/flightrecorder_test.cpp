//===- tests/flightrecorder_test.cpp - Lifetime flight recorder tests ------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
// Covers the per-object audit trail end to end: a hand-computed arena
// pinning scenario (every episode field checked against arithmetic done on
// paper), the golden human-readable audit report, audit JSON validity,
// headline telemetry export, chrome://tracing occupancy spans, reset-closed
// episodes with survivor death backfill, reservoir sampling determinism,
// recorder-vs-SimTelemetry confusion equivalence on both predicting
// simulators, and jobs-invariance of the full audit output.
//
//===----------------------------------------------------------------------===//

#include "alloc/ArenaAllocator.h"
#include "core/Pipeline.h"
#include "sim/MultiArenaSimulator.h"
#include "sim/SimTelemetry.h"
#include "sim/TraceSimulator.h"
#include "support/Json.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/LifetimeAudit.h"
#include "telemetry/StatsRegistry.h"
#include "telemetry/TraceEventWriter.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace lifepred;

namespace {

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + Name;
}

/// A clock that returns 10, 20, 30, ... so trace output is deterministic.
TraceEventWriter::ClockFn tickingClock() {
  auto Next = std::make_shared<std::atomic<uint64_t>>(0);
  return [Next]() -> uint64_t { return Next->fetch_add(10) + 10; };
}

/// Drives a two-arena allocator through a sequence whose dead-byte
/// integral is computable on paper.  Geometry: 8192-byte area, 2 arenas of
/// 4096 bytes.  Timeline (byte clocks):
///
///   100    A (id 0, site 1, 100 B, thr 1000)  -> arena 0 gen 0
///   4100   B (id 1, site 2, 4000 B, thr 5000) -> scan: arena 0 pinned
///          (survivors [A]), arena 1 reset to gen 1; B lands in arena 1
///   8100   free B (lifetime 4000, true short)
///   12100  C (id 2, site 2, 4000 B, thr 5000) -> scan: arena 0 pinned
///          again (integral += (4096-100) * 8000 = 31,968,000), arena 1
///          reset to gen 2; C lands in arena 1
///   16100  free C (lifetime 4000, true short)
///   16200  free A (lifetime 16100, false short; integral +=
///          (4096-100) * 4100 = 16,383,600; survivor death backfilled)
///   20000  finish (integral += 4096 * 3800 = 15,564,800)
///
/// Expected: exactly one episode — band 0 arena 0 gen 0, pinned since
/// 4100, end 20000, not reset, 2 pin events, dead-byte integral
/// 31,968,000 + 16,383,600 + 15,564,800 = 63,916,400, survivor A with
/// death 16200.  Arena 1 resets while unpinned and archives nothing.
void runGoldenScenario(FlightRecorder &Rec) {
  ArenaAllocator::Config Cfg;
  Cfg.Bands = {{8192, 2}};
  ArenaAllocator Alloc(Cfg);
  Rec.setArenaGeometry(AuditPlacement::DefaultBand, Alloc.arenaBytes());
  Alloc.attachLifecycle(&Rec);

  auto Place = [&](uint64_t Addr) {
    AuditPlacement P;
    if (Alloc.isArenaAddress(Addr)) {
      P.ArenaIndex = Alloc.arenaIndexFor(0, Addr);
      P.Generation = Alloc.arenaGeneration(0, P.ArenaIndex);
    }
    return P;
  };

  Rec.beginEvent(100);
  uint64_t A = Alloc.allocate(100, 0);
  Rec.recordAlloc(0, 100, 1, 100, true, 1000, Place(A));

  Rec.beginEvent(4100);
  uint64_t B = Alloc.allocate(4000, 0);
  Rec.recordAlloc(1, 4100, 2, 4000, true, 5000, Place(B));
  Rec.recordFree(1, 8100);
  Alloc.free(B);

  Rec.beginEvent(12100);
  uint64_t C = Alloc.allocate(4000, 0);
  Rec.recordAlloc(2, 12100, 2, 4000, true, 5000, Place(C));
  Rec.recordFree(2, 16100);
  Alloc.free(C);

  Rec.recordFree(0, 16200);
  Alloc.free(A);

  Rec.finish(20000);
}

} // namespace

//===----------------------------------------------------------------------===//
// Hand-computed pinning attribution
//===----------------------------------------------------------------------===//

TEST(FlightRecorderTest, HandComputedPinningAttribution) {
  FlightRecorder Rec;
  runGoldenScenario(Rec);

  EXPECT_TRUE(Rec.finished());
  EXPECT_EQ(Rec.totalObjects(), 3u);
  EXPECT_EQ(Rec.totalBytes(), 8100u);
  EXPECT_EQ(Rec.sampledCount(), 3u); // Capacity 4096: everything sampled.
  EXPECT_EQ(Rec.finalClock(), 20000u);

  // Exactly one episode: arena 0 generation 0.  Arena 1 was reset twice
  // but never observed pinned, so it archives nothing.
  EXPECT_EQ(Rec.pinnedEpisodeCount(), 1u);
  EXPECT_EQ(Rec.droppedEpisodes(), 0u);
  ASSERT_EQ(Rec.episodes().size(), 1u);
  const FlightRecorder::PinEpisode &E = Rec.episodes()[0];
  EXPECT_EQ(E.Band, AuditPlacement::DefaultBand);
  EXPECT_EQ(E.ArenaIndex, 0u);
  EXPECT_EQ(E.Generation, 0u);
  EXPECT_EQ(E.FirstFillClock, 100u);
  EXPECT_EQ(E.LastFillClock, 100u);
  EXPECT_EQ(E.PinnedSinceClock, 4100u);
  EXPECT_EQ(E.EndClock, 20000u);
  EXPECT_FALSE(E.ResetObserved);
  EXPECT_EQ(E.PinEvents, 2u);
  EXPECT_EQ(E.ObjectCount, 1u);
  EXPECT_EQ(E.PlacedBytes, 100u);
  EXPECT_EQ(E.SurvivorCount, 1u);
  // (4096-100)*8000 + (4096-100)*4100 + 4096*3800 = 63,916,400.
  EXPECT_EQ(E.DeadByteIntegral, 63916400u);
  EXPECT_EQ(Rec.totalDeadByteIntegral(), 63916400u);

  ASSERT_EQ(E.Survivors.size(), 1u);
  EXPECT_EQ(E.Survivors[0].Id, 0u);
  EXPECT_EQ(E.Survivors[0].Site, 1u);
  EXPECT_EQ(E.Survivors[0].Size, 100u);
  EXPECT_EQ(E.Survivors[0].BirthClock, 100u);
  EXPECT_EQ(E.Survivors[0].DeathClock, 16200u); // Backfilled at free time.

  // Forensics: A outlived its 1000-byte threshold (false short); B and C
  // died within their 5000-byte threshold (true short).
  auto Forensics = Rec.siteForensics();
  ASSERT_EQ(Forensics.size(), 2u);
  const FlightRecorder::SiteForensics &Site1 = Forensics.at(1);
  EXPECT_EQ(Site1.Objects, 1u);
  EXPECT_EQ(Site1.FalseShort, 1u);
  EXPECT_EQ(Site1.FalseShortBytes, 100u);
  EXPECT_EQ(Site1.TrueShort, 0u);
  const FlightRecorder::SiteForensics &Site2 = Forensics.at(2);
  EXPECT_EQ(Site2.Objects, 2u);
  EXPECT_EQ(Site2.TrueShort, 2u);
  EXPECT_EQ(Site2.wastedBytes(), 0u);

  // The sample is sorted by birth clock and carries placement + outcome.
  std::vector<FlightRecorder::ObjectRecord> Samples = Rec.sampledRecords();
  ASSERT_EQ(Samples.size(), 3u);
  EXPECT_EQ(Samples[0].Id, 0u);
  EXPECT_EQ(Samples[0].DeathClock, 16200u);
  EXPECT_TRUE(Samples[0].PredictedShort);
  EXPECT_FALSE(Samples[0].ActuallyShort);
  EXPECT_EQ(Samples[0].ArenaIndex, 0u);
  EXPECT_EQ(Samples[1].Id, 1u);
  EXPECT_TRUE(Samples[1].ActuallyShort);
  EXPECT_EQ(Samples[1].ArenaIndex, 1u);
  EXPECT_EQ(Samples[1].Generation, 1u);
  EXPECT_EQ(Samples[2].Generation, 2u);
}

TEST(FlightRecorderTest, GoldenAuditReport) {
  FlightRecorder Rec;
  runGoldenScenario(Rec);
  AuditReport Report = buildAuditReport(Rec, nullptr, "golden");

  std::string Path = tempPath("golden_audit.txt");
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  ASSERT_NE(Out, nullptr);
  printAuditReport(Report, Out);
  std::fclose(Out);

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::ostringstream Buffer;
  Buffer << In.rdbuf();

  // Site 2 mispredicts nothing, so only site 1 prints; its observed p50 is
  // the log2 bucket lower bound of lifetime 16100, i.e. 8192.
  EXPECT_EQ(
      Buffer.str(),
      "== lifetime audit: golden ==\n"
      "objects 3 (8100 bytes), sampled 3, final byte clock 20000\n"
      "confusion: true_short 2  false_short 1  missed_short 0  true_long 0\n"
      "wasted bytes: 100 false-short + 0 missed-short = 100\n"
      "\n"
      "mispredicting sites (by wasted bytes):\n"
      "    site   objects false_short missed_short wasted_bytes    obs_p50"
      "   train_p50   drift\n"
      "       1         1           1            0          100       8192"
      "           -       -\n"
      "\n"
      "arena pinning (by dead-bytes-held):\n"
      "  band 0 arena 0 gen 0: pinned 4100..20000 (still pinned), 1/1 "
      "survivors listed, dead-bytes-held 63916400\n"
      "    survivor id=0 site=1 size=100 born=100 died=16200\n"
      "totals: 1 pinned episodes (0 pruned), dead-byte integral 63916400\n");
}

TEST(FlightRecorderTest, AuditJsonIsValidAndComplete) {
  FlightRecorder Rec;
  runGoldenScenario(Rec);
  AuditReport Report = buildAuditReport(Rec, nullptr, "json");

  std::string Out;
  writeAuditJson(Report, Out, "");
  std::optional<JsonValue> Doc = parseJson(Out);
  ASSERT_TRUE(Doc.has_value()) << Out;

  EXPECT_EQ(Doc->find("label")->string(), "json");
  EXPECT_DOUBLE_EQ(Doc->numberOr("objects", -1), 3.0);
  EXPECT_DOUBLE_EQ(Doc->numberOr("bytes", -1), 8100.0);
  EXPECT_DOUBLE_EQ(Doc->numberOr("final_clock", -1), 20000.0);

  const JsonValue *Totals = Doc->find("totals");
  ASSERT_TRUE(Totals && Totals->isObject());
  EXPECT_DOUBLE_EQ(Totals->numberOr("true_short", -1), 2.0);
  EXPECT_DOUBLE_EQ(Totals->numberOr("false_short", -1), 1.0);
  EXPECT_DOUBLE_EQ(Totals->numberOr("wasted_bytes", -1), 100.0);
  EXPECT_DOUBLE_EQ(Totals->numberOr("dead_byte_integral", -1), 63916400.0);
  EXPECT_DOUBLE_EQ(Totals->numberOr("pinned_episodes", -1), 1.0);

  const JsonValue *Sites = Doc->find("sites");
  ASSERT_TRUE(Sites && Sites->isArray());
  ASSERT_EQ(Sites->array().size(), 2u); // JSON keeps clean sites too.
  EXPECT_DOUBLE_EQ(Sites->array()[0].numberOr("site", -1), 1.0);
  EXPECT_DOUBLE_EQ(Sites->array()[0].numberOr("obs_p50", -1), 8192.0);

  const JsonValue *Episodes = Doc->find("episodes");
  ASSERT_TRUE(Episodes && Episodes->isArray());
  ASSERT_EQ(Episodes->array().size(), 1u);
  const JsonValue &E = Episodes->array()[0];
  EXPECT_DOUBLE_EQ(E.numberOr("arena", -1), 0.0);
  EXPECT_DOUBLE_EQ(E.numberOr("pinned_since", -1), 4100.0);
  EXPECT_DOUBLE_EQ(E.numberOr("end", -1), 20000.0);
  EXPECT_DOUBLE_EQ(E.numberOr("reset", -1), 0.0);
  EXPECT_DOUBLE_EQ(E.numberOr("dead_byte_integral", -1), 63916400.0);
  const JsonValue *Survivors = E.find("survivors");
  ASSERT_TRUE(Survivors && Survivors->isArray());
  ASSERT_EQ(Survivors->array().size(), 1u);
  EXPECT_DOUBLE_EQ(Survivors->array()[0].numberOr("death", -1), 16200.0);

  const JsonValue *Samples = Doc->find("samples");
  ASSERT_TRUE(Samples && Samples->isArray());
  ASSERT_EQ(Samples->array().size(), 3u);
  EXPECT_DOUBLE_EQ(Samples->array()[0].numberOr("predicted_short", -1), 1.0);
  EXPECT_DOUBLE_EQ(Samples->array()[0].numberOr("actually_short", -1), 0.0);
}

TEST(FlightRecorderTest, ExportAuditTelemetryHeadlines) {
  FlightRecorder Rec;
  runGoldenScenario(Rec);
  AuditReport Report = buildAuditReport(Rec);

  StatsRegistry Reg;
  exportAuditTelemetry(Report, Reg, "audit.");
  EXPECT_EQ(Reg.counters().at("audit.objects"), 3u);
  EXPECT_EQ(Reg.counters().at("audit.sites"), 2u);
  EXPECT_EQ(Reg.counters().at("audit.true_short"), 2u);
  EXPECT_EQ(Reg.counters().at("audit.false_short"), 1u);
  EXPECT_EQ(Reg.counters().at("audit.wasted_bytes"), 100u);
  EXPECT_EQ(Reg.counters().at("audit.dead_byte_integral"), 63916400u);
  EXPECT_EQ(Reg.counters().at("audit.pinned_episodes"), 1u);
  // Top-offender gauges: site 1 with 100 wasted bytes; site 2 is clean and
  // must not produce a top2 entry.
  EXPECT_EQ(Reg.gauges().at("audit.top1.site"), 1u);
  EXPECT_EQ(Reg.gauges().at("audit.top1.wasted_bytes"), 100u);
  EXPECT_EQ(Reg.gauges().count("audit.top2.site"), 0u);
  EXPECT_EQ(Reg.gauges().at("audit.max_episode_dead_bytes"), 63916400u);
}

TEST(FlightRecorderTest, ArenaOccupancyTraceEvents) {
  FlightRecorder Rec;
  runGoldenScenario(Rec);
  AuditReport Report = buildAuditReport(Rec);

  TraceEventWriter Writer(tempPath("occupancy_trace.json"), tickingClock());
  emitArenaOccupancy(Report, Writer);
  std::optional<JsonValue> Doc = parseJson(Writer.toJson());
  ASSERT_TRUE(Doc.has_value());
  const JsonValue *Events = Doc->find("traceEvents");
  ASSERT_TRUE(Events && Events->isArray());
  // One fill span + one pinned span; no reset instant (still pinned).
  ASSERT_EQ(Events->array().size(), 2u);
  for (const JsonValue &E : Events->array()) {
    EXPECT_EQ(E.find("ph")->string(), "X");
    EXPECT_DOUBLE_EQ(E.numberOr("tid", -1), 100.0); // Track 100+0*64+0.
    EXPECT_EQ(E.find("cat")->string(), "arena");
    ASSERT_NE(E.find("dur"), nullptr);
  }
  EXPECT_DOUBLE_EQ(Events->array()[0].numberOr("ts", -1), 100.0);
  EXPECT_DOUBLE_EQ(Events->array()[0].numberOr("dur", -1), 0.0);
  EXPECT_DOUBLE_EQ(Events->array()[1].numberOr("ts", -1), 4100.0);
  EXPECT_DOUBLE_EQ(Events->array()[1].numberOr("dur", -1), 15900.0);
}

TEST(FlightRecorderTest, ResetClosesEpisodeAndBackfillsSurvivorDeath) {
  // A pinned arena whose survivor dies and whose reset is then observed:
  // the episode must close at the reset clock with ResetObserved set.
  ArenaAllocator::Config Cfg;
  Cfg.Bands = {{8192, 2}};
  ArenaAllocator Alloc(Cfg);
  FlightRecorder Rec;
  Rec.setArenaGeometry(AuditPlacement::DefaultBand, Alloc.arenaBytes());
  Alloc.attachLifecycle(&Rec);
  auto Place = [&](uint64_t Addr) {
    AuditPlacement P;
    if (Alloc.isArenaAddress(Addr)) {
      P.ArenaIndex = Alloc.arenaIndexFor(0, Addr);
      P.Generation = Alloc.arenaGeneration(0, P.ArenaIndex);
    }
    return P;
  };

  Rec.beginEvent(100);
  uint64_t D = Alloc.allocate(3000, 0); // Arena 0.
  Rec.recordAlloc(0, 100, 7, 3000, true, 100, Place(D));
  Rec.beginEvent(6100);
  uint64_t E = Alloc.allocate(3000, 0); // Scan: arena 0 pinned at 6100.
  Rec.recordAlloc(1, 6100, 7, 3000, true, 100, Place(E));
  Rec.recordFree(0, 8100); // Integral += (4096-3000)*2000 = 2,192,000.
  Alloc.free(D);
  Rec.beginEvent(10100);
  uint64_t F = Alloc.allocate(3000, 0); // Scan resets arena 0 at 10100.
  Rec.recordAlloc(2, 10100, 7, 3000, true, 100, Place(F));
  EXPECT_EQ(Place(F).ArenaIndex, 0u);
  EXPECT_EQ(Place(F).Generation, 1u);
  Rec.finish(12000);

  ASSERT_EQ(Rec.episodes().size(), 1u);
  const FlightRecorder::PinEpisode &Episode = Rec.episodes()[0];
  EXPECT_EQ(Episode.ArenaIndex, 0u);
  EXPECT_EQ(Episode.Generation, 0u);
  EXPECT_TRUE(Episode.ResetObserved);
  EXPECT_EQ(Episode.PinnedSinceClock, 6100u);
  EXPECT_EQ(Episode.EndClock, 10100u);
  // 2,192,000 while D lived + 4096*2000 = 8,192,000 empty = 10,384,000.
  EXPECT_EQ(Episode.DeadByteIntegral, 10384000u);
  ASSERT_EQ(Episode.Survivors.size(), 1u);
  EXPECT_EQ(Episode.Survivors[0].Id, 0u);
  EXPECT_EQ(Episode.Survivors[0].DeathClock, 8100u);
}

TEST(FlightRecorderTest, ReservoirIsBoundedAndDeterministic) {
  auto Run = [](FlightRecorder &Rec) {
    for (uint64_t Id = 0; Id < 200; ++Id) {
      uint64_t Birth = 16 * Id + 16;
      Rec.beginEvent(Birth);
      Rec.recordAlloc(Id, Birth, uint32_t(Id % 5), 16, (Id % 3) == 0, 64,
                      AuditPlacement());
      if (Id % 2 == 0)
        Rec.recordFree(Id, Birth + 40);
    }
    Rec.finish(16 * 200 + 16);
  };

  FlightRecorder::Config Cfg;
  Cfg.ReservoirCapacity = 4;
  FlightRecorder A(Cfg), B(Cfg);
  Run(A);
  Run(B);

  EXPECT_EQ(A.totalObjects(), 200u);
  EXPECT_EQ(A.sampledCount(), 4u); // Bounded despite 200 offers.
  std::vector<FlightRecorder::ObjectRecord> SA = A.sampledRecords();
  std::vector<FlightRecorder::ObjectRecord> SB = B.sampledRecords();
  ASSERT_EQ(SA.size(), SB.size());
  for (size_t I = 0; I < SA.size(); ++I) {
    EXPECT_EQ(SA[I].Id, SB[I].Id);
    EXPECT_EQ(SA[I].BirthClock, SB[I].BirthClock);
    EXPECT_EQ(SA[I].DeathClock, SB[I].DeathClock);
    EXPECT_EQ(SA[I].Site, SB[I].Site);
    EXPECT_EQ(SA[I].PredictedShort, SB[I].PredictedShort);
    EXPECT_EQ(SA[I].ActuallyShort, SB[I].ActuallyShort);
  }

  // A different seed retains a different sample (the draw depends on it).
  FlightRecorder::Config Other = Cfg;
  Other.Seed = 0x2026;
  FlightRecorder C(Other);
  Run(C);
  std::vector<FlightRecorder::ObjectRecord> SC = C.sampledRecords();
  bool AnyDifference = SC.size() != SA.size();
  for (size_t I = 0; !AnyDifference && I < SC.size(); ++I)
    AnyDifference = SC[I].Id != SA[I].Id;
  EXPECT_TRUE(AnyDifference);
}

//===----------------------------------------------------------------------===//
// Simulator integration
//===----------------------------------------------------------------------===//

namespace {

/// A trace of mostly short-lived objects from one site plus rare
/// long-lived ones from another (telemetry_test's shape).
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

TEST(FlightRecorderSimTest, ArenaRecorderMatchesSimTelemetry) {
  AllocationTrace T = churnTrace(31, 20000);
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  SiteDatabase DB = trainDatabase(profileTrace(T, Policy), Policy);

  FlightRecorder Rec;
  SimTelemetry Tel;
  Tel.Recorder = &Rec;
  CompiledTrace Compiled(T, Policy);
  ArenaSimResult R = simulateArena(Compiled, DB, 5.0, {}, {}, &Tel);

  // The recorder sees every allocation event and classifies it against
  // the same threshold the simulator uses, so the confusion matrices are
  // identical.
  EXPECT_TRUE(Rec.finished());
  EXPECT_EQ(Rec.totalObjects(), uint64_t(T.size()));
  AuditReport Report = buildAuditReport(Rec);
  EXPECT_EQ(Report.TrueShort, Tel.Outcomes.TrueShort);
  EXPECT_EQ(Report.FalseShort, Tel.Outcomes.FalseShort);
  EXPECT_EQ(Report.MissedShort, Tel.Outcomes.MissedShort);
  EXPECT_EQ(Report.TrueLong, Tel.Outcomes.TrueLong);
  EXPECT_EQ(Report.FinalClock, T.totalBytes());

  // Recording must not perturb the simulation.
  ArenaSimResult Plain = simulateArena(Compiled, DB, 5.0);
  EXPECT_EQ(Plain.MaxHeapBytes, R.MaxHeapBytes);
  EXPECT_TRUE(Plain.Arena == R.Arena);
}

TEST(FlightRecorderSimTest, MultiArenaRecorderMatchesSimTelemetry) {
  AllocationTrace T = churnTrace(32, 20000);
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  ClassDatabase DB =
      trainClassDatabase(profileTrace(T, Policy), Policy, {4096, 32 * 1024});

  FlightRecorder Rec;
  SimTelemetry Tel;
  Tel.Recorder = &Rec;
  CompiledTrace Compiled(T, Policy);
  MultiArenaSimResult R = simulateMultiArena(Compiled, DB, {}, &Tel);

  EXPECT_TRUE(Rec.finished());
  EXPECT_EQ(Rec.totalObjects(), uint64_t(T.size()));
  AuditReport Report = buildAuditReport(Rec);
  EXPECT_EQ(Report.TrueShort, Tel.Outcomes.TrueShort);
  EXPECT_EQ(Report.FalseShort, Tel.Outcomes.FalseShort);
  EXPECT_EQ(Report.MissedShort, Tel.Outcomes.MissedShort);
  EXPECT_EQ(Report.TrueLong, Tel.Outcomes.TrueLong);

  MultiArenaSimResult Plain = simulateMultiArena(Compiled, DB);
  EXPECT_EQ(Plain.MaxHeapBytes, R.MaxHeapBytes);
  EXPECT_EQ(Plain.GeneralAllocs, R.GeneralAllocs);
}

namespace {

/// Replays TaskCount audited simulations on a pool of Jobs threads — one
/// recorder per task, exactly the bench fan-out discipline — and returns
/// the audit JSON concatenated in task order.
std::string auditAtJobCount(unsigned Jobs, size_t TaskCount) {
  ThreadPool Pool(Jobs);
  std::vector<std::string> PerTask(TaskCount);
  parallelForIndex(Pool, TaskCount, [&](size_t Index) {
    SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
    AllocationTrace Train = churnTrace(500 + Index, 15000);
    AllocationTrace Test = churnTrace(900 + Index, 15000);
    Profile TrainProfile = profileTrace(Train, Policy);
    SiteDatabase DB = trainDatabase(TrainProfile, Policy);

    FlightRecorder Rec;
    SimTelemetry Tel;
    Tel.Recorder = &Rec;
    simulateArena(CompiledTrace(Test, Policy), DB, 5.0, {}, {}, &Tel);

    TrainedQuantileMap Trained =
        buildTrainedQuantiles(Test, TrainProfile, Policy);
    AuditReport Report = buildAuditReport(
        Rec, &Trained, "task" + std::to_string(Index));
    writeAuditJson(Report, PerTask[Index], "");
  });
  std::string All;
  for (const std::string &Task : PerTask) {
    All += Task;
    All += '\n';
  }
  return All;
}

} // namespace

TEST(FlightRecorderSimTest, AuditJsonIdenticalAtAnyJobCount) {
  // The acceptance bar for the audit trail: byte-identical output at any
  // --jobs value.  Each replay owns its recorder; exports happen in task
  // order; sampling is a hash of the trace content, not of scheduling.
  const size_t TaskCount = 6;
  std::string Serial = auditAtJobCount(1, TaskCount);
  EXPECT_EQ(Serial, auditAtJobCount(2, TaskCount));
  EXPECT_EQ(Serial, auditAtJobCount(8, TaskCount));
  // Sanity: the output is substantial, not trivially empty.
  EXPECT_GT(Serial.size(), 1000u);
}
