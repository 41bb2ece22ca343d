//===- tests/drift_test.cpp - Prediction drift observatory tests -----------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
// Covers the drift observatory: a hand-computed golden drift JSON over a
// small trace with an engineered mid-trace lifetime shift (window-edge
// placement and empty trailing windows included), the geometry limit of
// its packed lifetime log, the CUSUM change-point localizer, per-site
// observed-vs-trained divergence scoring, and the ESPRESSO acceptance
// run.
//
//===----------------------------------------------------------------------===//

#include "callchain/FunctionRegistry.h"
#include "core/Pipeline.h"
#include "sim/SimTelemetry.h"
#include "sim/TraceSimulator.h"
#include "telemetry/DriftObservatory.h"
#include "telemetry/StatsRegistry.h"
#include "trace/CompiledTrace.h"
#include "workloads/Programs.h"
#include "workloads/WorkloadRunner.h"

#include "gtest/gtest.h"

#include <cmath>
#include <stdexcept>
#include <string>

using namespace lifepred;

//===----------------------------------------------------------------------===//
// DriftObservatory: hand-computed golden
//===----------------------------------------------------------------------===//

namespace {

/// The six-event micro scenario: window width 100, end clock 1000,
/// threshold 50.  Site 7 is predicted short and flips from short-lived to
/// a 400-byte overstay mid-trace (the engineered lifetime shift).
DriftObservatory goldenObservatory() {
  DriftConfig C;
  C.EndClock = 1000;
  C.WindowBytes = 100;
  C.Threshold = 50;
  DriftObservatory Obs(C);
  // (clock, site, size, predicted, lifetime, actually short)
  Obs.recordAlloc(0, 7, 16, true, 10, true);     // w0: true short
  Obs.recordAlloc(100, 7, 16, true, 10, true);   // edge clock -> w1
  Obs.recordAlloc(250, 9, 32, false, 20, true);  // w2: missed short
  Obs.recordAlloc(300, 7, 16, true, 400, false); // w3: false short, pins
  Obs.recordAlloc(500, 11, 8, false, 600, false); // w5: true long
  Obs.recordAlloc(999, 7, 16, true, 0, true);    // w9: zero-lifetime TS
  return Obs;
}

} // namespace

TEST(DriftObservatoryTest, HandComputedWindowRows) {
  DriftObservatory Obs = goldenObservatory();
  EXPECT_EQ(Obs.windowCount(), 11u); // Windows 0..10, trailing w10 empty.
  EXPECT_EQ(Obs.totalObjects(), 6u);

  DriftReport R = buildDriftReport(Obs, nullptr, "golden");
  EXPECT_EQ(R.SiteCount, 3u);
  ASSERT_EQ(R.Windows.size(), 11u);
  EXPECT_EQ(R.TrueShort, 3u);
  EXPECT_EQ(R.FalseShort, 1u);
  EXPECT_EQ(R.MissedShort, 1u);
  EXPECT_EQ(R.TrueLong, 1u);
  EXPECT_EQ(R.FalseShortBytes, 16u);
  EXPECT_EQ(R.MissedShortBytes, 32u);
  // The false short born at 300 with observed lifetime 400 pins its arena
  // over [300 + 50, 300 + 400) = clocks 350..699 -> windows 3, 4, 5, 6.
  EXPECT_EQ(R.PinnedBytes, 4u * 16u);
  for (uint64_t W : {3u, 4u, 5u, 6u})
    EXPECT_EQ(R.Windows[W].PinnedBytes, 16u) << "window " << W;
  EXPECT_EQ(R.Windows[7].PinnedBytes, 0u);
  // 4 correct of 6 -> 666666 ppm (integer division).
  EXPECT_EQ(R.MeanAccuracyPpm, 666666);
  // Empty windows carry the no-data sentinel, not zero accuracy.
  EXPECT_EQ(R.Windows[4].AccuracyPpm, -1);
  EXPECT_EQ(R.Windows[10].AccuracyPpm, -1);
  EXPECT_EQ(R.Windows[0].AccuracyPpm, 1000000);
  EXPECT_EQ(R.Windows[2].AccuracyPpm, 0);
}

TEST(DriftObservatoryTest, GoldenDriftJson) {
  // The full report serialization, hand-computed byte for byte.  With six
  // events and a mean of 666666 ppm every populated window deviates more
  // than the CUSUM decision threshold, so each one trips and resets.
  DriftReport R = buildDriftReport(goldenObservatory(), nullptr, "golden");
  std::string Json;
  writeDriftJson(R, Json, "");
  const std::string Expected =
      "{\n"
      "  \"label\": \"golden\",\n"
      "  \"window_bytes\": 100,\n"
      "  \"end_clock\": 1000,\n"
      "  \"threshold\": 50,\n"
      "  \"windows\": 11,\n"
      "  \"objects\": 6,\n"
      "  \"sites\": 3,\n"
      "  \"true_short\": 3,\n"
      "  \"false_short\": 1,\n"
      "  \"missed_short\": 1,\n"
      "  \"true_long\": 1,\n"
      "  \"false_short_bytes\": 16,\n"
      "  \"missed_short_bytes\": 32,\n"
      "  \"pinned_bytes\": 64,\n"
      "  \"accuracy_mean_ppm\": 666666,\n"
      "  \"changepoint_count\": 6,\n"
      "  \"changepoints\": [0, 1, 2, 3, 5, 9],\n"
      "  \"scored_site_windows\": 0,\n"
      "  \"worst_site\": null,\n"
      "  \"top_sites\": [],\n"
      "  \"series\": [\n"
      "    {\"w\": 0, \"start\": 0, \"ts\": 1, \"fs\": 0, \"ms\": 0, "
      "\"tl\": 0, \"acc_ppm\": 1000000, \"false_short_bytes\": 0, "
      "\"missed_short_bytes\": 0, \"pinned_bytes\": 0, \"changepoint\": "
      "true},\n"
      "    {\"w\": 1, \"start\": 100, \"ts\": 1, \"fs\": 0, \"ms\": 0, "
      "\"tl\": 0, \"acc_ppm\": 1000000, \"false_short_bytes\": 0, "
      "\"missed_short_bytes\": 0, \"pinned_bytes\": 0, \"changepoint\": "
      "true},\n"
      "    {\"w\": 2, \"start\": 200, \"ts\": 0, \"fs\": 0, \"ms\": 1, "
      "\"tl\": 0, \"acc_ppm\": 0, \"false_short_bytes\": 0, "
      "\"missed_short_bytes\": 32, \"pinned_bytes\": 0, \"changepoint\": "
      "true},\n"
      "    {\"w\": 3, \"start\": 300, \"ts\": 0, \"fs\": 1, \"ms\": 0, "
      "\"tl\": 0, \"acc_ppm\": 0, \"false_short_bytes\": 16, "
      "\"missed_short_bytes\": 0, \"pinned_bytes\": 16, \"changepoint\": "
      "true},\n"
      "    {\"w\": 4, \"start\": 400, \"ts\": 0, \"fs\": 0, \"ms\": 0, "
      "\"tl\": 0, \"acc_ppm\": -1, \"false_short_bytes\": 0, "
      "\"missed_short_bytes\": 0, \"pinned_bytes\": 16, \"changepoint\": "
      "false},\n"
      "    {\"w\": 5, \"start\": 500, \"ts\": 0, \"fs\": 0, \"ms\": 0, "
      "\"tl\": 1, \"acc_ppm\": 1000000, \"false_short_bytes\": 0, "
      "\"missed_short_bytes\": 0, \"pinned_bytes\": 16, \"changepoint\": "
      "true},\n"
      "    {\"w\": 6, \"start\": 600, \"ts\": 0, \"fs\": 0, \"ms\": 0, "
      "\"tl\": 0, \"acc_ppm\": -1, \"false_short_bytes\": 0, "
      "\"missed_short_bytes\": 0, \"pinned_bytes\": 16, \"changepoint\": "
      "false},\n"
      "    {\"w\": 7, \"start\": 700, \"ts\": 0, \"fs\": 0, \"ms\": 0, "
      "\"tl\": 0, \"acc_ppm\": -1, \"false_short_bytes\": 0, "
      "\"missed_short_bytes\": 0, \"pinned_bytes\": 0, \"changepoint\": "
      "false},\n"
      "    {\"w\": 8, \"start\": 800, \"ts\": 0, \"fs\": 0, \"ms\": 0, "
      "\"tl\": 0, \"acc_ppm\": -1, \"false_short_bytes\": 0, "
      "\"missed_short_bytes\": 0, \"pinned_bytes\": 0, \"changepoint\": "
      "false},\n"
      "    {\"w\": 9, \"start\": 900, \"ts\": 1, \"fs\": 0, \"ms\": 0, "
      "\"tl\": 0, \"acc_ppm\": 1000000, \"false_short_bytes\": 0, "
      "\"missed_short_bytes\": 0, \"pinned_bytes\": 0, \"changepoint\": "
      "true},\n"
      "    {\"w\": 10, \"start\": 1000, \"ts\": 0, \"fs\": 0, \"ms\": 0, "
      "\"tl\": 0, \"acc_ppm\": -1, \"false_short_bytes\": 0, "
      "\"missed_short_bytes\": 0, \"pinned_bytes\": 0, \"changepoint\": "
      "false}\n"
      "  ]\n"
      "}";
  EXPECT_EQ(Json, Expected);
}

TEST(DriftObservatoryTest, CusumLocalizesEngineeredShift) {
  // 100 windows of 10 predicted-short objects each; the database goes
  // stale at window 98 (every allocation suddenly outlives the
  // threshold).  The majority phase sits within CUSUM slack of the run
  // mean (980000 ppm), so only the shifted tail trips.
  DriftConfig C;
  C.EndClock = 9999;
  C.WindowBytes = 100;
  C.Threshold = 50;
  DriftObservatory Obs(C);
  for (uint64_t W = 0; W < 100; ++W)
    for (uint64_t J = 0; J < 10; ++J) {
      bool Stale = W >= 98;
      Obs.recordAlloc(W * 100 + J, 7, 16, true, Stale ? 100000 : 10,
                      !Stale);
    }
  DriftReport R = buildDriftReport(Obs, nullptr, "shift");
  EXPECT_EQ(R.MeanAccuracyPpm, 980000);
  ASSERT_EQ(R.changePointCount(), 2u);
  EXPECT_EQ(R.ChangePointWindows[0], 98u);
  EXPECT_EQ(R.ChangePointWindows[1], 99u);
  for (uint64_t W = 0; W < 98; ++W)
    EXPECT_FALSE(R.Windows[W].ChangePoint) << "window " << W;
}

TEST(DriftObservatoryTest, SiteDivergenceScoredAgainstTrainedQuantiles) {
  DriftConfig C;
  C.EndClock = 1000;
  C.WindowBytes = 100;
  C.Threshold = 50;
  DriftObservatory Obs(C);
  // Site 5: four same-window objects observed living ~1000 bytes; site 6
  // has only three objects, below the scoring floor.
  for (int I = 0; I < 4; ++I)
    Obs.recordAlloc(10 + I, 5, 16, true, 800, false);
  for (int I = 0; I < 3; ++I)
    Obs.recordAlloc(40 + I, 6, 16, true, 800, false);

  TrainedQuantileMap Trained;
  TrainedSiteQuantiles Q;
  Q.Objects = 100;
  Q.Q25 = 8;
  Q.Q50 = 10;
  Q.Q75 = 12;
  Trained.emplace(5, Q);
  Trained.emplace(6, Q);

  DriftReport R = buildDriftReport(Obs, &Trained, "sites");
  EXPECT_EQ(R.ScoredSiteWindows, 1u);
  ASSERT_TRUE(R.hasWorstSite());
  EXPECT_EQ(R.worstSite().Site, 5u);
  EXPECT_EQ(R.worstSite().Window, 0u);
  EXPECT_EQ(R.worstSite().Objects, 4u);
  EXPECT_DOUBLE_EQ(R.worstSite().TrainQ50, 10.0);
  // Observed ~800 vs trained ~10: better than five doublings of drift.
  EXPECT_GT(R.worstSite().Score, 5.0);
}

TEST(DriftObservatoryTest, SiteWindowRunsScoredAtTheObjectFloor) {
  DriftConfig C;
  C.EndClock = 1000;
  C.WindowBytes = 100;
  C.Threshold = 50;
  DriftObservatory Obs(C);
  // Site 5 spans windows 0 (four objects) and 1 (three); site 6 shares
  // window 0 with three objects; site 8 has no trained quantiles.
  for (int I = 0; I < 4; ++I)
    Obs.recordAlloc(10 + I, 5, 16, true, 800, false);
  for (int I = 0; I < 3; ++I)
    Obs.recordAlloc(110 + I, 5, 16, true, 20, true);
  for (int I = 0; I < 3; ++I)
    Obs.recordAlloc(20 + I, 6, 16, true, 800, false);
  Obs.recordAlloc(30, 8, 16, false, 900, false);

  TrainedQuantileMap Trained;
  TrainedSiteQuantiles Q;
  Q.Objects = 100;
  Q.Q25 = 8;
  Q.Q50 = 10;
  Q.Q75 = 12;
  Trained.emplace(5, Q);
  Trained.emplace(6, Q);

  DriftReport Untrained = buildDriftReport(Obs, nullptr, "sites");
  EXPECT_EQ(Untrained.SiteCount, 3u);
  EXPECT_EQ(Untrained.ScoredSiteWindows, 0u);

  // At the default floor of four only (site 5, window 0) qualifies.
  DriftReport AtFour = buildDriftReport(Obs, &Trained, "sites");
  EXPECT_EQ(AtFour.SiteCount, 3u);
  EXPECT_EQ(AtFour.ScoredSiteWindows, 1u);
  ASSERT_EQ(AtFour.TopSites.size(), 1u);
  EXPECT_EQ(AtFour.worstSite().Site, 5u);
  EXPECT_EQ(AtFour.worstSite().Window, 0u);
  EXPECT_EQ(AtFour.worstSite().Objects, 4u);

  // At three, both window-0 runs and site 5's window-1 run qualify.  Every
  // lifetime-800 object lands in bucket [512, 1023], so both window-0
  // runs score log2(513 / 9) and tie, broken by site; site 5's window 1
  // holds lifetime-20 objects, bucket [16, 31].
  DriftReportOptions Options;
  Options.MinSiteWindowObjects = 3;
  DriftReport AtThree = buildDriftReport(Obs, &Trained, "sites", Options);
  EXPECT_EQ(AtThree.SiteCount, 3u);
  EXPECT_EQ(AtThree.ScoredSiteWindows, 3u);
  ASSERT_EQ(AtThree.TopSites.size(), 3u);
  const DriftSiteScore &First = AtThree.TopSites[0];
  const DriftSiteScore &Second = AtThree.TopSites[1];
  const DriftSiteScore &Third = AtThree.TopSites[2];
  EXPECT_EQ(First.Site, 5u);
  EXPECT_EQ(First.Window, 0u);
  EXPECT_EQ(First.Objects, 4u);
  EXPECT_EQ(First.ObsQ50, 512u);
  EXPECT_DOUBLE_EQ(First.Score, std::log2(513.0 / 9.0));
  EXPECT_EQ(Second.Site, 6u);
  EXPECT_EQ(Second.Window, 0u);
  EXPECT_EQ(Second.Objects, 3u);
  EXPECT_DOUBLE_EQ(Second.Score, First.Score);
  EXPECT_EQ(Third.Site, 5u);
  EXPECT_EQ(Third.Window, 1u);
  EXPECT_EQ(Third.Objects, 3u);
  EXPECT_EQ(Third.ObsQ50, 16u);
  EXPECT_DOUBLE_EQ(Third.Score, std::log2(17.0 / 9.0));

  // The shared score skips quantiles a site never trained (negative).
  TrainedSiteQuantiles MedianOnly;
  MedianOnly.Q50 = 16;
  EXPECT_DOUBLE_EQ(lifetimeDriftScore(0, 16, 1000, MedianOnly), 0.0);
}

TEST(DriftObservatoryTest, UntrainedReportCountsSitesLikeTheTrainedOne) {
  DriftConfig C;
  C.EndClock = 1000;
  C.WindowBytes = 100;
  C.Threshold = 50;
  DriftObservatory Empty(C);
  EXPECT_EQ(buildDriftReport(Empty, nullptr, "empty").SiteCount, 0u);

  // Sparse site ids, each first seen out of order and seen again later:
  // the count is of distinct sites, not of log entries or of the largest
  // id.
  DriftObservatory Obs(C);
  for (int I = 0; I < 4; ++I) {
    Obs.recordAlloc(10 + I, 70000, 16, true, 800, false);
    Obs.recordAlloc(20 + I, 5, 16, true, 10, true);
    Obs.recordAlloc(230 + I, 0, 32, false, 600, false);
  }
  Obs.recordAlloc(450, 5, 16, false, 20, true);

  TrainedQuantileMap Trained;
  TrainedSiteQuantiles Q;
  Q.Objects = 100;
  Q.Q25 = 8;
  Q.Q50 = 10;
  Q.Q75 = 12;
  Trained.emplace(0, Q);
  Trained.emplace(5, Q);
  Trained.emplace(70000, Q);

  DriftReport Untrained = buildDriftReport(Obs, nullptr, "sites");
  DriftReport Scored = buildDriftReport(Obs, &Trained, "sites");
  EXPECT_EQ(Untrained.SiteCount, 3u);
  EXPECT_EQ(Scored.SiteCount, 3u);
  EXPECT_EQ(Untrained.Windows, Scored.Windows);
  EXPECT_EQ(Untrained.ChangePointWindows, Scored.ChangePointWindows);
  EXPECT_EQ(Untrained.TotalObjects, Scored.TotalObjects);
  EXPECT_EQ(Untrained.TrueShort, Scored.TrueShort);
  EXPECT_EQ(Untrained.FalseShort, Scored.FalseShort);
  EXPECT_EQ(Untrained.MissedShort, Scored.MissedShort);
  EXPECT_EQ(Untrained.TrueLong, Scored.TrueLong);
  EXPECT_EQ(Untrained.FalseShortBytes, Scored.FalseShortBytes);
  EXPECT_EQ(Untrained.MissedShortBytes, Scored.MissedShortBytes);
  EXPECT_EQ(Untrained.PinnedBytes, Scored.PinnedBytes);
  EXPECT_EQ(Untrained.MeanAccuracyPpm, Scored.MeanAccuracyPpm);

  // Only the trained report scores: one run of four per site.
  EXPECT_EQ(Untrained.ScoredSiteWindows, 0u);
  EXPECT_TRUE(Untrained.TopSites.empty());
  EXPECT_EQ(Scored.ScoredSiteWindows, 3u);
}

TEST(DriftObservatoryTest, RejectsGeometryBeyondTheWindowField) {
  // 2^26 + 1 one-byte windows exceed the packed log's 2^25 window field;
  // the constructor refuses before allocating the counter rows.
  DriftConfig C;
  C.EndClock = uint64_t(1) << 26;
  C.WindowBytes = 1;
  try {
    DriftObservatory Obs(C);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument &E) {
    EXPECT_NE(std::string(E.what()).find("WindowBytes"), std::string::npos)
        << E.what();
  }
  // The automatic width always fits: bit_ceil(2^20 + 1) = 2^21 bytes,
  // so windows 0..32.
  C.WindowBytes = 0;
  EXPECT_EQ(DriftObservatory(C).windowCount(), 33u);
}

TEST(DriftObservatoryTest, TelemetryExportKeys) {
  StatsRegistry Registry;
  DriftReport R = buildDriftReport(goldenObservatory(), nullptr, "golden");
  exportDriftTelemetry(R, Registry, "drift.");
  EXPECT_EQ(Registry.counter("drift.windows"), 11u);
  EXPECT_EQ(Registry.counter("drift.objects"), 6u);
  EXPECT_EQ(Registry.counter("drift.changepoints"), 6u);
  EXPECT_EQ(Registry.counter("drift.pinned_bytes"), 64u);
  EXPECT_EQ(Registry.gauge("drift.accuracy_mean_ppm"), 666666u);
}

TEST(DriftObservatoryTest, SparklineScalesToOwnRange) {
  // Eight glyph levels: the minimum maps to the lowest bar, the maximum
  // to the highest, and a constant series renders mid-level, not empty.
  std::string Line = sparkline({0.0, 7.0});
  EXPECT_EQ(Line.size(), 2 * 3u); // Two UTF-8 block glyphs, 3 bytes each.
  EXPECT_EQ(Line.substr(0, 3), "▁");
  EXPECT_EQ(Line.substr(3, 3), "█");
  EXPECT_FALSE(sparkline({5.0, 5.0, 5.0}).empty());
  EXPECT_TRUE(sparkline({}).empty());
}

//===----------------------------------------------------------------------===//
// The ESPRESSO acceptance run
//===----------------------------------------------------------------------===//

TEST(DriftShapeTest, EspressoLocalizesChangePointWithNamedSite) {
  // The acceptance run: ESPRESSO's drift report must localize at least
  // one change-point window and name a worst-drift site.
  ProgramModel Espresso;
  bool Found = false;
  for (const ProgramModel &Model : allPrograms())
    if (std::string(Model.Name) == "ESPRESSO") {
      Espresso = Model;
      Found = true;
    }
  ASSERT_TRUE(Found);
  RunOptions Run;
  Run.Scale = 0.05;
  Run.Seed = 0x1993;
  Run.Kind = RunKind::Train;
  FunctionRegistry Registry;
  AllocationTrace Train = runWorkload(Espresso, Run, Registry);
  Run.Kind = RunKind::Test;
  AllocationTrace Test = runWorkload(Espresso, Run, Registry);

  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  Profile TrainProfile = profileTrace(Train, Policy);
  SiteDatabase DB = trainDatabase(TrainProfile, Policy);
  CompiledTrace Compiled(Test, Policy);

  DriftConfig Config;
  Config.EndClock = Compiled.schedule().endClock();
  Config.Threshold = DB.threshold();
  DriftObservatory Obs(Config);
  SimTelemetry Telemetry;
  Telemetry.Drift = &Obs;
  simulateArena(Compiled, DB, Espresso.CallsPerAlloc, {}, {}, &Telemetry);

  TrainedQuantileMap Trained =
      buildTrainedQuantiles(Test, TrainProfile, Policy);
  DriftReport R = buildDriftReport(Obs, &Trained, "ESPRESSO.arena");
  EXPECT_GE(R.changePointCount(), 1u);
  ASSERT_TRUE(R.hasWorstSite());
  EXPECT_GT(R.worstSite().Objects, 0u);
  EXPECT_GT(R.worstSite().Score, 0.0);
}
