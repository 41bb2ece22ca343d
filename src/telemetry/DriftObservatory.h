//===- telemetry/DriftObservatory.h - Prediction drift tracking -*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Time-resolved lifetime-prediction quality: where SimTelemetry's
/// PredictionCounts answer "how accurate was the database over the whole
/// replay", the drift observatory answers *when* and *at which sites* it
/// went stale.  Every allocation outcome lands in a byte-clock window
/// twice — once as a row of global counters carrying the short-lived
/// confusion matrix (TP/FP/FN/TN) and misprediction cost, once as a packed
/// (site, window, lifetime bucket) entry of a lifetime log the report
/// sorts into per-site, per-window histograms.  The cost lanes:
///
///   * false_short_bytes — bytes of predicted-short objects that outlived
///     the threshold, charged to their birth window (arena bytes a wrong
///     "short" verdict placed there);
///   * pinned_bytes — the same objects charged to every window their
///     post-threshold overstay [birth + threshold, death) overlaps (the
///     windows during which they pinned an arena);
///   * missed_short_bytes — bytes of predicted-long objects that died
///     within the threshold, charged to the birth window (general-heap
///     bytes a correct "short" verdict would have arena'd).
///
/// The analysis pass (buildDriftReport) turns a filled observatory into
/// per-window accuracy with CUSUM change-point flags and per-site
/// observed-vs-trained quantile divergence — the FlightRecorder audit's
/// drift score, time-resolved.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_TELEMETRY_DRIFTOBSERVATORY_H
#define LIFEPRED_TELEMETRY_DRIFTOBSERVATORY_H

#include "telemetry/LifetimeAudit.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace lifepred {

class StatsRegistry;
class TraceEventWriter;

/// Geometry and classification of one drift-tracking run.
struct DriftConfig {
  /// The replay's final byte clock; windows cover [0, EndClock] and
  /// never-freed lifetimes clamp to it.
  uint64_t EndClock = 0;
  /// Window width; 0 picks autoWindowBytes(EndClock).
  uint64_t WindowBytes = 0;
  /// The short-lived threshold the outcomes were classified under (the
  /// SiteDatabase threshold; the widest band for multi-arena replays).
  uint64_t Threshold = 0;

  bool operator==(const DriftConfig &Other) const = default;
};

/// Windowed confusion-matrix and cost accounting for one replay.
///
/// Window W covers byte clocks [W * windowBytes(), (W + 1) * windowBytes());
/// an event exactly on an edge opens the window it starts.  Every window
/// through the one holding EndClock exists from construction, so quiet
/// tails appear as explicit empty windows.
class DriftObservatory {
public:
  /// Counter lanes of one window row.
  enum Lane : unsigned {
    LaneTrueShort = 0,
    LaneFalseShort,
    LaneMissedShort,
    LaneTrueLong,
    LaneFalseShortBytes,
    LaneMissedShortBytes,
    LanePinnedBytes,
    LaneCount
  };

  /// Lifetime log entry layout: Site << SiteShift | Window << WindowShift |
  /// Log2Histogram::bucketIndex(observed lifetime).  Sorting the log groups
  /// it by site, then window, then bucket.
  static constexpr unsigned SiteShift = 32;
  static constexpr unsigned WindowShift = 7;
  static constexpr uint64_t BucketMask = (uint64_t(1) << WindowShift) - 1;
  /// The window field's capacity: 25 bits between bucket and site.
  static constexpr uint64_t MaxWindows = uint64_t(1)
                                         << (SiteShift - WindowShift);

  /// The default window width: the smallest power of two giving at most
  /// 64 windows over \p EndClock — deterministic, and coarse enough that
  /// the per-site divergence scores have objects to work with.
  static uint64_t autoWindowBytes(uint64_t EndClock);

  /// Throws std::invalid_argument when the geometry needs more than
  /// MaxWindows windows, before allocating anything.
  explicit DriftObservatory(const DriftConfig &C);

  const DriftConfig &config() const { return Cfg; }
  uint64_t windowBytes() const { return Width; }
  uint64_t endClock() const { return Cfg.EndClock; }
  uint64_t threshold() const { return Cfg.Threshold; }
  uint64_t windowCount() const { return Counters.size() / LaneCount; }
  uint64_t totalObjects() const { return Log.size(); }

  /// Records one allocation outcome.  \p BirthClock is the byte clock
  /// after the allocation (the schedule convention); \p Lifetime is the
  /// traced lifetime, clamped here to the bytes remaining until EndClock
  /// (so NeverFreed needs no special casing); \p ActuallyShort is the
  /// caller's classification, passed explicitly so each simulator's own
  /// threshold semantics (single threshold, band thresholds) are
  /// reproduced exactly.
  void recordAlloc(uint64_t BirthClock, uint32_t Site, uint32_t Size,
                   bool PredictedShort, uint64_t Lifetime,
                   bool ActuallyShort);

  /// Counter \p L of window \p Window (< windowCount()).
  uint64_t counter(uint64_t Window, Lane L) const {
    return Counters[Window * LaneCount + L];
  }

  /// One entry per recorded allocation, in recording order.
  const std::vector<uint64_t> &lifetimeLog() const { return Log; }

  bool operator==(const DriftObservatory &Other) const = default;

private:
  DriftConfig Cfg;
  uint64_t Width = 1;
  /// windowCount() * LaneCount, window-major.
  std::vector<uint64_t> Counters;
  std::vector<uint64_t> Log;
};

/// One window row of the drift report.
struct DriftWindowRow {
  uint64_t StartClock = 0; ///< Inclusive.
  uint64_t EndClock = 0;   ///< Exclusive.
  uint64_t TrueShort = 0;
  uint64_t FalseShort = 0;
  uint64_t MissedShort = 0;
  uint64_t TrueLong = 0;
  uint64_t FalseShortBytes = 0;
  uint64_t MissedShortBytes = 0;
  uint64_t PinnedBytes = 0;
  uint64_t total() const {
    return TrueShort + FalseShort + MissedShort + TrueLong;
  }
  /// -1 when the window saw no allocations.
  int64_t AccuracyPpm = -1;
  bool ChangePoint = false;

  bool operator==(const DriftWindowRow &Other) const = default;
};

/// One scored (site, window) divergence.
struct DriftSiteScore {
  uint32_t Site = 0;
  uint64_t Window = 0;
  uint64_t Objects = 0;
  uint64_t ObsQ50 = 0;
  double TrainQ50 = -1.0;
  /// lifetimeDriftScore of the window's observed p25/p50/p75.
  double Score = 0.0;
};

/// Analysis knobs; the defaults are what `trace_tool drift` and the
/// benches use, so the gated baselines pin them.
struct DriftReportOptions {
  /// CUSUM slack per window, in ppm of accuracy (deviations smaller than
  /// this never accumulate).
  int64_t CusumSlackPpm = 20000;
  /// CUSUM decision threshold, in ppm — a sustained 5-point accuracy
  /// shift trips it within a handful of windows.
  int64_t CusumDecisionPpm = 100000;
  /// Minimum observed objects before a (site, window) is scored.
  uint64_t MinSiteWindowObjects = 4;
  /// Scored rows kept in TopSites.
  size_t TopSites = 5;
};

/// The complete time-resolved drift analysis.
struct DriftReport {
  std::string Label;
  uint64_t WindowBytes = 0;
  uint64_t EndClock = 0;
  uint64_t Threshold = 0;
  uint64_t TotalObjects = 0;
  uint64_t TrueShort = 0;
  uint64_t FalseShort = 0;
  uint64_t MissedShort = 0;
  uint64_t TrueLong = 0;
  uint64_t FalseShortBytes = 0;
  uint64_t MissedShortBytes = 0;
  uint64_t PinnedBytes = 0;
  int64_t MeanAccuracyPpm = -1;
  uint64_t SiteCount = 0;
  uint64_t ScoredSiteWindows = 0;
  std::vector<DriftWindowRow> Windows;
  std::vector<uint64_t> ChangePointWindows;
  /// Ranked by Score descending (ties: Site asc, Window asc).
  std::vector<DriftSiteScore> TopSites;

  bool hasWorstSite() const { return !TopSites.empty(); }
  const DriftSiteScore &worstSite() const { return TopSites.front(); }
  uint64_t changePointCount() const { return ChangePointWindows.size(); }
};

/// Builds the report: window rows, CUSUM change points, and (when
/// \p Trained is non-null) per-site observed-vs-trained divergence.
DriftReport buildDriftReport(const DriftObservatory &Obs,
                             const TrainedQuantileMap *Trained = nullptr,
                             std::string Label = "",
                             const DriftReportOptions &Options = {});

/// Prints the human-readable drift report with per-window sparklines.
void printDriftReport(const DriftReport &Report, std::FILE *Out);

/// Unicode sparkline of \p Series scaled to its own min/max: one block
/// character per window in printDriftReport's rows.
std::string sparkline(const std::vector<double> &Series);

/// Appends the report as a fully ordered JSON object (byte-identical for
/// byte-identical reports).  \p Indent prefixes every emitted line.
void writeDriftJson(const DriftReport &Report, std::string &Out,
                    const std::string &Indent);

/// Folds the headline numbers into \p Registry under \p Prefix: window
/// and change-point counts, confusion totals, cost bytes as counters;
/// mean accuracy, worst site id/window and its score (milli-units, so the
/// metric stays integer-gateable) as gauges.
void exportDriftTelemetry(const DriftReport &Report, StatsRegistry &Registry,
                          const std::string &Prefix = "drift.");

/// Emits the report as a chrome://tracing track \p Track (byte time on
/// the microsecond axis): one complete span per non-empty window named
/// with its accuracy, plus an instant per change point.
void emitDriftTrack(const DriftReport &Report, TraceEventWriter &Writer,
                    unsigned Track);

} // namespace lifepred

#endif // LIFEPRED_TELEMETRY_DRIFTOBSERVATORY_H
