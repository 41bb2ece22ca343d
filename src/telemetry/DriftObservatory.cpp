//===- telemetry/DriftObservatory.cpp - Prediction drift tracking ----------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "telemetry/DriftObservatory.h"

#include "telemetry/StatsRegistry.h"
#include "telemetry/TraceEventWriter.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdarg>
#include <stdexcept>

using namespace lifepred;

uint64_t DriftObservatory::autoWindowBytes(uint64_t EndClock) {
  return std::bit_ceil(EndClock / 64 + 1);
}

DriftObservatory::DriftObservatory(const DriftConfig &C) : Cfg(C) {
  Width = Cfg.WindowBytes != 0 ? Cfg.WindowBytes
                               : autoWindowBytes(Cfg.EndClock);
  if (Cfg.EndClock / Width >= MaxWindows)
    throw std::invalid_argument(
        "drift observatory: WindowBytes " + std::to_string(Width) +
        " needs more than 2^25 windows to reach end clock " +
        std::to_string(Cfg.EndClock));
  Counters.assign((Cfg.EndClock / Width + 1) * LaneCount, 0);
}

void DriftObservatory::recordAlloc(uint64_t BirthClock, uint32_t Site,
                                   uint32_t Size, bool PredictedShort,
                                   uint64_t Lifetime, bool ActuallyShort) {
  uint64_t Birth = std::min(BirthClock, Cfg.EndClock);
  uint64_t AtExit = Cfg.EndClock - Birth;
  // The profiler's effectiveLifetime convention: never-freed and
  // past-the-end deaths clamp to exit, zero lifetimes become one, so the
  // observed histograms are comparable with trained quantiles.
  uint64_t Observed = std::min(Lifetime, AtExit);
  if (Observed == 0)
    Observed = 1;

  uint64_t Window = Birth / Width;
  uint64_t *Row = &Counters[Window * LaneCount];
  ++Row[PredictedShort ? (ActuallyShort ? LaneTrueShort : LaneFalseShort)
                       : (ActuallyShort ? LaneMissedShort : LaneTrueLong)];
  Log.push_back(uint64_t(Site) << SiteShift | Window << WindowShift |
                Log2Histogram::bucketIndex(Observed));

  if (PredictedShort && !ActuallyShort) {
    Row[LaneFalseShortBytes] += Size;
    // The object pins its arena from the moment it outstays the
    // threshold until its (exit-clamped) death.
    uint64_t PinStart = Birth + std::min(Cfg.Threshold, AtExit);
    uint64_t PinEnd = Birth + Observed;
    if (PinEnd > PinStart) {
      uint64_t First = PinStart / Width;
      uint64_t Last = (PinEnd - 1) / Width;
      for (uint64_t W = First; W <= Last; ++W)
        Counters[W * LaneCount + LanePinnedBytes] += Size;
    }
  } else if (!PredictedShort && ActuallyShort) {
    Row[LaneMissedShortBytes] += Size;
  }
}

//===----------------------------------------------------------------------===//
// Report building
//===----------------------------------------------------------------------===//

DriftReport lifepred::buildDriftReport(const DriftObservatory &Obs,
                                       const TrainedQuantileMap *Trained,
                                       std::string Label,
                                       const DriftReportOptions &Options) {
  DriftReport R;
  R.Label = std::move(Label);
  R.WindowBytes = Obs.windowBytes();
  R.EndClock = Obs.endClock();
  R.Threshold = Obs.threshold();
  R.TotalObjects = Obs.totalObjects();

  uint64_t N = Obs.windowCount();
  R.Windows.resize(N);
  for (uint64_t W = 0; W < N; ++W) {
    DriftWindowRow &Row = R.Windows[W];
    Row.StartClock = W * R.WindowBytes;
    Row.EndClock = Row.StartClock + R.WindowBytes;
    Row.TrueShort = Obs.counter(W, DriftObservatory::LaneTrueShort);
    Row.FalseShort = Obs.counter(W, DriftObservatory::LaneFalseShort);
    Row.MissedShort = Obs.counter(W, DriftObservatory::LaneMissedShort);
    Row.TrueLong = Obs.counter(W, DriftObservatory::LaneTrueLong);
    Row.FalseShortBytes =
        Obs.counter(W, DriftObservatory::LaneFalseShortBytes);
    Row.MissedShortBytes =
        Obs.counter(W, DriftObservatory::LaneMissedShortBytes);
    Row.PinnedBytes = Obs.counter(W, DriftObservatory::LanePinnedBytes);
    uint64_t Total = Row.total();
    if (Total != 0)
      Row.AccuracyPpm = static_cast<int64_t>(
          (Row.TrueShort + Row.TrueLong) * 1000000 / Total);
    R.TrueShort += Row.TrueShort;
    R.FalseShort += Row.FalseShort;
    R.MissedShort += Row.MissedShort;
    R.TrueLong += Row.TrueLong;
    R.FalseShortBytes += Row.FalseShortBytes;
    R.MissedShortBytes += Row.MissedShortBytes;
    R.PinnedBytes += Row.PinnedBytes;
  }
  uint64_t Total = R.TrueShort + R.FalseShort + R.MissedShort + R.TrueLong;
  if (Total != 0)
    R.MeanAccuracyPpm = static_cast<int64_t>(
        (R.TrueShort + R.TrueLong) * 1000000 / Total);

  // Two-sided CUSUM over per-window accuracy, in integer ppm so the flags
  // are bit-identical across platforms.  S+ accumulates shortfall below
  // the run mean, S- excess above it; a trip flags the window and resets
  // both sums, so several distinct shifts each get localized.
  if (R.MeanAccuracyPpm >= 0) {
    int64_t SPlus = 0;
    int64_t SMinus = 0;
    for (uint64_t W = 0; W < N; ++W) {
      DriftWindowRow &Row = R.Windows[W];
      if (Row.AccuracyPpm < 0)
        continue;
      int64_t Shortfall = R.MeanAccuracyPpm - Row.AccuracyPpm;
      SPlus = std::max<int64_t>(0, SPlus + Shortfall - Options.CusumSlackPpm);
      SMinus =
          std::max<int64_t>(0, SMinus - Shortfall - Options.CusumSlackPpm);
      if (SPlus > Options.CusumDecisionPpm ||
          SMinus > Options.CusumDecisionPpm) {
        Row.ChangePoint = true;
        R.ChangePointWindows.push_back(W);
        SPlus = 0;
        SMinus = 0;
      }
    }
  }

  constexpr unsigned SiteShift = DriftObservatory::SiteShift;
  constexpr unsigned WindowShift = DriftObservatory::WindowShift;
  // Site ids are chain indices, dense from 0, so a seen-bitmap counts the
  // distinct sites in one pass over the log, with no copy and no sort.
  std::vector<uint64_t> SeenSites;
  for (uint64_t Entry : Obs.lifetimeLog()) {
    uint64_t Site = Entry >> SiteShift;
    if (Site / 64 >= SeenSites.size())
      SeenSites.resize(Site / 64 + 1);
    SeenSites[Site / 64] |= uint64_t(1) << (Site % 64);
  }
  for (uint64_t Word : SeenSites)
    R.SiteCount += std::popcount(Word);
  if (!Trained)
    return R;

  // Two stable counting passes, by window and then by site (both dense
  // ids), group the lifetime log into one run per (site, window),
  // site-major and window-ascending, in O(entries + windows + sites).  The
  // order within a run does not matter: a run only fills a histogram.
  auto CountingPass = [](const std::vector<uint64_t> &From, size_t Keys,
                         auto KeyOf) {
    std::vector<size_t> Start(Keys + 1, 0);
    for (uint64_t Entry : From)
      ++Start[KeyOf(Entry) + 1];
    for (size_t K = 1; K <= Keys; ++K)
      Start[K] += Start[K - 1];
    std::vector<uint64_t> To(From.size());
    for (uint64_t Entry : From)
      To[Start[KeyOf(Entry)]++] = Entry;
    return To;
  };
  std::vector<uint64_t> Log = CountingPass(
      CountingPass(Obs.lifetimeLog(), Obs.windowCount(),
                   [](uint64_t Entry) {
                     return (Entry >> WindowShift) &
                            (DriftObservatory::MaxWindows - 1);
                   }),
      SeenSites.size() * 64,
      [](uint64_t Entry) { return Entry >> SiteShift; });
  std::vector<DriftSiteScore> Scored;
  for (size_t Begin = 0, End = 0; Begin < Log.size(); Begin = End) {
    uint64_t SiteWindow = Log[Begin] >> WindowShift;
    while (End < Log.size() && Log[End] >> WindowShift == SiteWindow)
      ++End;
    if (End - Begin < Options.MinSiteWindowObjects)
      continue;
    uint32_t Site = static_cast<uint32_t>(Log[Begin] >> SiteShift);
    auto It = Trained->find(Site);
    if (It == Trained->end())
      continue;
    const TrainedSiteQuantiles &Q = It->second;
    if (Q.Q25 < 0 && Q.Q50 < 0 && Q.Q75 < 0)
      continue;
    Log2Histogram Hist;
    for (size_t I = Begin; I < End; ++I)
      Hist.record(Log2Histogram::bucketLow(
          static_cast<unsigned>(Log[I] & DriftObservatory::BucketMask)));
    DriftSiteScore S;
    S.Site = Site;
    S.Window = SiteWindow & (DriftObservatory::MaxWindows - 1);
    S.Objects = End - Begin;
    S.ObsQ50 = Hist.quantileLowerBound(0.50);
    S.TrainQ50 = Q.Q50;
    S.Score = lifetimeDriftScore(Hist.quantileLowerBound(0.25), S.ObsQ50,
                                 Hist.quantileLowerBound(0.75), Q);
    Scored.push_back(S);
    ++R.ScoredSiteWindows;
  }
  std::sort(Scored.begin(), Scored.end(),
            [](const DriftSiteScore &A, const DriftSiteScore &B) {
              if (A.Score != B.Score)
                return A.Score > B.Score;
              if (A.Site != B.Site)
                return A.Site < B.Site;
              return A.Window < B.Window;
            });
  if (Scored.size() > Options.TopSites)
    Scored.resize(Options.TopSites);
  R.TopSites = std::move(Scored);
  return R;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

std::string lifepred::sparkline(const std::vector<double> &Series) {
  static const char *Blocks[] = {"▁", "▂", "▃", "▄",
                                 "▅", "▆", "▇", "█"};
  if (Series.empty())
    return "";
  double Min = Series[0], Max = Series[0];
  for (double V : Series) {
    Min = std::min(Min, V);
    Max = std::max(Max, V);
  }
  std::string Out;
  for (double V : Series) {
    size_t Level =
        Max == Min
            ? 0
            : static_cast<size_t>((V - Min) / (Max - Min) * 7.0 + 0.5);
    Out += Blocks[std::min<size_t>(Level, 7)];
  }
  return Out;
}

namespace {

uint64_t sumPinned(const DriftReport &Report) { return Report.PinnedBytes; }

std::string accuracySpark(const DriftReport &Report) {
  std::vector<double> Series;
  Series.reserve(Report.Windows.size());
  for (const DriftWindowRow &Row : Report.Windows)
    Series.push_back(Row.AccuracyPpm < 0
                         ? 0.0
                         : static_cast<double>(Row.AccuracyPpm));
  return sparkline(Series);
}

std::string pinnedSpark(const DriftReport &Report) {
  std::vector<double> Series;
  Series.reserve(Report.Windows.size());
  for (const DriftWindowRow &Row : Report.Windows)
    Series.push_back(static_cast<double>(Row.PinnedBytes));
  return sparkline(Series);
}

} // namespace

void lifepred::printDriftReport(const DriftReport &Report, std::FILE *Out) {
  std::fprintf(Out, "== drift: %s ==\n", Report.Label.c_str());
  std::fprintf(Out,
               "windows: %zu x %llu B  (end clock %llu B, threshold %llu "
               "B)\n",
               Report.Windows.size(),
               static_cast<unsigned long long>(Report.WindowBytes),
               static_cast<unsigned long long>(Report.EndClock),
               static_cast<unsigned long long>(Report.Threshold));
  std::fprintf(Out,
               "objects: %llu  sites: %llu  accuracy: %.2f%% mean (%lld "
               "ppm)\n",
               static_cast<unsigned long long>(Report.TotalObjects),
               static_cast<unsigned long long>(Report.SiteCount),
               Report.MeanAccuracyPpm < 0
                   ? 0.0
                   : static_cast<double>(Report.MeanAccuracyPpm) / 10000.0,
               static_cast<long long>(Report.MeanAccuracyPpm));
  std::fprintf(Out, "accuracy/window     %s\n",
               accuracySpark(Report).c_str());
  std::fprintf(Out, "pinned bytes/window %s  (total %llu B)\n",
               pinnedSpark(Report).c_str(),
               static_cast<unsigned long long>(sumPinned(Report)));
  std::fprintf(Out,
               "confusion: ts %llu fs %llu ms %llu tl %llu  cost: "
               "false_short %llu B, missed_short %llu B\n",
               static_cast<unsigned long long>(Report.TrueShort),
               static_cast<unsigned long long>(Report.FalseShort),
               static_cast<unsigned long long>(Report.MissedShort),
               static_cast<unsigned long long>(Report.TrueLong),
               static_cast<unsigned long long>(Report.FalseShortBytes),
               static_cast<unsigned long long>(Report.MissedShortBytes));
  std::fprintf(Out, "change points: %llu",
               static_cast<unsigned long long>(Report.changePointCount()));
  for (uint64_t W : Report.ChangePointWindows)
    std::fprintf(Out, "  w%llu@%llu", static_cast<unsigned long long>(W),
                 static_cast<unsigned long long>(W * Report.WindowBytes));
  std::fprintf(Out, "\n");
  if (Report.hasWorstSite()) {
    const DriftSiteScore &Worst = Report.worstSite();
    std::fprintf(Out,
                 "worst drift site: %llu @ w%llu  score %.3f  (obs q50 "
                 "%llu vs trained q50 %.0f, %llu objects)\n",
                 static_cast<unsigned long long>(Worst.Site),
                 static_cast<unsigned long long>(Worst.Window), Worst.Score,
                 static_cast<unsigned long long>(Worst.ObsQ50),
                 Worst.TrainQ50,
                 static_cast<unsigned long long>(Worst.Objects));
    if (Report.TopSites.size() > 1) {
      std::fprintf(Out, "top drift (site, window):\n");
      for (const DriftSiteScore &S : Report.TopSites)
        std::fprintf(Out,
                     "  site %-10llu w%-4llu score %-8.3f objects %llu\n",
                     static_cast<unsigned long long>(S.Site),
                     static_cast<unsigned long long>(S.Window), S.Score,
                     static_cast<unsigned long long>(S.Objects));
    }
  } else if (Report.ScoredSiteWindows == 0) {
    std::fprintf(Out, "worst drift site: none scored\n");
  }
}

namespace {

void appendLine(std::string &Out, const std::string &Indent,
                const char *Format, ...) {
  char Buffer[512];
  va_list Args;
  va_start(Args, Format);
  std::vsnprintf(Buffer, sizeof(Buffer), Format, Args);
  va_end(Args);
  Out += Indent;
  Out += Buffer;
}

void appendSiteScore(std::string &Out, const std::string &Indent,
                     const DriftSiteScore &S, bool Comma) {
  appendLine(Out, Indent,
             "{\"site\": %llu, \"window\": %llu, \"objects\": %llu, "
             "\"obs_q50\": %llu, \"train_q50\": %.6g, \"score\": %.6g}%s\n",
             static_cast<unsigned long long>(S.Site),
             static_cast<unsigned long long>(S.Window),
             static_cast<unsigned long long>(S.Objects),
             static_cast<unsigned long long>(S.ObsQ50), S.TrainQ50, S.Score,
             Comma ? "," : "");
}

} // namespace

void lifepred::writeDriftJson(const DriftReport &Report, std::string &Out,
                              const std::string &Indent) {
  const std::string In1 = Indent + "  ";
  const std::string In2 = Indent + "    ";
  Out += Indent + "{\n";
  appendLine(Out, In1, "\"label\": \"%s\",\n", Report.Label.c_str());
  appendLine(Out, In1, "\"window_bytes\": %llu,\n",
             static_cast<unsigned long long>(Report.WindowBytes));
  appendLine(Out, In1, "\"end_clock\": %llu,\n",
             static_cast<unsigned long long>(Report.EndClock));
  appendLine(Out, In1, "\"threshold\": %llu,\n",
             static_cast<unsigned long long>(Report.Threshold));
  appendLine(Out, In1, "\"windows\": %zu,\n", Report.Windows.size());
  appendLine(Out, In1, "\"objects\": %llu,\n",
             static_cast<unsigned long long>(Report.TotalObjects));
  appendLine(Out, In1, "\"sites\": %llu,\n",
             static_cast<unsigned long long>(Report.SiteCount));
  appendLine(Out, In1, "\"true_short\": %llu,\n",
             static_cast<unsigned long long>(Report.TrueShort));
  appendLine(Out, In1, "\"false_short\": %llu,\n",
             static_cast<unsigned long long>(Report.FalseShort));
  appendLine(Out, In1, "\"missed_short\": %llu,\n",
             static_cast<unsigned long long>(Report.MissedShort));
  appendLine(Out, In1, "\"true_long\": %llu,\n",
             static_cast<unsigned long long>(Report.TrueLong));
  appendLine(Out, In1, "\"false_short_bytes\": %llu,\n",
             static_cast<unsigned long long>(Report.FalseShortBytes));
  appendLine(Out, In1, "\"missed_short_bytes\": %llu,\n",
             static_cast<unsigned long long>(Report.MissedShortBytes));
  appendLine(Out, In1, "\"pinned_bytes\": %llu,\n",
             static_cast<unsigned long long>(Report.PinnedBytes));
  appendLine(Out, In1, "\"accuracy_mean_ppm\": %lld,\n",
             static_cast<long long>(Report.MeanAccuracyPpm));
  appendLine(Out, In1, "\"changepoint_count\": %llu,\n",
             static_cast<unsigned long long>(Report.changePointCount()));
  Out += In1 + "\"changepoints\": [";
  for (size_t I = 0; I < Report.ChangePointWindows.size(); ++I) {
    if (I != 0)
      Out += ", ";
    appendLine(Out, "", "%llu",
               static_cast<unsigned long long>(Report.ChangePointWindows[I]));
  }
  Out += "],\n";
  appendLine(Out, In1, "\"scored_site_windows\": %llu,\n",
             static_cast<unsigned long long>(Report.ScoredSiteWindows));
  if (Report.hasWorstSite()) {
    Out += In1 + "\"worst_site\":\n";
    appendSiteScore(Out, In2, Report.worstSite(), /*Comma=*/true);
  } else {
    Out += In1 + "\"worst_site\": null,\n";
  }
  Out += In1 + "\"top_sites\": [";
  if (!Report.TopSites.empty()) {
    Out += "\n";
    for (size_t I = 0; I < Report.TopSites.size(); ++I)
      appendSiteScore(Out, In2, Report.TopSites[I],
                      I + 1 != Report.TopSites.size());
    Out += In1;
  }
  Out += "],\n";
  Out += In1 + "\"series\": [";
  for (size_t W = 0; W < Report.Windows.size(); ++W) {
    const DriftWindowRow &Row = Report.Windows[W];
    Out += W == 0 ? "\n" : ",\n";
    appendLine(Out, In2,
               "{\"w\": %zu, \"start\": %llu, \"ts\": %llu, \"fs\": %llu, "
               "\"ms\": %llu, \"tl\": %llu, \"acc_ppm\": %lld, "
               "\"false_short_bytes\": %llu, \"missed_short_bytes\": %llu, "
               "\"pinned_bytes\": %llu, \"changepoint\": %s}",
               W, static_cast<unsigned long long>(Row.StartClock),
               static_cast<unsigned long long>(Row.TrueShort),
               static_cast<unsigned long long>(Row.FalseShort),
               static_cast<unsigned long long>(Row.MissedShort),
               static_cast<unsigned long long>(Row.TrueLong),
               static_cast<long long>(Row.AccuracyPpm),
               static_cast<unsigned long long>(Row.FalseShortBytes),
               static_cast<unsigned long long>(Row.MissedShortBytes),
               static_cast<unsigned long long>(Row.PinnedBytes),
               Row.ChangePoint ? "true" : "false");
  }
  if (!Report.Windows.empty()) {
    Out += "\n";
    Out += In1;
  }
  Out += "]\n";
  Out += Indent + "}";
}

void lifepred::exportDriftTelemetry(const DriftReport &Report,
                                    StatsRegistry &Registry,
                                    const std::string &Prefix) {
  Registry.counter(Prefix + "windows") += Report.Windows.size();
  Registry.counter(Prefix + "objects") += Report.TotalObjects;
  Registry.counter(Prefix + "changepoints") += Report.changePointCount();
  Registry.counter(Prefix + "true_short") += Report.TrueShort;
  Registry.counter(Prefix + "false_short") += Report.FalseShort;
  Registry.counter(Prefix + "missed_short") += Report.MissedShort;
  Registry.counter(Prefix + "true_long") += Report.TrueLong;
  Registry.counter(Prefix + "false_short_bytes") += Report.FalseShortBytes;
  Registry.counter(Prefix + "missed_short_bytes") += Report.MissedShortBytes;
  Registry.counter(Prefix + "pinned_bytes") += Report.PinnedBytes;
  Registry.counter(Prefix + "scored_site_windows") +=
      Report.ScoredSiteWindows;
  uint64_t &Sites = Registry.gauge(Prefix + "sites");
  Sites = std::max(Sites, Report.SiteCount);
  uint64_t &Mean = Registry.gauge(Prefix + "accuracy_mean_ppm");
  Mean = std::max(Mean, static_cast<uint64_t>(
                            std::max<int64_t>(0, Report.MeanAccuracyPpm)));
  if (Report.hasWorstSite()) {
    const DriftSiteScore &Worst = Report.worstSite();
    uint64_t &Site = Registry.gauge(Prefix + "worst_site");
    Site = std::max(Site, static_cast<uint64_t>(Worst.Site));
    uint64_t &Window = Registry.gauge(Prefix + "worst_site_window");
    Window = std::max(Window, Worst.Window);
    uint64_t &Milli = Registry.gauge(Prefix + "worst_site_score_milli");
    Milli = std::max(
        Milli, static_cast<uint64_t>(std::llround(Worst.Score * 1000.0)));
  }
}

void lifepred::emitDriftTrack(const DriftReport &Report,
                              TraceEventWriter &Writer, unsigned Track) {
  char Name[96];
  for (size_t W = 0; W < Report.Windows.size(); ++W) {
    const DriftWindowRow &Row = Report.Windows[W];
    if (Row.AccuracyPpm >= 0) {
      std::snprintf(Name, sizeof(Name), "%s acc %lld ppm",
                    Report.Label.c_str(),
                    static_cast<long long>(Row.AccuracyPpm));
      Writer.complete(Name, "drift", Track, Row.StartClock,
                      Report.WindowBytes);
    }
    if (Row.PinnedBytes != 0) {
      std::snprintf(Name, sizeof(Name), "%s pinned %llu B",
                    Report.Label.c_str(),
                    static_cast<unsigned long long>(Row.PinnedBytes));
      Writer.complete(Name, "drift", Track + 1, Row.StartClock,
                      Report.WindowBytes);
    }
    if (Row.ChangePoint) {
      std::snprintf(Name, sizeof(Name), "%s changepoint w%zu",
                    Report.Label.c_str(), W);
      Writer.instantAt(Name, "drift", Track, Row.StartClock);
    }
  }
}
