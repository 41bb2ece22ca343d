//===- telemetry/ReportDiff.cpp - Bench report regression diff -------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "telemetry/ReportDiff.h"

#include "support/Json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

using namespace lifepred;

bool lifepred::isTimingMetric(std::string_view Key) {
  return Key.find("seconds") != std::string_view::npos ||
         Key.find("per_sec") != std::string_view::npos ||
         Key.find("speedup") != std::string_view::npos ||
         Key.find("latency") != std::string_view::npos;
}

bool lifepred::isContentionMetric(std::string_view Key) {
  return Key.find("contention") != std::string_view::npos ||
         Key.find("cas_retries") != std::string_view::npos ||
         Key.find("queue_depth") != std::string_view::npos ||
         Key.find("drain_depth") != std::string_view::npos ||
         Key.find("imbalance") != std::string_view::npos;
}

bool lifepred::isOnlineMetric(std::string_view Key) {
  return Key.find("online.") != std::string_view::npos ||
         Key.find("retrain.") != std::string_view::npos;
}

bool lifepred::globMatch(std::string_view Pattern, std::string_view Text) {
  // Iterative matcher with single-star backtracking: on mismatch, retry
  // from the most recent '*' with one more character consumed.  Linear in
  // practice for metric-key patterns.
  size_t P = 0, T = 0;
  size_t StarP = std::string_view::npos, StarT = 0;
  while (T < Text.size()) {
    if (P < Pattern.size() &&
        (Pattern[P] == '?' || Pattern[P] == Text[T])) {
      ++P;
      ++T;
    } else if (P < Pattern.size() && Pattern[P] == '*') {
      StarP = P++;
      StarT = T;
    } else if (StarP != std::string_view::npos) {
      P = StarP + 1;
      T = ++StarT;
    } else {
      return false;
    }
  }
  while (P < Pattern.size() && Pattern[P] == '*')
    ++P;
  return P == Pattern.size();
}

namespace {

/// Flattened numeric metrics of one report, in a name-sorted map so the
/// comparison (and its printed output) is deterministic.
using MetricMap = std::map<std::string, double>;

void collectObject(const JsonValue *Object, const std::string &Prefix,
                   MetricMap &Out) {
  if (!Object || !Object->isObject())
    return;
  for (const auto &[Name, Value] : Object->members())
    if (Value.isNumber())
      Out[Prefix + Name] = Value.number();
}

MetricMap flattenReport(const JsonValue &Report) {
  MetricMap Metrics;
  // Top-level numerics that describe the run's result (schema_version is
  // compared separately; manifest members are provenance, not metrics).
  for (const char *Key : {"events", "wall_seconds", "events_per_sec"})
    if (const JsonValue *Value = Report.find(Key); Value && Value->isNumber())
      Metrics[Key] = Value->number();

  collectObject(Report.find("values"), "values.", Metrics);
  if (const JsonValue *Telemetry = Report.find("telemetry")) {
    collectObject(Telemetry->find("counters"), "telemetry.counters.",
                  Metrics);
    collectObject(Telemetry->find("gauges"), "telemetry.gauges.", Metrics);
    if (const JsonValue *Histograms = Telemetry->find("histograms");
        Histograms && Histograms->isObject()) {
      for (const auto &[Name, Histogram] : Histograms->members()) {
        std::string Prefix = "telemetry.histograms." + Name + ".";
        for (const char *Field : {"count", "sum", "p50", "p90", "p99"})
          if (const JsonValue *Value = Histogram.find(Field);
              Value && Value->isNumber())
            Metrics[Prefix + Field] = Value->number();
      }
    }
  }
  return Metrics;
}

double relativeDelta(double Old, double New) {
  double Magnitude = std::max(std::fabs(Old), std::fabs(New));
  if (Magnitude == 0.0)
    return 0.0;
  return std::fabs(New - Old) / Magnitude;
}

void compareManifest(const JsonValue &Old, const JsonValue &New,
                     DiffResult &Result) {
  double OldSchema = Old.numberOr("schema_version", 0);
  double NewSchema = New.numberOr("schema_version", 0);
  if (OldSchema != NewSchema)
    Result.Notes.push_back("schema_version differs: " +
                           std::to_string(static_cast<int>(OldSchema)) +
                           " vs " +
                           std::to_string(static_cast<int>(NewSchema)));
  const JsonValue *OldManifest = Old.find("manifest");
  const JsonValue *NewManifest = New.find("manifest");
  if (!OldManifest || !NewManifest || !OldManifest->isObject() ||
      !NewManifest->isObject())
    return;
  for (const auto &[Name, Value] : OldManifest->members()) {
    const JsonValue *Other = NewManifest->find(Name);
    if (!Other)
      continue;
    std::string OldText, NewText;
    if (Value.isString() && Other->isString()) {
      OldText = Value.string();
      NewText = Other->string();
    } else if (Value.isNumber() && Other->isNumber()) {
      if (Value.number() == Other->number())
        continue;
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%g", Value.number());
      OldText = Buf;
      std::snprintf(Buf, sizeof(Buf), "%g", Other->number());
      NewText = Buf;
    } else {
      continue;
    }
    if (OldText != NewText)
      Result.Notes.push_back("manifest." + Name + ": \"" + OldText +
                             "\" vs \"" + NewText + "\"");
  }
}

} // namespace

DiffResult lifepred::diffReports(const JsonValue &Old, const JsonValue &New,
                                 const DiffOptions &Options) {
  DiffResult Result;
  compareManifest(Old, New, Result);

  MetricMap OldMetrics = flattenReport(Old);
  MetricMap NewMetrics = flattenReport(New);

  if (!Options.IgnoreGlobs.empty()) {
    auto Erase = [&](MetricMap &Metrics, bool Count) {
      for (auto It = Metrics.begin(); It != Metrics.end();) {
        bool Matched = false;
        for (const std::string &Glob : Options.IgnoreGlobs)
          if (globMatch(Glob, It->first)) {
            Matched = true;
            break;
          }
        if (Matched) {
          if (Count)
            ++Result.Ignored;
          It = Metrics.erase(It);
        } else {
          ++It;
        }
      }
    };
    Erase(OldMetrics, /*Count=*/true);
    Erase(NewMetrics, /*Count=*/false);
  }

  for (const auto &[Key, OldValue] : OldMetrics) {
    auto It = NewMetrics.find(Key);
    if (It == NewMetrics.end()) {
      Result.MissingInNew.push_back(Key);
      continue;
    }
    // Contention metrics share the timing class: both measure the run,
    // not the allocator, so both default to not-compared.  Online-
    // prediction metrics are deterministic by contract, so they stay in
    // the strictly-gated value class unless the key itself is a timing
    // measurement (latency, seconds, per_sec).
    bool Timing = isTimingMetric(Key) ||
                  (!isOnlineMetric(Key) && isContentionMetric(Key));
    double Tolerance =
        Timing ? Options.TimeTolerance : Options.ValueTolerance;
    if (Tolerance < 0.0)
      continue; // This class is not compared.
    ++Result.Compared;
    double Delta = relativeDelta(OldValue, It->second);
    if (Delta > Tolerance)
      Result.Drifted.push_back({Key, OldValue, It->second, Delta, Timing});
  }
  for (const auto &[Key, NewValue] : NewMetrics) {
    (void)NewValue;
    if (!OldMetrics.count(Key))
      Result.OnlyInNew.push_back(Key);
  }
  return Result;
}

namespace {

std::optional<JsonValue> loadReport(const std::string &Path) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
    return std::nullopt;
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  std::optional<JsonValue> Report = parseJson(Buffer.str());
  if (!Report || !Report->isObject()) {
    std::fprintf(stderr, "error: %s is not a JSON report\n", Path.c_str());
    return std::nullopt;
  }
  return Report;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_compare <old.json> <new.json> [--tol=R] "
               "[--time-tol=R] [--ignore=GLOB]... [--quiet]\n"
               "  --tol=R       relative tolerance for value metrics "
               "(default 1e-9)\n"
               "  --time-tol=R  relative tolerance for timing and "
               "contention metrics (default: not compared)\n"
               "  --ignore=GLOB exclude matching metric keys from the diff "
               "('*' any run, '?' one char); repeatable\n"
               "exit status: 0 no regression, 1 regression, 2 bad "
               "invocation or unreadable input\n");
  return 2;
}

/// Parses the value of tolerance flag \p Arg (from \p Prefix on) into
/// \p Out: a finite, non-negative number with nothing after it.  atof
/// would read "abc" as 0, a silent exact gate, and "1e-9x" as 1e-9.
bool parseTolerance(const std::string &Arg, size_t Prefix, double &Out) {
  const char *Begin = Arg.c_str() + Prefix;
  char *End = nullptr;
  double Value = std::strtod(Begin, &End);
  if (End == Begin || *End != '\0' || !std::isfinite(Value) || Value < 0) {
    std::fprintf(stderr, "error: %s: want a non-negative number\n",
                 Arg.c_str());
    return false;
  }
  Out = Value;
  return true;
}

} // namespace

int lifepred::runBenchCompare(const std::vector<std::string> &Args) {
  std::vector<std::string> Paths;
  DiffOptions Options;
  bool Quiet = false;
  for (const std::string &Arg : Args) {
    if (Arg.rfind("--tol=", 0) == 0) {
      if (!parseTolerance(Arg, 6, Options.ValueTolerance))
        return 2;
    } else if (Arg.rfind("--time-tol=", 0) == 0) {
      if (!parseTolerance(Arg, 11, Options.TimeTolerance))
        return 2;
    } else if (Arg.rfind("--ignore=", 0) == 0)
      Options.IgnoreGlobs.push_back(Arg.substr(9));
    else if (Arg == "--quiet")
      Quiet = true;
    else if (Arg.rfind("--", 0) == 0)
      return usage();
    else
      Paths.push_back(Arg);
  }
  if (Paths.size() != 2)
    return usage();

  std::optional<JsonValue> Old = loadReport(Paths[0]);
  std::optional<JsonValue> New = loadReport(Paths[1]);
  if (!Old || !New)
    return 2;

  DiffResult Result = diffReports(*Old, *New, Options);

  if (!Quiet) {
    for (const std::string &Note : Result.Notes)
      std::printf("note: %s\n", Note.c_str());
    for (const std::string &Key : Result.OnlyInNew)
      std::printf("note: new metric %s\n", Key.c_str());
    for (const std::string &Key : Result.MissingInNew)
      std::printf("FAIL: metric %s missing from %s\n", Key.c_str(),
                  Paths[1].c_str());
    for (const MetricDrift &Drift : Result.Drifted)
      std::printf("FAIL: %s drifted %.3g%% (%.6g -> %.6g, %s tolerance)\n",
                  Drift.Key.c_str(), 100.0 * Drift.RelativeDelta,
                  Drift.OldValue, Drift.NewValue,
                  Drift.Timing ? "timing" : "value");
    if (Result.Ignored != 0)
      std::printf("note: %llu metrics ignored by --ignore\n",
                  static_cast<unsigned long long>(Result.Ignored));
    std::printf("%s: %llu metrics compared, %zu drifted, %zu missing\n",
                Result.ok() ? "OK" : "REGRESSION",
                static_cast<unsigned long long>(Result.Compared),
                Result.Drifted.size(), Result.MissingInNew.size());
  }
  return Result.ok() ? 0 : 1;
}
