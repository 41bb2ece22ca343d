//===- perfbench/harness/Bench.cpp - Benchmark main -----------------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
// Usage:
//   lifebench --workload <pipeline|realheap|stream|serve> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>] [--tiny]
//
// A run sets the workload up five times (set-up time is the median), makes
// one untimed warm-up pass, then repeats passes for --seconds.  --trace 0
// prints the end-to-end metrics: set-up time, peak RSS, and the time and
// replay rate of the fastest pass.  --trace 1 alternates traced and
// untraced passes, adds the layer rows, and prints the per-layer metrics
// (medians over the traced passes), including the tracing overhead: the
// fastest traced pass against the fastest untraced one.  The last line of
// standard output is the result object; every check that failed is a
// failed operation, and a run with a failed check exits non-zero.
//
// Every workload reports every metric.  A per-layer metric of a layer the
// workload does not drive reads 0.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "workloads/Programs.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>

using namespace perfbench;

Tracer *perfbench::ActiveTracer = nullptr;

double perfbench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t Mid = Values.size() / 2;
  return Values.size() % 2 ? Values[Mid]
                           : 0.5 * (Values[Mid - 1] + Values[Mid]);
}

const std::vector<std::string> &perfbench::programNames() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> Result;
    for (const lifepred::ProgramModel &Model : lifepred::allPrograms())
      Result.push_back(Model.Name);
    return Result;
  }();
  return Names;
}

void Checks::expect(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  std::fprintf(stderr, "check failed: %s\n", What.c_str());
}

std::map<std::string, double> Tracer::selfSeconds(size_t Begin,
                                                  size_t End) const {
  std::vector<double> ChildSeconds(End - Begin, 0.0);
  for (size_t I = Begin; I < End; ++I) {
    int32_t Parent = Spans[I].Parent;
    if (Parent >= static_cast<int32_t>(Begin))
      ChildSeconds[Parent - Begin] += Spans[I].End - Spans[I].Start;
  }
  std::map<std::string, double> Self;
  for (size_t I = Begin; I < End; ++I)
    Self[Spans[I].Layer] +=
        Spans[I].End - Spans[I].Start - ChildSeconds[I - Begin];
  return Self;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  double Origin = Spans.empty() ? 0.0 : Spans.front().Start;
  std::fprintf(Out, "{\"spans\": [");
  for (size_t I = 0; I < Spans.size(); ++I)
    std::fprintf(Out,
                 "%s\n  {\"id\": %zu, \"layer\": \"%s\", \"name\": \"%s\", "
                 "\"start_s\": %.9f, \"end_s\": %.9f, \"parent\": %d}",
                 I ? "," : "", I, Spans[I].Layer, Spans[I].Name,
                 Spans[I].Start - Origin, Spans[I].End - Origin,
                 Spans[I].Parent);
  std::fprintf(Out, "\n]}\n");
  return std::fclose(Out) == 0;
}

namespace {

struct MetricDef {
  std::string Name;
  std::string Unit;
};

/// Metrics every workload reports with tracing off.
std::vector<MetricDef> endToEndMetrics() {
  return {{"setup_s", "s"},
          {"peak_rss_mb", "MiB"},
          {"pipeline_s", "s"},
          {"replay_meps", "Mev/s"}};
}

/// Metrics of the traced run.  A workload that does not exercise a
/// metric's layer reports it as 0.
std::vector<MetricDef> perLayerMetrics() {
  std::vector<MetricDef> M = {
      // Each workload's headline results.
      {"pred_accuracy_pct", "%"},
      {"online_accuracy_pct", "%"},
      {"arena_bytes_pct", "%"},
      {"heap_ratio_pct", "%"},
      {"heap_mops", "Mops/s"},
      {"heap_vs_new", "ratio"},
      {"heap_arena_pct", "%"},
      {"stream_meps", "Mev/s"},
      {"stream_seq_meps", "Mev/s"},
      {"serve_meps", "Mev/s"},
      {"serve_speedup", "ratio"},
      {"tracing.overhead_pct", "%"},
      // Self time of each layer in one traced pass.
      {"core.self_s", "s"},
      {"trace.self_s", "s"},
      {"sim.self_s", "s"},
      {"runtime.self_s", "s"},
      {"telemetry.self_s", "s"},
      {"workloads.generate_s", "s"},
      {"core.profile_s", "s"},
      {"core.train_s", "s"},
      {"core.sites", "count"},
      {"core.probe_ns", "ns"},
      {"trace.compile_s", "s"},
      {"trace.compile_meps", "Mev/s"},
      {"trace.schedule_mb", "MiB"},
      {"trace.sched_write_meps", "Mev/s"},
      {"sim.firstfit.meps", "Mev/s"},
      {"sim.bsd.meps", "Mev/s"},
      {"sim.arena.meps", "Mev/s"},
      {"sim.multiarena.meps", "Mev/s"},
      {"sim.arena_online.meps", "Mev/s"},
      {"sim.stream_batch_meps", "Mev/s"},
      {"sim.stream_shard_meps.w1", "Mev/s"},
      {"sim.stream_shard_meps.w2", "Mev/s"},
      {"sim.stream_shard_meps.wN", "Mev/s"},
      {"sim.shard_warmup_pct", "%"},
  };
  for (const char *Family : {"ff", "bsd", "cas", "arena"})
    for (const char *Workers : {"w1", "w2", "wN"})
      M.push_back({std::string("sim.serve.") + Family + ".meps." + Workers,
                   "Mev/s"});
  M.push_back({"sim.serve.shard_imbalance", "ratio"});
  M.push_back({"alloc.ff_search_steps_per_op", "count"});
  M.push_back({"alloc.arena_fallbacks", "count"});
  M.push_back({"alloc.arena_resets", "count"});
  M.push_back({"alloc.cas_retries_per_kop", "count"});
  M.push_back({"alloc.remote_free_pct", "%"});
  for (const std::string &Program : programNames()) {
    M.push_back({"alloc." + Program + ".model_instr_per_pair.arena_len4",
                 "instr"});
    M.push_back({"alloc." + Program + ".model_instr_per_pair.firstfit",
                 "instr"});
  }
  M.insert(M.end(), {{"runtime.online_plan_s", "s"},
                     {"runtime.retrains", "count"},
                     {"runtime.alloc_ns", "ns"},
                     {"runtime.free_ns", "ns"},
                     {"runtime.locked_mops", "Mops/s"},
                     {"runtime.arena_allocs", "count"},
                     {"runtime.general_allocs", "count"},
                     {"runtime.fallbacks", "count"},
                     {"runtime.resets", "count"}});
  for (const std::string &Program : programNames()) {
    M.push_back({"runtime." + Program + ".ns_per_pair", "ns"});
    M.push_back({"runtime." + Program + ".new_ns_per_pair", "ns"});
  }
  M.push_back({"callchain.shadow_ns", "ns"});
  M.push_back({"callchain.capture_ns", "ns"});
  M.push_back({"telemetry.report_s", "s"});
  M.push_back({"telemetry.overhead_pct", "%"});
  M.push_back({"telemetry.registry_overhead_pct", "%"});
  return M;
}

unsigned availableCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return 1;
  int Count = CPU_COUNT(&Set);
  return Count < 1 ? 1 : static_cast<unsigned>(Count);
}

double peakRssMiB() {
  struct rusage Usage;
  if (getrusage(RUSAGE_SELF, &Usage) != 0)
    return 0.0;
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

/// Median of every key over \p Samples.
Sample medians(const std::vector<Sample> &Samples) {
  std::map<std::string, std::vector<double>> Columns;
  for (const Sample &S : Samples)
    for (const auto &[Key, Value] : S)
      Columns[Key].push_back(Value);
  Sample Result;
  for (auto &[Key, Values] : Columns)
    Result[Key] = median(std::move(Values));
  return Result;
}

// The end-to-end pass time and rate are those of the fastest pass, not the
// median pass.  Every pass repeats the same work on the same inputs; on a
// shared host other tenants only ever slow a pass down, in phases lasting
// seconds, so a run's median moves with how long those phases last while
// its fastest pass estimates the code's own speed.
double fastSeconds(const std::vector<Sample> &Passes) {
  double Best = 0.0;
  for (const Sample &S : Passes)
    if (Best == 0.0 || S.at("pipeline_s") < Best)
      Best = S.at("pipeline_s");
  return Best;
}
double fastRate(const std::vector<Sample> &Passes) {
  double Best = 0.0;
  for (const Sample &S : Passes)
    Best = std::max(Best, S.at("replay_meps"));
  return Best;
}

int usage(const char *Message) {
  std::fprintf(stderr,
               "error: %s\nusage: lifebench --workload "
               "<pipeline|realheap|stream|serve> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--tiny]\n",
               Message);
  return 2;
}

bool parseUnsigned(const char *Text, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long Value = std::strtoull(Text, &End, 10);
  if (errno != 0 || End == Text || *End != '\0' || Text[0] == '-')
    return false;
  Out = Value;
  return true;
}

std::unique_ptr<Workload> makeWorkload(const Options &O) {
  if (O.Workload == "pipeline")
    return makePipelineWorkload(O);
  if (O.Workload == "realheap")
    return makeRealHeapWorkload(O);
  if (O.Workload == "stream")
    return makeStreamWorkload(O);
  if (O.Workload == "serve")
    return makeServeWorkload(O);
  return nullptr;
}

int runBenchmark(const Options &O) {
  std::unique_ptr<Workload> W = makeWorkload(O);
  if (!W)
    return usage(("unknown workload '" + O.Workload + "'").c_str());
  Tracer Spans;
  Checks C;

  constexpr unsigned SetupRepeats = 5;
  std::vector<double> SetupSeconds;
  std::vector<Sample> SetupSamples;
  for (unsigned R = 0; R < SetupRepeats; ++R) {
    Sample S;
    double Start = nowSeconds();
    W->setup(S);
    SetupSeconds.push_back(nowSeconds() - Start);
    SetupSamples.push_back(std::move(S));
  }
  W->verifySetup(C);

  // Warm-up: first-touch page faults and lazy initialization are not
  // what a pass measures.
  {
    Sample Warm;
    W->pass(Warm, C);
  }

  // A pass that overruns the budget still leaves MinPasses of each kind.
  constexpr size_t MinPasses = 3;
  std::vector<Sample> Untraced, Traced;
  bool NextTraced = O.Trace;
  double Deadline = nowSeconds() + O.Seconds;
  while (nowSeconds() < Deadline || Untraced.size() < MinPasses ||
         (O.Trace && Traced.size() < MinPasses)) {
    Sample S;
    size_t First = Spans.size();
    if (NextTraced)
      ActiveTracer = &Spans;
    double Start = nowSeconds();
    {
      Span Pass("bench", "pass");
      W->pass(S, C);
    }
    S["pipeline_s"] = nowSeconds() - Start;
    ActiveTracer = nullptr;
    if (NextTraced) {
      for (const auto &[Layer, Self] : Spans.selfSeconds(First, Spans.size()))
        if (Layer != "bench")
          S[Layer + ".self_s"] = Self;
      Traced.push_back(std::move(S));
    } else {
      Untraced.push_back(std::move(S));
    }
    if (O.Trace)
      NextTraced = !NextTraced;
  }

  Sample Rows;
  if (O.Trace) {
    ActiveTracer = &Spans;
    W->layerRows(Rows, C);
    ActiveTracer = nullptr;
  }

  Sample Plain = medians(Untraced);
  std::printf("passes: %zu untraced, %zu traced; set-up repeats: %u; "
              "workers: %u\n",
              Untraced.size(), Traced.size(), SetupRepeats, O.Workers);

  Sample Values;
  std::vector<MetricDef> Defs;
  if (O.Trace) {
    Sample TracedMedians = medians(Traced);
    Values = medians(SetupSamples);
    for (const auto &[Key, Value] : TracedMedians)
      Values[Key] = Value;
    for (const auto &[Key, Value] : Rows)
      Values[Key] = Value;
    double PlainSeconds = fastSeconds(Untraced);
    Values["tracing.overhead_pct"] =
        percentOf(fastSeconds(Traced) - PlainSeconds, PlainSeconds);
    Defs = perLayerMetrics();
    std::string SpanPath =
        O.WorkDir + "/spans-" + O.Workload + "-" + std::to_string(O.Seed) +
        ".json";
    if (Spans.write(SpanPath))
      std::printf("spans: %zu written to %s\n", Spans.size(),
                  SpanPath.c_str());
    else
      C.expect(false, "span log written to " + SpanPath);
  } else {
    Values["setup_s"] = median(SetupSeconds);
    Values["peak_rss_mb"] = peakRssMiB();
    Values["pipeline_s"] = fastSeconds(Untraced);
    Values["replay_meps"] = fastRate(Untraced);
    Defs = endToEndMetrics();
  }
  W->describe(O.Trace ? Values : Plain);

  if (O.Trace) {
    std::set<std::string> Declared;
    for (const MetricDef &Def : Defs)
      Declared.insert(Def.Name);
    for (const auto &[Key, Value] : Values)
      C.expect(Declared.count(Key) || Key == "pipeline_s" ||
                   Key == "replay_meps",
               "measured value " + Key + " is a declared metric");
  }

  std::string Metrics;
  char Buf[256];
  for (const MetricDef &Def : Defs) {
    double Value = Values.count(Def.Name) ? Values[Def.Name] : 0.0;
    C.expect(std::isfinite(Value), "metric " + Def.Name + " is finite");
    if (!std::isfinite(Value))
      Value = 0.0;
    std::printf("%-48s %20.6f %s\n", Def.Name.c_str(), Value,
                Def.Unit.c_str());
    std::snprintf(Buf, sizeof(Buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  Metrics.empty() ? "" : ", ", Def.Name.c_str(), Value,
                  Def.Unit.c_str());
    Metrics += Buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              C.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(C.attempted()),
              static_cast<unsigned long long>(C.failed()), Metrics.c_str());
  std::fflush(stdout);
  return C.failed() == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  O.Workers = availableCpus();
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--tiny") {
      O.Tiny = true;
      continue;
    }
    if (I + 1 >= Argc)
      return usage(("missing value for " + Arg).c_str());
    const char *Value = Argv[++I];
    uint64_t Number = 0;
    if (Arg == "--workload") {
      O.Workload = Value;
    } else if (Arg == "--work-dir") {
      O.WorkDir = Value;
    } else if (Arg == "--seed") {
      if (!parseUnsigned(Value, Number))
        return usage("--seed takes a non-negative integer");
      O.Seed = Number;
      HaveSeed = true;
    } else if (Arg == "--seconds") {
      if (!parseUnsigned(Value, Number) || Number == 0 || Number > 3600)
        return usage("--seconds takes an integer from 1 to 3600");
      O.Seconds = static_cast<double>(Number);
      HaveSeconds = true;
    } else if (Arg == "--trace") {
      if (std::strcmp(Value, "0") != 0 && std::strcmp(Value, "1") != 0)
        return usage("--trace takes 0 or 1");
      O.Trace = Value[0] == '1';
      HaveTrace = true;
    } else {
      return usage(("unknown flag " + Arg).c_str());
    }
  }
  if (O.Workload.empty() || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--workload, --seed, --seconds and --trace are required");
  try {
    return runBenchmark(O);
  } catch (const std::exception &Ex) {
    std::fprintf(stderr, "error: %s\n", Ex.what());
    return 1;
  }
}
