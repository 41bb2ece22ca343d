//===- bench/BenchCommon.cpp - Shared bench harness helpers ----------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Json.h"
#include "telemetry/HeapTimeline.h"
#include "telemetry/StatsRegistry.h"
#include "telemetry/TraceEventWriter.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

// Build provenance for the run manifest; the bench CMakeLists defines both
// from the configure-time git state.
#ifndef LIFEPRED_GIT_SHA
#define LIFEPRED_GIT_SHA "unknown"
#endif
#ifndef LIFEPRED_BUILD_TYPE
#define LIFEPRED_BUILD_TYPE "unspecified"
#endif

using namespace lifepred;

ProgramModel lifepred::requireProgram(const std::string &Name,
                                      const std::string &Arg) {
  std::vector<ProgramModel> Programs = allPrograms();
  for (ProgramModel &Model : Programs)
    if (Model.Name == Name)
      return std::move(Model);
  std::fprintf(stderr, "error: %s: unknown program; want one of",
               Arg.c_str());
  for (const ProgramModel &Model : Programs)
    std::fprintf(stderr, " %s", Model.Name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

BenchOptions BenchOptions::fromCommandLine(const CommandLine &Cl) {
  BenchOptions Options;
  Options.Scale = Cl.getDouble("scale", 1.0);
  Options.Seed = static_cast<uint64_t>(Cl.getInt("seed", 0x1993));
  Options.OnlyProgram = Cl.getString("program", "");
  if (!Options.OnlyProgram.empty())
    requireProgram(Options.OnlyProgram, "--program=" + Options.OnlyProgram);
  // Default to every core; an explicit --jobs=0 also means "use every
  // core" and --jobs=1 is strictly serial.
  long Jobs = Cl.getInt("jobs", 0);
  if (Jobs <= 0)
    Options.Jobs = ThreadPool::defaultThreadCount();
  else
    Options.Jobs = static_cast<unsigned>(Jobs);
  Options.JsonPath = Cl.getString("json", "");
  Options.TraceOutPath = Cl.getString("trace-out", "");
  Options.AuditOutPath = Cl.getString("audit-out", "");
  long Stride = Cl.getInt("timeline-stride", 0);
  Options.TimelineStride = Stride <= 0 ? 0 : static_cast<uint64_t>(Stride);
  Options.Observe = Cl.has("observe");
  long ObserveStride = Cl.getInt("observe-stride", 64 * 1024);
  if (ObserveStride > 0)
    Options.ObserveStride = static_cast<uint64_t>(ObserveStride);
  Options.HeatmapOutPath = Cl.getString("heatmap-out", "");
  Options.DriftOutPath = Cl.getString("drift-out", "");
  long DriftWindow = Cl.getInt("drift-window", 0);
  if (DriftWindow > 0)
    Options.DriftWindowBytes = static_cast<uint64_t>(DriftWindow);
  return Options;
}

RunManifest RunManifest::current(const BenchOptions &Options) {
  RunManifest Manifest;
  Manifest.GitSha = LIFEPRED_GIT_SHA;
  Manifest.BuildType = LIFEPRED_BUILD_TYPE;
#if defined(__clang__)
  Manifest.Compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  Manifest.Compiler = "gcc " __VERSION__;
#else
  Manifest.Compiler = "unknown";
#endif
  Manifest.Jobs = Options.Jobs;
  Manifest.Seed = Options.Seed;
  Manifest.Scale = Options.Scale;
  Manifest.Program = Options.OnlyProgram;
  return Manifest;
}

std::unique_ptr<TraceEventWriter>
lifepred::makeTraceWriter(const BenchOptions &Options) {
  if (Options.TraceOutPath.empty())
    return nullptr;
  return std::make_unique<TraceEventWriter>(Options.TraceOutPath);
}

ProgramTraces lifepred::makeTraces(const ProgramModel &Model,
                                   const BenchOptions &Options) {
  ProgramTraces Traces;
  Traces.Model = Model;
  RunOptions Run;
  Run.Scale = Options.Scale;
  Run.Seed = Options.Seed;
  Run.Kind = RunKind::Train;
  Traces.Train = runWorkload(Model, Run, Traces.Registry);
  Run.Kind = RunKind::Test;
  Traces.Test = runWorkload(Model, Run, Traces.Registry);
  return Traces;
}

std::vector<ProgramTraces>
lifepred::makeAllTraces(const BenchOptions &Options, ThreadPool &Pool) {
  std::vector<ProgramModel> Programs = allPrograms();
  std::vector<const ProgramModel *> Selected;
  for (const ProgramModel &Model : Programs) {
    if (!Options.OnlyProgram.empty() && Model.Name != Options.OnlyProgram)
      continue;
    Selected.push_back(&Model);
  }
  // One task per program; each writes only its own slot, so the result
  // order matches allPrograms() regardless of completion order.  Train
  // and test runs share a registry and therefore stay sequential within
  // a program.
  std::vector<ProgramTraces> All(Selected.size());
  parallelForIndex(Pool, Selected.size(), [&](size_t Index) {
    All[Index] = makeTraces(*Selected[Index], Options);
  });
  return All;
}

std::vector<ProgramTraces>
lifepred::makeAllTraces(const BenchOptions &Options) {
  ThreadPool Pool(Options.Jobs);
  return makeAllTraces(Options, Pool);
}

std::vector<CompiledTrace>
lifepred::compileAllTraces(const std::vector<ProgramTraces> &All,
                           ThreadPool &Pool, const SiteKeyPolicy *Policy) {
  std::vector<CompiledTrace> Compiled(All.size());
  parallelForIndex(Pool, All.size(), [&](size_t Index) {
    Compiled[Index] = Policy ? CompiledTrace(All[Index].Test, *Policy)
                             : CompiledTrace(All[Index].Test);
  });
  return Compiled;
}

void lifepred::printBanner(const char *Table, const char *Caption,
                           const BenchOptions &Options) {
  std::printf("== %s: %s ==\n", Table, Caption);
  std::printf("(Barrett & Zorn, PLDI 1993 reproduction; scale=%.2f "
              "seed=0x%llx jobs=%u; 'paper' columns are the published "
              "values)\n\n",
              Options.Scale, static_cast<unsigned long long>(Options.Seed),
              Options.Jobs);
}

double lifepred::wallTimeSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

uint64_t lifepred::peakRssKb() {
#if defined(__linux__)
  // Containers and stripped-down environments can run a Linux kernel
  // without procfs mounted; treat a missing /proc/self/status exactly like
  // a non-Linux platform instead of relying on fopen's failure mode.
  std::error_code Ec;
  if (!std::filesystem::exists("/proc/self/status", Ec))
    return 0;
  std::FILE *Status = std::fopen("/proc/self/status", "r");
  if (!Status)
    return 0;
  unsigned long long Kb = 0;
  char Line[256];
  while (std::fgets(Line, sizeof(Line), Status))
    if (std::sscanf(Line, "VmHWM: %llu", &Kb) == 1)
      break;
  std::fclose(Status);
  return Kb;
#else
  return 0;
#endif
}

bool JsonReport::write() const {
  if (Options.JsonPath.empty())
    return true;

  namespace fs = std::filesystem;
  fs::path Path(Options.JsonPath);
  std::error_code Ec;
  if (fs::is_directory(Path, Ec))
    Path /= "BENCH_" + BenchName + ".json";

  std::string Out;
  char Buf[128];
  Out += "{\n";
  std::snprintf(Buf, sizeof(Buf), "  \"schema_version\": %d,\n",
                SchemaVersion);
  Out += Buf;
  Out += "  \"bench\": \"";
  appendJsonEscaped(Out, BenchName);
  Out += "\",\n";
  Out += "  \"manifest\": {\n    \"git_sha\": \"";
  appendJsonEscaped(Out, Manifest.GitSha);
  Out += "\",\n    \"build_type\": \"";
  appendJsonEscaped(Out, Manifest.BuildType);
  Out += "\",\n    \"compiler\": \"";
  appendJsonEscaped(Out, Manifest.Compiler);
  Out += "\",\n";
  std::snprintf(Buf, sizeof(Buf), "    \"jobs\": %u,\n", Manifest.Jobs);
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf), "    \"seed\": %llu,\n",
                static_cast<unsigned long long>(Manifest.Seed));
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf), "    \"scale\": %.6g,\n", Manifest.Scale);
  Out += Buf;
  Out += "    \"program\": \"";
  appendJsonEscaped(Out, Manifest.Program);
  Out += "\",\n";
  if (Manifest.Threads != 0) {
    // Serving-mode provenance (see RunManifest): scaling-run identity plus
    // contention totals.  Provenance only — contention is interleaving-
    // dependent and must never become a gated value.
    std::snprintf(Buf, sizeof(Buf), "    \"threads\": %u,\n",
                  Manifest.Threads);
    Out += Buf;
    std::snprintf(Buf, sizeof(Buf), "    \"tenants\": %u,\n",
                  Manifest.Tenants);
    Out += Buf;
    std::snprintf(Buf, sizeof(Buf), "    \"contention_cas_retries\": %llu,\n",
                  static_cast<unsigned long long>(
                      Manifest.ContentionCasRetries));
    Out += Buf;
    std::snprintf(
        Buf, sizeof(Buf), "    \"contention_remote_free_pushes\": %llu,\n",
        static_cast<unsigned long long>(Manifest.ContentionRemoteFreePushes));
    Out += Buf;
    std::snprintf(
        Buf, sizeof(Buf), "    \"contention_max_drain_depth\": %llu,\n",
        static_cast<unsigned long long>(Manifest.ContentionMaxDrainDepth));
    Out += Buf;
  }
  // Sampled at write() time, i.e. after the bench's replay work: the
  // streamed-replay residency evidence.  Manifest entries are provenance
  // notes, not gated values, so run-to-run RSS jitter cannot fail a gate.
  std::snprintf(Buf, sizeof(Buf), "    \"peak_rss_kb\": %llu\n  },\n",
                static_cast<unsigned long long>(peakRssKb()));
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf), "  \"events\": %llu,\n",
                static_cast<unsigned long long>(Events));
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf), "  \"wall_seconds\": %.6f,\n", WallSeconds);
  Out += Buf;
  double EventsPerSec =
      WallSeconds > 0.0 ? static_cast<double>(Events) / WallSeconds : 0.0;
  std::snprintf(Buf, sizeof(Buf), "  \"events_per_sec\": %.1f,\n",
                EventsPerSec);
  Out += Buf;
  Out += "  \"values\": {";
  for (size_t I = 0; I < Values.size(); ++I) {
    Out += I == 0 ? "\n" : ",\n";
    Out += "    \"";
    appendJsonEscaped(Out, Values[I].first);
    std::snprintf(Buf, sizeof(Buf), "\": %.6g", Values[I].second);
    Out += Buf;
  }
  Out += Values.empty() ? "}" : "\n  }";
  if (Telemetry) {
    Out += ",\n  \"telemetry\": ";
    Telemetry->writeJson(Out, "  ");
  }
  if (Timeline) {
    Out += ",\n  \"timeline\": ";
    Timeline->writeJson(Out, "  ");
  }
  Out += "\n}\n";

  std::FILE *File = std::fopen(Path.string().c_str(), "w");
  if (!File) {
    std::fprintf(stderr, "warning: cannot write JSON report to %s\n",
                 Path.string().c_str());
    return false;
  }
  std::fwrite(Out.data(), 1, Out.size(), File);
  std::fclose(File);
  std::printf("JSON report written to %s\n", Path.string().c_str());
  return true;
}
