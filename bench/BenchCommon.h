//===- bench/BenchCommon.h - Shared bench harness helpers -------*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table-reproduction bench binaries: workload trace
/// generation with common flags (--scale, --seed, --program, --jobs,
/// --json) and printing conventions.  Every bench prints its measured
/// values beside the paper's published numbers so the output reads as a
/// direct comparison.
///
/// Trace generation and per-(program, allocator) simulations fan out over
/// a ThreadPool sized by --jobs; results are stored into index-addressed
/// slots so output order (and with --jobs=1, execution order) is
/// deterministic.  --json=<path> additionally writes the measured values
/// plus wall-clock and events/sec as a machine-readable report.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_BENCH_BENCHCOMMON_H
#define LIFEPRED_BENCH_BENCHCOMMON_H

#include "callchain/FunctionRegistry.h"
#include "support/CommandLine.h"
#include "support/ThreadPool.h"
#include "trace/AllocationTrace.h"
#include "trace/CompiledTrace.h"
#include "workloads/PaperData.h"
#include "workloads/Programs.h"
#include "workloads/WorkloadRunner.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace lifepred {

class StatsRegistry;
class HeapTimeline;
class TraceEventWriter;

/// A program's train and test traces generated under one registry (so
/// FunctionIds agree across the two runs).
struct ProgramTraces {
  ProgramModel Model;
  FunctionRegistry Registry;
  AllocationTrace Train;
  AllocationTrace Test;
};

/// The program model named \p Name.  An unknown name is a usage error: it
/// prints the five program names and exits with status 2.  \p Arg is the
/// argument as it was spelled (`--program=X`, or a positional `X`), for the
/// message.
ProgramModel requireProgram(const std::string &Name, const std::string &Arg);

/// Common bench flags.
struct BenchOptions {
  double Scale = 1.0;
  uint64_t Seed = 0x1993;
  std::string OnlyProgram;  ///< Empty = all five.
  /// Worker threads.  The --jobs flag defaults to 0 = "every core"
  /// (std::thread::hardware_concurrency); the manifest records the
  /// *effective* count, never the 0 sentinel.  --jobs=1 is strictly
  /// serial.
  unsigned Jobs = 1;
  std::string JsonPath;     ///< Empty = no JSON report.
  std::string TraceOutPath; ///< --trace-out: chrome://tracing span file.
  std::string AuditOutPath; ///< --audit-out: lifetime audit report file.
  /// --timeline-stride: byte-clock sampling stride for the heap timeline
  /// section of the JSON report (0 = no timeline).
  uint64_t TimelineStride = 0;
  /// --observe: run the heap observatory (fragmentation probes, latency
  /// recorders, heatmap) on the untimed instrumented replays.
  bool Observe = false;
  /// --observe-stride: byte-clock stride of the observatory's probes and
  /// heatmap columns.
  uint64_t ObserveStride = 64 * 1024;
  /// --heatmap-out: standalone heatmap JSON file (requires --observe).
  std::string HeatmapOutPath;
  /// --drift-out: standalone drift-report JSON file; also turns on the
  /// drift observatory for the instrumented predicting replays.
  std::string DriftOutPath;
  /// --drift-window: byte-clock window width for the drift observatory
  /// (0 = DriftObservatory::autoWindowBytes per program).
  uint64_t DriftWindowBytes = 0;

  static BenchOptions fromCommandLine(const CommandLine &Cl);
};

/// Provenance of one bench run, recorded in every JSON report so that two
/// reports can always answer "were these the same code and configuration?"
/// before their numbers are compared.
struct RunManifest {
  std::string GitSha;    ///< Short commit hash the binary was built from.
  std::string BuildType; ///< CMAKE_BUILD_TYPE.
  std::string Compiler;  ///< Compiler id and version.
  unsigned Jobs = 1;
  uint64_t Seed = 0;
  double Scale = 1.0;
  std::string Program; ///< --program filter; empty = all.

  /// Serving-engine provenance (bench_sim_throughput --serve), so
  /// bench_compare can identify scaling runs: engine worker threads and
  /// tenant count, plus run totals of the interleaving-dependent
  /// contention counters.  Manifest entries are provenance notes, never
  /// gated values — contention totals vary run to run by design.  Zero
  /// outside serving mode; the manifest JSON carries them only when
  /// Threads is nonzero.
  unsigned Threads = 0;
  unsigned Tenants = 0;
  uint64_t ContentionCasRetries = 0;
  uint64_t ContentionRemoteFreePushes = 0;
  uint64_t ContentionMaxDrainDepth = 0;

  /// The manifest of this build and \p Options (the one constructor every
  /// bench uses, so no field can be recorded inconsistently).
  static RunManifest current(const BenchOptions &Options);
};

/// Generates traces for every selected program, fanning out one task per
/// program on \p Pool.  Result order matches allPrograms() order
/// regardless of job count.
std::vector<ProgramTraces> makeAllTraces(const BenchOptions &Options,
                                         ThreadPool &Pool);

/// Serial convenience overload.
std::vector<ProgramTraces> makeAllTraces(const BenchOptions &Options);

/// Generates traces for one model.
ProgramTraces makeTraces(const ProgramModel &Model,
                         const BenchOptions &Options);

/// Compiles every program's *test* trace once — the event schedule plus,
/// when \p Policy is non-null, per-record site keys under that policy —
/// fanning out one task per program on \p Pool.  Result order matches
/// \p All.  The compiled traces are immutable, so every simulation task a
/// bench later fans out (threshold sweeps, per-allocator columns, repeat
/// loops) shares them read-only at any --jobs; they hold pointers into
/// \p All, which must outlive them.
std::vector<CompiledTrace>
compileAllTraces(const std::vector<ProgramTraces> &All, ThreadPool &Pool,
                 const SiteKeyPolicy *Policy = nullptr);

/// Prints the standard bench banner naming the table being reproduced.
void printBanner(const char *Table, const char *Caption,
                 const BenchOptions &Options);

/// Machine-readable bench report, written when --json is set.
///
/// Values are kept in insertion order; keys follow the convention
/// "<program>.<column>".  The report (schema version 2) always records the
/// bench name, a RunManifest, total replayed events, wall-clock seconds,
/// and the derived events/sec throughput; attachTelemetry() and
/// attachTimeline() add the corresponding sections.
class JsonReport {
public:
  /// The report schema emitted by write(); bench_compare notes a mismatch
  /// before comparing two reports.
  static constexpr int SchemaVersion = 2;

  JsonReport(std::string BenchName, const BenchOptions &Options)
      : BenchName(std::move(BenchName)), Options(Options),
        Manifest(RunManifest::current(Options)) {}

  /// Records a measured value.
  void add(const std::string &Key, double Value) {
    Values.emplace_back(Key, Value);
  }

  /// Records the replayed-event total and the wall-clock spent replaying.
  void setThroughput(uint64_t Events, double WallSeconds) {
    this->Events = Events;
    this->WallSeconds = WallSeconds;
  }

  /// Records serving-mode provenance in the manifest (see RunManifest):
  /// worker threads, tenant count, and contention-counter run totals.
  void setServeProvenance(unsigned Threads, unsigned Tenants,
                          uint64_t CasRetries, uint64_t RemoteFreePushes,
                          uint64_t MaxDrainDepth) {
    Manifest.Threads = Threads;
    Manifest.Tenants = Tenants;
    Manifest.ContentionCasRetries = CasRetries;
    Manifest.ContentionRemoteFreePushes = RemoteFreePushes;
    Manifest.ContentionMaxDrainDepth = MaxDrainDepth;
  }

  /// Adds \p Registry's metrics as the report's "telemetry" section.  The
  /// registry must outlive write(); nullptr detaches.
  void attachTelemetry(const StatsRegistry *Registry) {
    Telemetry = Registry;
  }

  /// Adds \p Timeline's samples as the report's "timeline" section.  The
  /// timeline must outlive write(); nullptr detaches.
  void attachTimeline(const HeapTimeline *Timeline) {
    this->Timeline = Timeline;
  }

  /// Writes the report to Options.JsonPath.  If that names a directory,
  /// the file becomes <dir>/BENCH_<name>.json.  No-op when --json was not
  /// given; returns false (after printing a warning) if the file cannot
  /// be written.
  bool write() const;

private:
  std::string BenchName;
  BenchOptions Options;
  RunManifest Manifest;
  std::vector<std::pair<std::string, double>> Values;
  uint64_t Events = 0;
  double WallSeconds = 0.0;
  const StatsRegistry *Telemetry = nullptr;
  const HeapTimeline *Timeline = nullptr;
};

/// A TraceEventWriter for Options.TraceOutPath, or nullptr when --trace-out
/// was not given.  TraceSpan's null-writer behaviour makes the result
/// usable unconditionally.
std::unique_ptr<TraceEventWriter> makeTraceWriter(const BenchOptions &Options);

/// Monotonic wall-clock seconds (for events/sec measurement).
double wallTimeSeconds();

/// Peak resident set size of this process in kilobytes (VmHWM from
/// /proc/self/status), or 0 where that interface does not exist.  Recorded
/// in the JSON manifest as "peak_rss_kb" — the streamed-replay residency
/// evidence: a chunk-streamed run's peak stays flat as the trace grows.
uint64_t peakRssKb();

/// Number of replay events (allocs plus derived frees) in \p Trace.
inline uint64_t replayEventCount(const AllocationTrace &Trace) {
  uint64_t Events = Trace.size();
  for (const AllocRecord &Record : Trace.records())
    if (Record.Lifetime != NeverFreed)
      ++Events;
  return Events;
}

} // namespace lifepred

#endif // LIFEPRED_BENCH_BENCHCOMMON_H
