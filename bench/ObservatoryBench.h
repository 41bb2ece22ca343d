//===- bench/ObservatoryBench.h - The shared observatory driver -*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one observatory driver of the bench binaries and trace_tool.  Two
/// sink sets ride the untimed instrumented replays:
///
///  - BenchObservatory (--observe) pools one fragmentation probe and one
///    latency recorder per (program, allocator family), plus a single
///    heatmap riding the first program's first-fit replay.  The simulators
///    export the probes into that replay's registry under the family
///    prefix, so the jobs-invariance discipline (per-program registries
///    merged in program order) covers every observatory key.
///  - ArenaForensics (--audit-out, --drift-out, trace_tool audit/drift)
///    puts a flight recorder and/or a drift observatory on each program's
///    arena replay, keeps the program's trained-quantile map, and writes
///    the lifetime audit and drift reports in program order, so they are
///    byte-identical at any --jobs and from any driver.
///
/// replayFamilies() is the four-family instrumented replay of one program;
/// bench_sim_throughput runs it after its timed region and table benches
/// through runObservatoryPass().  One file writer serves --audit-out,
/// --drift-out and --heatmap-out: an unwritable path prints
/// `error: cannot write --<flag>=<path>` and exits with status 1.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_BENCH_OBSERVATORYBENCH_H
#define LIFEPRED_BENCH_OBSERVATORYBENCH_H

#include "BenchCommon.h"

#include "core/LifetimeClassifier.h"
#include "sim/TraceSimulator.h"
#include "telemetry/DriftObservatory.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/FragmentationProbe.h"
#include "telemetry/HeapHeatmap.h"
#include "telemetry/LatencyRecorder.h"

#include <memory>
#include <string>
#include <vector>

namespace lifepred {

struct PredictionCounts;
struct SimTelemetry;

/// The two-band geometry of ablation_multi_arena's "2 bands" case — the
/// paper's arena area split in two — that every four-family replay trains
/// and replays its multi-arena family under.
extern const std::vector<uint64_t> MultiArenaThresholds;
ArenaAllocator::Config multiArenaConfig();

/// Writes \p Map's JSON to \p Path, the --heatmap-out file.  Like every
/// observatory output here, an unwritable path prints `error: cannot write
/// --heatmap-out=<Path>` and exits with status 1.
void writeHeatmapFile(const HeapHeatmap &Map, const std::string &Path);

/// Observatory sink pool for one bench run.  Construction with --observe
/// off yields an empty pool whose methods are all no-ops, so callers wire
/// it unconditionally.
class BenchObservatory {
public:
  /// The four allocator families the observatory covers.  Streamed benches
  /// use the FirstFit/Bsd slots; unattached slots simply never export.
  enum Family : unsigned { FirstFit = 0, Bsd = 1, Arena = 2, Multi = 3 };
  static constexpr unsigned FamilyCount = 4;

  BenchObservatory(const BenchOptions &Options, size_t ProgramCount);

  bool enabled() const { return !Probes.empty(); }

  /// Attaches the (program, family) probe pair to \p Telemetry; program
  /// 0's FirstFit replay additionally carries the heatmap.  No-op when
  /// --observe is off.
  void attach(SimTelemetry &Telemetry, size_t Program, Family F);

  /// Prints the observatory summary table (families with zero samples are
  /// skipped) and writes the heatmap JSON to Options.HeatmapOutPath.  Call
  /// once, after every instrumented replay has run.
  void finish(const BenchOptions &Options,
              const std::vector<ProgramTraces> &All);

private:
  uint64_t Stride = 0;
  std::vector<FragmentationProbe> Probes;
  std::vector<LatencyRecorder> Latencies;
  std::unique_ptr<HeapHeatmap> Map;
};

/// Lifetime-audit and drift sinks for each program's arena replay (the
/// paper's allocator under the site database trained on the program's
/// train trace), and the writer of their reports.  With neither sink on,
/// every method is a no-op.
class ArenaForensics {
public:
  /// The sinks the flags ask for: a flight recorder with --audit-out, a
  /// drift observatory with --drift-out.
  ArenaForensics(const BenchOptions &Options, size_t ProgramCount);
  /// An explicit sink choice; the reports still go to --audit-out and
  /// --drift-out when those are given.
  ArenaForensics(const BenchOptions &Options, size_t ProgramCount,
                 bool Audit, bool Drift);

  bool enabled() const { return Audit || Drift; }

  /// Builds program \p Program's trained-quantile map, which both reports
  /// score against.  Distinct programs may train concurrently.
  void train(size_t Program, const AllocationTrace &Test,
             const Profile &TrainProfile);

  /// Attaches program \p Program's sinks to \p Telemetry; the drift
  /// windows span \p Test's schedule and classify under \p DB's threshold.
  void attach(SimTelemetry &Telemetry, size_t Program,
              const CompiledTrace &Test, const SiteDatabase &DB);

  /// Trains \p Traces' site database, compiles its test trace and replays
  /// it through the paper's arena allocator with program \p Program's
  /// sinks attached, counting into \p Registry when given.
  ArenaSimResult replayArena(size_t Program, const ProgramTraces &Traces,
                             StatsRegistry *Registry = nullptr);

  /// Builds every program's audit and drift reports in program order and
  /// writes --audit-out and --drift-out.  \p Echo prints the reports on
  /// stdout as well.  When given, \p Registry gets the `audit.<P>.` and
  /// `drift.<P>.` keys, \p Report the headline keys, and \p Trace the
  /// arena-occupancy and drift tracks.  Call once, after every replay.
  void writeReports(const std::vector<ProgramTraces> &All, bool Echo,
                    StatsRegistry *Registry = nullptr,
                    JsonReport *Report = nullptr,
                    TraceEventWriter *Trace = nullptr) const;

private:
  void writeAudit(const std::vector<ProgramTraces> &All, bool Echo,
                  StatsRegistry *Registry, JsonReport *Report,
                  TraceEventWriter *Trace) const;
  void writeDrift(const std::vector<ProgramTraces> &All, bool Echo,
                  StatsRegistry *Registry, JsonReport *Report,
                  TraceEventWriter *Trace) const;

  BenchOptions Options;
  bool Audit = false;
  bool Drift = false;
  std::vector<TrainedQuantileMap> Trained;
  std::vector<std::unique_ptr<FlightRecorder>> Recorders;
  std::vector<std::unique_ptr<DriftObservatory>> Drifts;
};

/// One program's untimed instrumented replay through the four allocator
/// families — first fit under \p FFConfig, BSD, the paper's arena under
/// \p TrueDB and the two-band arena under \p ClassDB — counting into
/// \p Registry.  \p Observatory's sinks ride every family, \p Forensics'
/// the arena replay, and \p Timeline, when given, the first-fit replay.
/// Returns the arena replay's prediction outcomes.
PredictionCounts replayFamilies(size_t Program, const ProgramTraces &Traces,
                                const CompiledTrace &Test,
                                const SiteDatabase &TrueDB,
                                const ClassDatabase &ClassDB,
                                const FirstFitAllocator::Config &FFConfig,
                                StatsRegistry &Registry,
                                BenchObservatory &Observatory,
                                ArenaForensics *Forensics = nullptr,
                                HeapTimeline *Timeline = nullptr);

/// Standalone observatory pass for benches with no instrumented replay of
/// their own: per program, compiles the test trace, trains the site and
/// class databases, runs replayFamilies, and merges the per-program
/// registries into \p Registry in program order.  Returns false — doing
/// nothing — when --observe is off; callers attach \p Registry to their
/// JSON report on true.
bool runObservatoryPass(const BenchOptions &Options,
                        const std::vector<ProgramTraces> &All,
                        ThreadPool &Pool, StatsRegistry &Registry);

} // namespace lifepred

#endif // LIFEPRED_BENCH_OBSERVATORYBENCH_H
