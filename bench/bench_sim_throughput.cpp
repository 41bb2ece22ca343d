//===- bench/bench_sim_throughput.cpp - Simulator hot-path throughput ------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
// Measures trace-replay throughput (events/sec, where an event is one
// alloc or one derived free) of the simulator hot path:
//
//   legacy-ff  : the original std::map/std::set first-fit block store,
//                retained as LegacyFirstFitAllocator (the differential
//                oracle), driven through the replayTrace oracle scheduler.
//   oracle-ff  : the flat boundary-tag block store driven through the same
//                replayTrace oracle (per-replay priority-queue scheduling,
//                virtual consumer dispatch).
//   flat-ff    : the flat store replaying the precompiled event schedule
//                (CompiledTrace) — the production path.
//   bsd        : the Kingsley power-of-two allocator, compiled schedule.
//   arena      : the lifetime-predicting arena allocator (true database),
//                compiled schedule with pre-resolved predictions.
//   multiarena : the two-band arena allocator (trained class database),
//                compiled schedule with pre-resolved bands.
//
// The oracle-ff/legacy-ff pair isolates the block-store rewrite; the
// flat-ff/oracle-ff pair isolates the schedule compilation (same allocator,
// same fit policy --policy=roving|address|best).  Schedule compilation is
// its own timed phase, reported separately from replay: the JSON carries
// compile.seconds / compile.schedule_bytes for the one-time cost and
// replay.events / replay.seconds / replay.events_per_sec for the compiled
// production replays (flat-ff, bsd, arena, multiarena) — the headline the
// regression gate watches.  Per-(program, allocator, repeat) replays fan
// out on the bench thread pool, all sharing each program's immutable
// compiled schedule; each task times only its own replay, and per-allocator
// throughput aggregates those task-local times, so --jobs only shortens the
// bench without perturbing the ratios.
//
// With --json (or --trace-out, or --audit-out) the bench additionally runs
// one *untimed* instrumented replay per (program, allocator family) after
// the timed region, collecting allocator counters, per-allocation
// histograms, and prediction outcomes into a StatsRegistry — one registry
// per program, merged in program order, so the telemetry section is
// identical at any --jobs.  --timeline-stride=N adds byte-clock heap
// samples of the first program's first-fit replay; --trace-out=<file>
// writes chrome://tracing spans for the run's phases (plus arena
// fill→pin→reset occupancy when auditing); --audit-out=<file> attaches a
// flight recorder to each program's arena replay and writes the lifetime
// audit (misprediction forensics and arena-pinning attribution), folding
// its headline numbers into the JSON report.
//
// Flags: the common --scale/--seed/--program/--jobs/--json/--trace-out/
// --audit-out/--timeline-stride, plus --policy (default roving) and
// --repeat=N (default 3) which replays every trace N times to lengthen
// the timed region.  --drift-out=<file> attaches the prediction drift
// observatory to each program's untimed arena replay and writes the
// windowed drift reports (confusion timelines, CUSUM change points,
// per-site quantile divergence) as ordered JSON, folding drift.* headline
// keys into the report; --drift-window=B overrides the auto window width.
//
// Two additional modes exercise the billion-event tier (trace/ScheduleFile
// + sim/StreamReplay):
//
//   --stream : compile each program's test trace to an on-disk .sched file
//     (timed), then replay it streamed four ways — sequential first-fit,
//     sequential BSD, the Kingsley count scan on one thread, and the same
//     scan chunk-parallel across the thread pool.  The instrumented pass
//     exports the streamed "firstfit." and "bsd." registries (byte-identical
//     to the in-memory replays) plus the sharded scan's "shard." values
//     (equal to the "bsd." ones), so a bench_compare gate pins the whole
//     streamed tier.  --chunk-events=N sets the chunk granularity,
//     --sched-out=<dir> keeps the schedule files.
//
//   --grand-challenge=N : synthesize an N-event schedule from the
//     grandchallenge fuzz profile in bounded segments (the writer appends
//     segment by segment, so memory stays O(segment) while the file grows
//     to billions of events), then replay it streamed: the Kingsley count
//     scan on one thread and chunk-parallel on the pool.  A one-segment
//     in-memory compiled replay is timed as the speedup reference.
//     The .sched file defaults to the working directory (not /tmp, which
//     may be a RAM-backed filesystem) and is deleted unless --sched-out or
//     --keep-sched is given.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "ObservatoryBench.h"

#include "alloc/LegacyFirstFitAllocator.h"
#include "core/Pipeline.h"
#include "sim/MultiArenaSimulator.h"
#include "sim/SimTelemetry.h"
#include "sim/StreamReplay.h"
#include "sim/TenantMux.h"
#include "sim/TraceSimulator.h"
#include "support/TableFormatter.h"
#include "telemetry/DriftObservatory.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/LifetimeAudit.h"
#include "telemetry/TraceEventWriter.h"
#include "trace/ScheduleFile.h"
#include "trace/TraceReplayer.h"
#include "verify/TraceFuzzer.h"

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

using namespace lifepred;

namespace {

/// Replays \p Trace into a fresh \p Allocator through the replayTrace
/// oracle (per-replay priority-queue scheduling, virtual dispatch); the
/// caller times the call.  This is the pre-compilation path, kept as the
/// comparison row for the compiled replays.
template <typename AllocatorT>
void oracleReplay(const AllocationTrace &Trace,
                  typename AllocatorT::Config Config) {
  class Consumer : public TraceConsumer {
  public:
    Consumer(AllocatorT &Allocator, size_t ObjectCount)
        : Allocator(Allocator) {
      Addresses.resize(ObjectCount);
    }
    void onAlloc(uint64_t Id, const AllocRecord &Record, uint64_t) override {
      Addresses[Id] = Allocator.allocate(Record.Size);
      raisePeak(MaxLive, Allocator.liveBytes());
    }
    void onFree(uint64_t Id, const AllocRecord &, uint64_t) override {
      Allocator.free(Addresses[Id]);
    }

  private:
    AllocatorT &Allocator;
    std::vector<uint64_t> Addresses;
    uint64_t MaxLive = 0;
  };

  AllocatorT Allocator(Config);
  Consumer C(Allocator, Trace.size());
  replayTrace(Trace, C);
}

constexpr unsigned AllocatorCount = 6;
const char *const AllocatorNames[AllocatorCount] = {
    "legacy-ff", "oracle-ff", "flat-ff", "bsd", "arena", "multiarena"};

/// The two-band geometry of ablation_multi_arena's "2 bands" case: same
/// total area as the paper's single band, split.
const std::vector<uint64_t> MultiArenaThresholds = {16 * 1024, 32 * 1024};

MultiArenaAllocator::Config multiArenaConfig() {
  MultiArenaAllocator::Config Config;
  Config.Bands = {{32 * 1024, 8}, {32 * 1024, 8}};
  return Config;
}

struct Cell {
  uint64_t Events = 0;
  double Seconds = 0.0;
  double eventsPerSec() const {
    return Seconds > 0.0 ? static_cast<double>(Events) / Seconds : 0.0;
  }
};

ScheduleFileWriter::Config scheduleConfig(const CommandLine &Cl) {
  ScheduleFileWriter::Config Config;
  long ChunkEvents = Cl.getInt("chunk-events", 0);
  if (ChunkEvents > 0)
    Config.EventsPerChunk = static_cast<uint64_t>(ChunkEvents);
  return Config;
}

/// --serve=<tenants>x<threads>: the multi-tenant serving tier
/// (sim/TenantMux over alloc/ShardedHeap).  One TenantSet — thousands of
/// scaled per-tenant sessions with deterministic RNG streams — is built
/// once and replayed per allocator family: serially (the scaling
/// reference), in parallel channel mode (deterministic remote frees), and
/// for the CAS family additionally in eager mode (the lock-free
/// remote-free fast path).  The instrumented pass replays channel mode
/// into one StatsRegistry — aggregate, per-shard, and per-tenant sections
/// — which is byte-identical at any worker count; contention counters
/// (CAS retries, remote-free pushes, drain depths) are reported as
/// timing-class JSON values and manifest provenance, never gated.
///
/// Flags: --serve=TxW (tenants x workers; plain T uses --jobs workers),
/// --shards=S (logical heap shards, default 8), --slice-events=N (events
/// per tenant per round, default 256), --tenant-scale=F (per-tenant
/// workload scale, default 0.02), --serve-family=ff|bsd|cas|arena|all,
/// --repeat=N, plus the common --program/--seed/--json/--observe.
int runServeBench(const CommandLine &Cl, const BenchOptions &Options) {
  std::string ServeArg = Cl.getString("serve", "");
  unsigned Tenants = 64;
  unsigned Workers = Options.Jobs;
  {
    unsigned T = 0, W = 0;
    if (std::sscanf(ServeArg.c_str(), "%ux%u", &T, &W) == 2) {
      Tenants = T;
      Workers = W;
    } else if (std::sscanf(ServeArg.c_str(), "%u", &T) == 1) {
      Tenants = T;
    } else if (!ServeArg.empty()) {
      std::fprintf(stderr, "bad --serve=%s (want <tenants>x<threads>)\n",
                   ServeArg.c_str());
      return 1;
    }
  }
  unsigned Repeat = static_cast<unsigned>(Cl.getInt("repeat", 3));
  if (Repeat < 1)
    Repeat = 1;

  ServeConfig Cfg;
  Cfg.Tenants = Tenants;
  Cfg.Workers = Workers < 1 ? 1 : Workers;
  long Shards = Cl.getInt("shards", 8);
  Cfg.Shards = Shards < 1 ? 1 : static_cast<unsigned>(Shards);
  long Slice = Cl.getInt("slice-events", 256);
  Cfg.SliceEvents = Slice < 1 ? 1 : static_cast<unsigned>(Slice);
  Cfg.TenantScale = Cl.getDouble("tenant-scale", 0.02);
  Cfg.Seed = Options.Seed;
  Cfg.Program = Options.OnlyProgram;

  struct FamilyRow {
    ServeFamily Family;
    const char *Name;
  };
  std::vector<FamilyRow> Families;
  std::string FamilyArg = Cl.getString("serve-family", "all");
  bool All = FamilyArg == "all";
  if (All || FamilyArg == "ff")
    Families.push_back({ServeFamily::FirstFit, "serve-ff"});
  if (All || FamilyArg == "bsd")
    Families.push_back({ServeFamily::Bsd, "serve-bsd"});
  if (All || FamilyArg == "cas")
    Families.push_back({ServeFamily::Cas, "serve-cas"});
  if (All || FamilyArg == "arena")
    Families.push_back({ServeFamily::Arena, "serve-arena"});
  if (Families.empty()) {
    std::fprintf(stderr, "unknown --serve-family=%s (ff|bsd|cas|arena|all)\n",
                 FamilyArg.c_str());
    return 1;
  }
  for (const FamilyRow &Row : Families)
    Cfg.NeedPrediction |= Row.Family == ServeFamily::Arena;

  printBanner("Throughput (serving)",
              "multi-tenant sharded-heap replay events per second", Options);
  std::printf("tenants: %u; workers: %u; shards: %u; slice: %u events; "
              "tenant scale: %.3g\n\n",
              Cfg.Tenants, Cfg.Workers, Cfg.Shards, Cfg.SliceEvents,
              Cfg.TenantScale);

  ThreadPool Pool(Options.Jobs);
  std::unique_ptr<TenantSet> TS;
  try {
    TS = std::make_unique<TenantSet>(Cfg, Pool);
  } catch (const std::exception &Ex) {
    std::fprintf(stderr, "error: %s\n", Ex.what());
    return 1;
  }

  struct ServeCell {
    const char *Family = nullptr;
    const char *Mode = nullptr;
    unsigned Workers = 1;
    Cell C;
    ContentionCounters Contention;
    uint64_t RemoteFrees = 0;
  };
  std::vector<ServeCell> Cells;
  ContentionCounters ContentionTotal;

  auto TimedRun = [&](ServeFamily Family, const char *FamilyName,
                      const char *Mode, unsigned RunWorkers,
                      RemoteFreeMode Remote) {
    ServeCell Row;
    Row.Family = FamilyName;
    Row.Mode = Mode;
    Row.Workers = RunWorkers;
    Row.C.Events = uint64_t(Repeat) * TS->totalEvents();
    for (unsigned R = 0; R < Repeat; ++R) {
      TS->resetReplayState();
      ServeRunOptions Run;
      Run.Family = Family;
      Run.Remote = Remote;
      Run.Workers = RunWorkers;
      double Start = wallTimeSeconds();
      ServeResult Result = runServe(*TS, Run);
      Row.C.Seconds += wallTimeSeconds() - Start;
      Row.Contention.merge(Result.Contention);
      Row.RemoteFrees = Result.RemoteFrees;
    }
    ContentionTotal.merge(Row.Contention);
    Cells.push_back(Row);
  };

  for (const FamilyRow &Row : Families) {
    TimedRun(Row.Family, Row.Name, "serial", 1, RemoteFreeMode::Channel);
    if (Cfg.Workers > 1)
      TimedRun(Row.Family, Row.Name, "parallel", Cfg.Workers,
               RemoteFreeMode::Channel);
    if (Row.Family == ServeFamily::Cas)
      TimedRun(Row.Family, Row.Name, "eager", Cfg.Workers,
               RemoteFreeMode::Eager);
  }

  TableFormatter Table({"Family", "Mode", "Workers", "Events", "Seconds",
                        "Events/sec", "Speedup", "CAS retries",
                        "Remote frees"});
  JsonReport Report("serve_throughput", Options);
  Cell Total;
  double SerialSeconds = 0.0;
  for (const ServeCell &Row : Cells) {
    if (std::strcmp(Row.Mode, "serial") == 0)
      SerialSeconds = Row.C.Seconds;
    Total.Events += Row.C.Events;
    Total.Seconds += Row.C.Seconds;
    double Speedup = SerialSeconds > 0.0 && Row.C.Seconds > 0.0
                         ? SerialSeconds / Row.C.Seconds
                         : 0.0;
    Table.beginRow();
    Table.addCell(Row.Family);
    Table.addCell(Row.Mode);
    Table.addInt(Row.Workers);
    Table.addInt(static_cast<int64_t>(Row.C.Events));
    Table.addReal(Row.C.Seconds, 3);
    Table.addInt(static_cast<int64_t>(Row.C.eventsPerSec()));
    Table.addReal(Speedup, 2);
    Table.addInt(static_cast<int64_t>(Row.Contention.BitmapCasRetries +
                                      Row.Contention.ChannelCasRetries));
    Table.addInt(static_cast<int64_t>(Row.RemoteFrees));
    std::string Key = std::string(Row.Family) + "." + Row.Mode;
    Report.add(Key + ".events_per_sec", Row.C.eventsPerSec());
    if (std::strcmp(Row.Mode, "serial") != 0)
      Report.add(Key + ".speedup", Speedup);
  }
  Table.print(std::cout);
  std::printf("\nserving totals: %llu events over %llu rounds; %llu remote "
              "frees; peak RSS %llu KB\n",
              static_cast<unsigned long long>(TS->totalEvents()),
              static_cast<unsigned long long>(TS->rounds()),
              static_cast<unsigned long long>(
                  Cells.empty() ? 0 : Cells.back().RemoteFrees),
              static_cast<unsigned long long>(peakRssKb()));

  Report.setThroughput(Total.Events, Total.Seconds);
  Report.add("serve.tenants", static_cast<double>(Cfg.Tenants));
  Report.add("serve.workers", static_cast<double>(Cfg.Workers));
  Report.add("serve.shards", static_cast<double>(Cfg.Shards));
  Report.add("serve.slice_events", static_cast<double>(Cfg.SliceEvents));
  Report.add("serve.total_events", static_cast<double>(TS->totalEvents()));
  Report.add("serve.rounds", static_cast<double>(TS->rounds()));
  // Contention totals across all timed runs: timing-class keys
  // (isContentionMetric), reported for observability, never gated.
  Report.add("serve.contention.bitmap_cas_retries",
             static_cast<double>(ContentionTotal.BitmapCasRetries));
  Report.add("serve.contention.channel_cas_retries",
             static_cast<double>(ContentionTotal.ChannelCasRetries));
  Report.add("serve.contention.remote_free_pushes",
             static_cast<double>(ContentionTotal.RemoteFreePushes));
  Report.add("serve.contention.max_drain_depth",
             static_cast<double>(ContentionTotal.MaxDrainDepth));
  Report.setServeProvenance(Cfg.Workers, Cfg.Tenants,
                            ContentionTotal.BitmapCasRetries +
                                ContentionTotal.ChannelCasRetries,
                            ContentionTotal.RemoteFreePushes,
                            ContentionTotal.MaxDrainDepth);

  // Untimed instrumented pass: channel mode at the configured worker
  // count, one registry for every family in fixed order — byte-identical
  // at any worker count (the jobs-invariance test pins this).  Per-tenant
  // sections are exported once, under the first family's prefix: tenant
  // stats are stream-derived and family-independent.
  if (!Options.JsonPath.empty() || Options.Observe) {
    StatsRegistry Telemetry;
    bool FirstFamily = true;
    for (const FamilyRow &Row : Families) {
      TS->resetReplayState();
      ServeRunOptions Run;
      Run.Family = Row.Family;
      Run.Remote = RemoteFreeMode::Channel;
      Run.Registry = &Telemetry;
      Run.Prefix = std::string(Row.Name) + ".";
      Run.ExportTenants = FirstFamily;
      Run.CollectLatency = Options.Observe;
      Run.ProbeStrideBytes = Options.ObserveStride;
      runServe(*TS, Run);
      FirstFamily = false;
    }
    Report.attachTelemetry(&Telemetry);
    Report.write();
  } else {
    Report.write();
  }
  return 0;
}

/// --stream: the streamed-replay tier over the paper workloads.  Each
/// program's test trace is compiled to an on-disk schedule (timed), then
/// replayed four ways from the file.  The instrumented pass exports the
/// streamed registries, so a --json gate pins the tier's telemetry.
int runStreamBench(const CommandLine &Cl, const BenchOptions &Options) {
  unsigned Repeat = static_cast<unsigned>(Cl.getInt("repeat", 3));
  if (Repeat < 1)
    Repeat = 1;
  std::string SchedDir = Cl.getString("sched-out", "");
  bool KeepSched = !SchedDir.empty() || Cl.has("keep-sched");
  ScheduleFileWriter::Config SchedConfig = scheduleConfig(Cl);

  printBanner("Throughput (streamed)",
              "on-disk schedule replay events per second", Options);
  std::printf("chunk events: %llu; repeats per file: %u\n\n",
              static_cast<unsigned long long>(SchedConfig.EventsPerChunk),
              Repeat);

  ThreadPool Pool(Options.Jobs);
  std::vector<ProgramTraces> All = makeAllTraces(Options, Pool);

  constexpr unsigned ShapeCount = 4;
  const char *const ShapeNames[ShapeCount] = {"stream-ff", "stream-bsd",
                                              "stream-batch", "stream-shard"};

  // Timed compile-to-disk phase, then the files are replayed read-only.
  double CompileSeconds = 0.0;
  uint64_t ScheduleBytes = 0;
  uint64_t ScheduleEvents = 0;
  uint64_t ScheduleChunks = 0;
  std::vector<std::string> Paths(All.size());
  std::vector<ScheduleFile> Files;
  for (size_t I = 0; I < All.size(); ++I) {
    Paths[I] = (SchedDir.empty() ? std::string() : SchedDir + "/") +
               All[I].Model.Name + ".sched";
    double Start = wallTimeSeconds();
    ScheduleFileWriter Writer(Paths[I], SchedConfig);
    Writer.append(All[I].Test);
    if (!Writer.finish()) {
      std::fprintf(stderr, "error: %s\n", Writer.error().c_str());
      return 1;
    }
    CompileSeconds += wallTimeSeconds() - Start;
    std::string Error;
    std::optional<ScheduleFile> File = ScheduleFile::open(Paths[I], Error);
    if (!File) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    ScheduleBytes += File->fileBytes();
    ScheduleEvents += File->eventCount();
    ScheduleChunks += File->chunkCount();
    Files.push_back(std::move(*File));
  }

  // Timed streamed replays.  The sharded shape fans out on the pool
  // itself, so the shapes run sequentially and each times only itself.
  std::vector<Cell> Cells(All.size() * ShapeCount);
  for (size_t I = 0; I < All.size(); ++I) {
    for (unsigned Shape = 0; Shape < ShapeCount; ++Shape) {
      Cell &C = Cells[I * ShapeCount + Shape];
      C.Events = uint64_t(Repeat) * Files[I].eventCount();
      double Start = wallTimeSeconds();
      for (unsigned R = 0; R < Repeat; ++R) {
        switch (Shape) {
        case 0:
          streamSimulateFirstFit(Files[I]);
          break;
        case 1:
          streamSimulateBsd(Files[I]);
          break;
        case 2:
          streamSimulateBsdBatched(Files[I]);
          break;
        case 3:
          streamReplayBsdSharded(Files[I], Pool);
          break;
        }
      }
      C.Seconds = wallTimeSeconds() - Start;
    }
  }

  TableFormatter Table({"Program", "Replay", "Events", "Seconds",
                        "Events/sec", "vs stream-bsd"});
  JsonReport Report("stream_throughput", Options);
  Cell ReplayTotal;
  for (size_t I = 0; I < All.size(); ++I) {
    const Cell &Sequential = Cells[I * ShapeCount + 1];
    for (unsigned Shape = 0; Shape < ShapeCount; ++Shape) {
      const Cell &C = Cells[I * ShapeCount + Shape];
      ReplayTotal.Events += C.Events;
      ReplayTotal.Seconds += C.Seconds;
      Table.beginRow();
      Table.addCell(Shape == 0 ? All[I].Model.Name : "");
      Table.addCell(ShapeNames[Shape]);
      Table.addInt(static_cast<int64_t>(C.Events));
      Table.addReal(C.Seconds, 3);
      Table.addInt(static_cast<int64_t>(C.eventsPerSec()));
      Table.addReal(Sequential.Seconds > 0.0 && C.Seconds > 0.0
                        ? Sequential.Seconds / C.Seconds
                        : 0.0,
                    2);
      Report.add(std::string(All[I].Model.Name) + "." + ShapeNames[Shape] +
                     ".events_per_sec",
                 C.eventsPerSec());
    }
  }
  Table.print(std::cout);
  std::printf("\nschedule compile: %.3f s for %llu events (%llu KB on disk, "
              "%llu chunks)\n",
              CompileSeconds, static_cast<unsigned long long>(ScheduleEvents),
              static_cast<unsigned long long>(ScheduleBytes / 1024),
              static_cast<unsigned long long>(ScheduleChunks));
  std::printf("streamed replays: %.0f events/sec aggregate (peak RSS %llu "
              "KB)\n",
              ReplayTotal.eventsPerSec(),
              static_cast<unsigned long long>(peakRssKb()));

  Report.setThroughput(ReplayTotal.Events, ReplayTotal.Seconds);
  Report.add("compile.seconds", CompileSeconds);
  Report.add("compile.schedule_bytes", static_cast<double>(ScheduleBytes));
  Report.add("compile.events", static_cast<double>(ScheduleEvents));
  Report.add("compile.chunks", static_cast<double>(ScheduleChunks));
  Report.add("replay.events", static_cast<double>(ReplayTotal.Events));
  Report.add("replay.seconds", ReplayTotal.Seconds);
  Report.add("replay.events_per_sec", ReplayTotal.eventsPerSec());

  // Untimed instrumented pass: the streamed sequential registries (pinned
  // byte-identical to the in-memory replays by tests/schedule_test) plus
  // the sharded scan's "shard." values (pinned equal to the "bsd." ones).
  // One registry per program, merged in program order.  --observe attaches
  // the heap observatory to the sequential shapes, the only ones that
  // place blocks.
  if (!Options.JsonPath.empty() || Options.Observe) {
    BenchObservatory Observatory(Options, All.size());
    StatsRegistry Telemetry;
    std::vector<StatsRegistry> PerProgram(All.size());
    for (size_t I = 0; I < All.size(); ++I) {
      SimTelemetry FF;
      FF.Registry = &PerProgram[I];
      Observatory.attach(FF, I, BenchObservatory::FirstFit);
      streamSimulateFirstFit(Files[I], CostModel(),
                             FirstFitAllocator::Config(), &FF);
      SimTelemetry Bsd;
      Bsd.Registry = &PerProgram[I];
      Observatory.attach(Bsd, I, BenchObservatory::Bsd);
      streamSimulateBsd(Files[I], CostModel(), BsdAllocator::Config(), &Bsd);
      streamReplayBsdSharded(Files[I], Pool, BsdAllocator::Config(),
                             &PerProgram[I]);
    }
    for (size_t I = 0; I < All.size(); ++I)
      Telemetry.merge(PerProgram[I]);
    Observatory.finish(Options, All);
    Report.attachTelemetry(&Telemetry);
    Report.write();
  } else {
    Report.write();
  }

  if (!KeepSched)
    for (const std::string &Path : Paths)
      std::remove(Path.c_str());
  return 0;
}

/// --grand-challenge=N: synthesize an N-event schedule from the
/// grandchallenge fuzz profile in bounded segments, then replay it
/// streamed.  Memory stays O(segment + chunk) throughout; the file carries
/// the events.
int runGrandChallenge(const CommandLine &Cl, const BenchOptions &Options,
                      uint64_t TargetEvents) {
  if (TargetEvents == 0) {
    std::fprintf(stderr, "error: --grand-challenge needs an event count\n");
    return 1;
  }
  std::string SchedPath = Cl.getString("sched-out", "grand_challenge.sched");
  bool KeepSched = Cl.has("sched-out") || Cl.has("keep-sched");
  ScheduleFileWriter::Config SchedConfig = scheduleConfig(Cl);
  long SegmentArg = Cl.getInt("segment-objects", 1 << 20);
  size_t SegmentObjects =
      SegmentArg > 0 ? static_cast<size_t>(SegmentArg) : size_t(1) << 20;

  printBanner("Grand challenge",
              "billion-event streamed schedule synthesis and replay",
              Options);
  std::printf("target events: %llu; segment objects: %zu; chunk events: "
              "%llu\n\n",
              static_cast<unsigned long long>(TargetEvents), SegmentObjects,
              static_cast<unsigned long long>(SchedConfig.EventsPerChunk));

  // Synthesis: bounded segments appended to the writer.  Every
  // grandchallenge object is freed within its segment, so no object is
  // live across a segment seam and peak memory is one segment's trace
  // plus the writer's buffers.
  double SynthStart = wallTimeSeconds();
  ScheduleFileWriter Writer(SchedPath, SchedConfig);
  uint64_t Segment = 0;
  while (Writer.valid() && Writer.eventCount() < TargetEvents) {
    AllocationTrace Trace = generateFuzzTrace(FuzzProfile::GrandChallenge,
                                              Options.Seed + Segment,
                                              SegmentObjects);
    Writer.append(Trace);
    ++Segment;
  }
  if (!Writer.finish()) {
    std::fprintf(stderr, "error: %s\n", Writer.error().c_str());
    return 1;
  }
  double SynthSeconds = wallTimeSeconds() - SynthStart;

  std::string Error;
  std::optional<ScheduleFile> File = ScheduleFile::open(SchedPath, Error);
  if (!File) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::printf("synthesized %llu events in %llu segments: %.3f s, %llu MB "
              "on disk, %llu chunks\n",
              static_cast<unsigned long long>(File->eventCount()),
              static_cast<unsigned long long>(Segment), SynthSeconds,
              static_cast<unsigned long long>(File->fileBytes() >> 20),
              static_cast<unsigned long long>(File->chunkCount()));

  // The PR 4 single-thread reference: one segment replayed through the
  // in-memory compiled path (hash-map live table, LIFO free lists).
  AllocationTrace RefTrace = generateFuzzTrace(FuzzProfile::GrandChallenge,
                                               Options.Seed, SegmentObjects);
  CompiledTrace RefCompiled(RefTrace);
  uint64_t RefEvents = RefCompiled.schedule().size();
  double RefStart = wallTimeSeconds();
  simulateBsd(RefCompiled);
  double RefSeconds = wallTimeSeconds() - RefStart;
  double RefEvPerSec =
      RefSeconds > 0.0 ? static_cast<double>(RefEvents) / RefSeconds : 0.0;

  // The challenge replays: the Kingsley scan on one thread, then sharded.
  Cell Batch;
  Batch.Events = File->eventCount();
  double BatchStart = wallTimeSeconds();
  streamSimulateBsdBatched(*File);
  Batch.Seconds = wallTimeSeconds() - BatchStart;

  ThreadPool Pool(Options.Jobs);
  Cell Shard;
  Shard.Events = File->eventCount();
  double ShardStart = wallTimeSeconds();
  streamReplayBsdSharded(*File, Pool);
  Shard.Seconds = wallTimeSeconds() - ShardStart;

  double Speedup = RefEvPerSec > 0.0 ? Batch.eventsPerSec() / RefEvPerSec : 0.0;
  std::printf("\ncompiled reference (1 segment): %.0f events/sec\n",
              RefEvPerSec);
  std::printf("Kingsley scan, one thread:      %.0f events/sec "
              "(%.2fx the compiled path)\n",
              Batch.eventsPerSec(), Speedup);
  std::printf("Kingsley scan, sharded (%u jobs): %.0f events/sec\n",
              Options.Jobs, Shard.eventsPerSec());
  std::printf("peak RSS: %llu KB for a %llu MB schedule\n",
              static_cast<unsigned long long>(peakRssKb()),
              static_cast<unsigned long long>(File->fileBytes() >> 20));

  JsonReport Report("grand_challenge", Options);
  Report.setThroughput(Batch.Events + Shard.Events,
                       Batch.Seconds + Shard.Seconds);
  Report.add("compile.seconds", SynthSeconds);
  Report.add("compile.schedule_bytes", static_cast<double>(File->fileBytes()));
  Report.add("compile.events", static_cast<double>(File->eventCount()));
  Report.add("compile.chunks", static_cast<double>(File->chunkCount()));
  Report.add("replay.events", static_cast<double>(Batch.Events));
  Report.add("replay.seconds", Batch.Seconds);
  Report.add("replay.events_per_sec", Batch.eventsPerSec());
  Report.add("grand.batch.events_per_sec", Batch.eventsPerSec());
  Report.add("grand.shard.events_per_sec", Shard.eventsPerSec());
  Report.add("grand.compiled_ref.events_per_sec", RefEvPerSec);
  Report.add("grand.speedup_vs_compiled", Speedup);
  Report.write();

  if (!KeepSched)
    std::remove(SchedPath.c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine Cl(Argc, Argv);
  BenchOptions Options = BenchOptions::fromCommandLine(Cl);
  if (Cl.has("grand-challenge"))
    return runGrandChallenge(
        Cl, Options, static_cast<uint64_t>(Cl.getInt("grand-challenge", 0)));
  if (Cl.has("serve"))
    return runServeBench(Cl, Options);
  if (Cl.has("stream"))
    return runStreamBench(Cl, Options);
  std::string PolicyName = Cl.getString("policy", "roving");
  unsigned Repeat = static_cast<unsigned>(Cl.getInt("repeat", 3));
  if (Repeat < 1)
    Repeat = 1;

  FitPolicy Policy = FitPolicy::RovingFirstFit;
  if (PolicyName == "address")
    Policy = FitPolicy::AddressOrderedFirstFit;
  else if (PolicyName == "best")
    Policy = FitPolicy::BestFit;
  else if (PolicyName != "roving") {
    std::fprintf(stderr, "unknown --policy=%s (roving|address|best)\n",
                 PolicyName.c_str());
    return 1;
  }

  printBanner("Throughput", "simulator trace-replay events per second",
              Options);
  std::printf("fit policy: %s; repeats per trace: %u\n\n", PolicyName.c_str(),
              Repeat);

  SiteKeyPolicy KeyPolicy = SiteKeyPolicy::completeChain();
  std::unique_ptr<TraceEventWriter> TraceWriter = makeTraceWriter(Options);

  ThreadPool Pool(Options.Jobs);
  std::vector<ProgramTraces> All;
  {
    TraceSpan Span(TraceWriter.get(), "generate-traces");
    All = makeAllTraces(Options, Pool);
  }

  // Train the arena databases up front (outside the timed region).  The
  // audit pass additionally needs the trained per-site quantiles to score
  // train-to-test drift, so --audit-out keeps the profiles.
  std::vector<SiteDatabase> TrueDBs(All.size());
  std::vector<ClassDatabase> ClassDBs(All.size());
  std::vector<Profile> TrainProfiles(All.size());
  {
    TraceSpan Span(TraceWriter.get(), "train");
    parallelForIndex(Pool, All.size(), [&](size_t Index) {
      Profile TrainProfile = profileTrace(All[Index].Train, KeyPolicy);
      TrueDBs[Index] = trainDatabase(TrainProfile, KeyPolicy);
      ClassDBs[Index] =
          trainClassDatabase(TrainProfile, KeyPolicy, MultiArenaThresholds);
      if (!Options.AuditOutPath.empty() || !Options.DriftOutPath.empty())
        TrainProfiles[Index] = std::move(TrainProfile);
    });
  }

  FirstFitAllocator::Config FFConfig;
  FFConfig.Policy = Policy;

  // Timed compile phase: each program's test trace is compiled once —
  // event schedule plus per-record site keys — and shared read-only by
  // every replay task below at any --jobs.
  std::vector<CompiledTrace> Compiled(All.size());
  std::vector<double> CompileSeconds(All.size());
  {
    TraceSpan Span(TraceWriter.get(), "compile-schedules");
    parallelForIndex(Pool, All.size(), [&](size_t Index) {
      double Start = wallTimeSeconds();
      Compiled[Index] = CompiledTrace(All[Index].Test, KeyPolicy);
      CompileSeconds[Index] = wallTimeSeconds() - Start;
    });
  }
  double CompileTotalSeconds = 0.0;
  uint64_t ScheduleBytes = 0;
  uint64_t ScheduleEvents = 0;
  for (size_t I = 0; I < All.size(); ++I) {
    CompileTotalSeconds += CompileSeconds[I];
    ScheduleBytes += Compiled[I].schedule().memoryBytes();
    ScheduleEvents += Compiled[I].schedule().size();
  }

  // One task per (program, allocator); each repeats its replay and times
  // only the replay calls.
  std::vector<Cell> Cells(All.size() * AllocatorCount);
  {
    TraceSpan Span(TraceWriter.get(), "timed-replays");
    parallelForIndex(Pool, Cells.size(), [&](size_t Task) {
      size_t ProgramIndex = Task / AllocatorCount;
      unsigned Allocator = Task % AllocatorCount;
      const ProgramTraces &Traces = All[ProgramIndex];
      const CompiledTrace &Test = Compiled[ProgramIndex];
      Cell &C = Cells[Task];
      C.Events = uint64_t(Repeat) * replayEventCount(Traces.Test);
      double Start = wallTimeSeconds();
      for (unsigned R = 0; R < Repeat; ++R) {
        switch (Allocator) {
        case 0:
          oracleReplay<LegacyFirstFitAllocator>(Traces.Test, FFConfig);
          break;
        case 1:
          oracleReplay<FirstFitAllocator>(Traces.Test, FFConfig);
          break;
        case 2:
          simulateFirstFit(Test, CostModel(), FFConfig);
          break;
        case 3:
          simulateBsd(Test);
          break;
        case 4:
          simulateArena(Test, TrueDBs[ProgramIndex],
                        Traces.Model.CallsPerAlloc);
          break;
        case 5:
          simulateMultiArena(Test, ClassDBs[ProgramIndex],
                             multiArenaConfig());
          break;
        }
      }
      C.Seconds = wallTimeSeconds() - Start;
    });
  }

  TableFormatter Table({"Program", "Allocator", "Events", "Seconds",
                        "Events/sec", "vs legacy"});
  JsonReport Report("sim_throughput", Options);

  Cell LegacyTotal, OracleTotal, FlatTotal, ReplayTotal;
  uint64_t TotalEvents = 0;
  double TotalSeconds = 0.0;
  for (size_t I = 0; I < All.size(); ++I) {
    const Cell &Legacy = Cells[I * AllocatorCount + 0];
    for (unsigned A = 0; A < AllocatorCount; ++A) {
      const Cell &C = Cells[I * AllocatorCount + A];
      TotalEvents += C.Events;
      TotalSeconds += C.Seconds;
      if (A >= 2) { // The compiled production replays: the headline.
        ReplayTotal.Events += C.Events;
        ReplayTotal.Seconds += C.Seconds;
      }
      Table.beginRow();
      Table.addCell(A == 0 ? All[I].Model.Name : "");
      Table.addCell(AllocatorNames[A]);
      Table.addInt(static_cast<int64_t>(C.Events));
      Table.addReal(C.Seconds, 3);
      Table.addInt(static_cast<int64_t>(C.eventsPerSec()));
      Table.addReal(Legacy.Seconds > 0.0 && C.Seconds > 0.0
                        ? Legacy.Seconds / C.Seconds
                        : 0.0,
                    2);
      Report.add(std::string(All[I].Model.Name) + "." + AllocatorNames[A] +
                     ".events_per_sec",
                 C.eventsPerSec());
    }
    LegacyTotal.Events += Legacy.Events;
    LegacyTotal.Seconds += Legacy.Seconds;
    OracleTotal.Events += Cells[I * AllocatorCount + 1].Events;
    OracleTotal.Seconds += Cells[I * AllocatorCount + 1].Seconds;
    FlatTotal.Events += Cells[I * AllocatorCount + 2].Events;
    FlatTotal.Seconds += Cells[I * AllocatorCount + 2].Seconds;
  }
  Table.print(std::cout);

  double BlockStoreSpeedup = OracleTotal.Seconds > 0.0
                                 ? LegacyTotal.Seconds / OracleTotal.Seconds
                                 : 0.0;
  double CompileSpeedup = FlatTotal.Seconds > 0.0
                              ? OracleTotal.Seconds / FlatTotal.Seconds
                              : 0.0;
  std::printf("\nschedule compile: %.3f s for %llu events (%llu KB of "
              "schedule)\n",
              CompileTotalSeconds,
              static_cast<unsigned long long>(ScheduleEvents),
              static_cast<unsigned long long>(ScheduleBytes / 1024));
  std::printf("first-fit replay (%s): legacy %.0f ev/s, oracle %.0f ev/s "
              "(block store %.2fx), compiled %.0f ev/s (schedule %.2fx)\n",
              PolicyName.c_str(), LegacyTotal.eventsPerSec(),
              OracleTotal.eventsPerSec(), BlockStoreSpeedup,
              FlatTotal.eventsPerSec(), CompileSpeedup);
  std::printf("compiled production replays: %.0f events/sec\n",
              ReplayTotal.eventsPerSec());

  Report.setThroughput(TotalEvents, TotalSeconds);
  Report.add("compile.seconds", CompileTotalSeconds);
  Report.add("compile.schedule_bytes", static_cast<double>(ScheduleBytes));
  Report.add("compile.events", static_cast<double>(ScheduleEvents));
  Report.add("replay.events", static_cast<double>(ReplayTotal.Events));
  Report.add("replay.seconds", ReplayTotal.Seconds);
  Report.add("replay.events_per_sec", ReplayTotal.eventsPerSec());
  Report.add("legacy_ff.events_per_sec", LegacyTotal.eventsPerSec());
  Report.add("oracle_ff.events_per_sec", OracleTotal.eventsPerSec());
  Report.add("flat_ff.events_per_sec", FlatTotal.eventsPerSec());
  Report.add("flat_vs_legacy_speedup", BlockStoreSpeedup);
  Report.add("compiled_vs_oracle_speedup", CompileSpeedup);

  // Untimed instrumented replays: allocator counters, histograms, and
  // prediction outcomes for the JSON report's telemetry section.  One
  // registry per program, merged in program order — deterministic at any
  // --jobs.  Runs after the timed region so it cannot perturb it.
  StatsRegistry Telemetry;
  HeapTimeline Timeline(Options.TimelineStride);
  BenchObservatory Observatory(Options, All.size());
  bool Audit = !Options.AuditOutPath.empty();
  bool Drift = !Options.DriftOutPath.empty();
  if (!Options.JsonPath.empty() || TraceWriter || Audit || Drift ||
      Observatory.enabled()) {
    TraceSpan Span(TraceWriter.get(), "instrumented-replays");
    std::vector<StatsRegistry> PerProgram(All.size());
    std::vector<PredictionCounts> ArenaOutcomes(All.size());
    // One flight recorder per program replay: each records serially inside
    // its task and is read back in program order below, so the audit output
    // is bit-identical at any --jobs.
    std::vector<std::unique_ptr<FlightRecorder>> Recorders(All.size());
    // One drift observatory per program's arena replay, built and read in
    // program order — the --drift-out report is bit-identical at any
    // --jobs.
    std::vector<std::unique_ptr<DriftObservatory>> DriftObs(All.size());
    if (Audit) {
      FlightRecorder::Config RecorderConfig;
      RecorderConfig.Seed = Options.Seed;
      for (auto &Recorder : Recorders)
        Recorder = std::make_unique<FlightRecorder>(RecorderConfig);
    }
    parallelForIndex(Pool, All.size(), [&](size_t Index) {
      TraceSpan ProgramSpan(TraceWriter.get(), All[Index].Model.Name,
                            "replay");
      const CompiledTrace &Test = Compiled[Index];
      SimTelemetry FF;
      FF.Registry = &PerProgram[Index];
      if (Index == 0 && Options.TimelineStride > 0)
        FF.Timeline = &Timeline;
      Observatory.attach(FF, Index, BenchObservatory::FirstFit);
      simulateFirstFit(Test, CostModel(), FFConfig, &FF);
      SimTelemetry Bsd;
      Bsd.Registry = &PerProgram[Index];
      Observatory.attach(Bsd, Index, BenchObservatory::Bsd);
      simulateBsd(Test, CostModel(), BsdAllocator::Config(), &Bsd);
      SimTelemetry Arena;
      Arena.Registry = &PerProgram[Index];
      Arena.Recorder = Recorders[Index].get();
      if (Drift) {
        DriftConfig Config;
        Config.EndClock = Test.schedule().endClock();
        Config.WindowBytes = Options.DriftWindowBytes;
        Config.Threshold = TrueDBs[Index].threshold();
        DriftObs[Index] = std::make_unique<DriftObservatory>(Config);
        Arena.Drift = DriftObs[Index].get();
      }
      Observatory.attach(Arena, Index, BenchObservatory::Arena);
      simulateArena(Test, TrueDBs[Index], All[Index].Model.CallsPerAlloc,
                    CostModel(), ArenaAllocator::Config(), &Arena);
      ArenaOutcomes[Index] = Arena.Outcomes;
      SimTelemetry Multi;
      Multi.Registry = &PerProgram[Index];
      Observatory.attach(Multi, Index, BenchObservatory::Multi);
      simulateMultiArena(Test, ClassDBs[Index], multiArenaConfig(), &Multi);
    });
    for (size_t I = 0; I < All.size(); ++I) {
      Telemetry.merge(PerProgram[I]);
      Report.add(std::string(All[I].Model.Name) + ".arena.pred_accuracy_pct",
                 ArenaOutcomes[I].accuracyPercent());
    }
    if (Audit) {
      std::FILE *AuditFile = std::fopen(Options.AuditOutPath.c_str(), "w");
      if (!AuditFile)
        std::fprintf(stderr, "warning: cannot write --audit-out=%s\n",
                     Options.AuditOutPath.c_str());
      for (size_t I = 0; I < All.size(); ++I) {
        std::string Name = All[I].Model.Name;
        TrainedQuantileMap Trained =
            buildTrainedQuantiles(All[I].Test, TrainProfiles[I], KeyPolicy);
        AuditReport ProgramAudit =
            buildAuditReport(*Recorders[I], &Trained, Name + ".arena");
        if (AuditFile)
          printAuditReport(ProgramAudit, AuditFile);
        exportAuditTelemetry(ProgramAudit, Telemetry, "audit." + Name + ".");
        Report.add(Name + ".audit.wasted_bytes",
                   static_cast<double>(ProgramAudit.wastedBytes()));
        Report.add(Name + ".audit.dead_bytes_pinned",
                   static_cast<double>(ProgramAudit.TotalDeadByteIntegral));
        if (TraceWriter)
          emitArenaOccupancy(ProgramAudit, *TraceWriter);
      }
      if (AuditFile)
        std::fclose(AuditFile);
    }
    if (Drift) {
      std::string DriftJson =
          "{\n  \"schema_version\": 1,\n  \"reports\": [\n";
      uint64_t TotalWindows = 0;
      uint64_t TotalChangePoints = 0;
      bool HaveWorst = false;
      DriftSiteScore Worst;
      for (size_t I = 0; I < All.size(); ++I) {
        std::string Name = All[I].Model.Name;
        TrainedQuantileMap Trained =
            buildTrainedQuantiles(All[I].Test, TrainProfiles[I], KeyPolicy);
        DriftReport ProgramDrift =
            buildDriftReport(*DriftObs[I], &Trained, Name + ".arena");
        writeDriftJson(ProgramDrift, DriftJson, "    ");
        DriftJson += I + 1 != All.size() ? ",\n" : "\n";
        exportDriftTelemetry(ProgramDrift, Telemetry, "drift." + Name + ".");
        if (TraceWriter)
          emitDriftTrack(ProgramDrift, *TraceWriter,
                         900 + static_cast<unsigned>(I) * 2);
        TotalWindows += ProgramDrift.Windows.size();
        TotalChangePoints += ProgramDrift.changePointCount();
        Report.add(Name + ".drift.windows",
                   static_cast<double>(ProgramDrift.Windows.size()));
        Report.add(Name + ".drift.changepoint_count",
                   static_cast<double>(ProgramDrift.changePointCount()));
        if (ProgramDrift.hasWorstSite() &&
            (!HaveWorst || ProgramDrift.worstSite().Score > Worst.Score)) {
          HaveWorst = true;
          Worst = ProgramDrift.worstSite();
        }
      }
      DriftJson += "  ]\n}\n";
      Report.add("drift.windows", static_cast<double>(TotalWindows));
      Report.add("drift.changepoint_count",
                 static_cast<double>(TotalChangePoints));
      if (HaveWorst) {
        Report.add("drift.worst_site_id", static_cast<double>(Worst.Site));
        Report.add("drift.worst_site_window",
                   static_cast<double>(Worst.Window));
        Report.add("drift.worst_site_score", Worst.Score);
      }
      std::FILE *DriftFile = std::fopen(Options.DriftOutPath.c_str(), "w");
      if (!DriftFile) {
        std::fprintf(stderr, "warning: cannot write --drift-out=%s\n",
                     Options.DriftOutPath.c_str());
      } else {
        std::fwrite(DriftJson.data(), 1, DriftJson.size(), DriftFile);
        std::fclose(DriftFile);
        std::printf("drift JSON written to %s\n",
                    Options.DriftOutPath.c_str());
      }
    }
    if (Options.TimelineStride > 0) {
      Timeline.exportTelemetry(Telemetry, "timeline.");
      Report.attachTimeline(&Timeline);
    }
    Observatory.finish(Options, All);
    Report.attachTelemetry(&Telemetry);
  }

  Report.write();
  if (TraceWriter)
    TraceWriter->close();
  return 0;
}
