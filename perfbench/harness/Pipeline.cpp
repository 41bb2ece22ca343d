//===- perfbench/harness/Pipeline.cpp - The "pipeline" workload -----------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
// The path every table bench takes, serially, for each of the five paper
// programs: profile the train trace (P² quantiles inside), train the site
// and class databases, compile the test trace with site keys, compile the
// online route plan, replay first fit, BSD, arena, multi-arena and the
// online-routed arena, then one instrumented report pass (registry + drift
// observatory + JSON).  It never calls the real heap.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Inputs.h"

#include "core/LifetimeClassifier.h"
#include "core/Profiler.h"
#include "core/Trainer.h"
#include "runtime/Retrainer.h"
#include "sim/CompiledPrediction.h"
#include "sim/MultiArenaSimulator.h"
#include "sim/SimTelemetry.h"
#include "sim/TraceSimulator.h"
#include "telemetry/DriftObservatory.h"
#include "telemetry/FragmentationProbe.h"
#include "telemetry/LatencyRecorder.h"
#include "telemetry/StatsRegistry.h"

#include <cstdio>

using namespace perfbench;
using namespace lifepred;

namespace {

/// The two-band geometry the multi-arena bench rows use: the paper's
/// single 32 KB band area split into a 16 KB and a 32 KB lifetime band.
const std::vector<uint64_t> BandThresholds = {16 * 1024, 32 * 1024};

MultiArenaAllocator::Config multiArenaConfig() {
  MultiArenaAllocator::Config Config;
  Config.Bands = {{32 * 1024, 8}, {32 * 1024, 8}};
  return Config;
}

constexpr unsigned FamilyCount = 5;
const char *const FamilyNames[FamilyCount] = {"firstfit", "bsd", "arena",
                                              "multiarena", "arena_online"};

/// One program's trained and compiled artifacts.
struct Trained {
  Profile Prof;
  SiteDatabase DB;
  ClassDatabase Classes;
  CompiledTrace Compiled;
};

class PipelineWorkload : public Workload {
public:
  explicit PipelineWorkload(const Options &O) : O(O) {}

  void setup(Sample &Out) override {
    double Seconds = 0.0;
    Programs = generatePrograms(O.Tiny ? 0.002 : 0.005, O.Seed, Seconds);
    Out["workloads.generate_s"] = Seconds;
  }

  void pass(Sample &Out, Checks &C) override {
    const SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
    double ProfileS = 0, TrainS = 0, CompileS = 0, PlanS = 0, ReportS = 0;
    double FamilySeconds[FamilyCount] = {};
    double Events = 0, Sites = 0, ScheduleBytes = 0, Retrains = 0;
    double SearchSteps = 0, FirstFitAllocs = 0, Fallbacks = 0, Resets = 0;
    double ArenaBytes = 0, GeneralBytes = 0, ArenaHeap = 0, FirstFitHeap = 0;
    RouteScore Static, Online;

    for (const ProgramInput &P : Programs) {
      const std::string &Name = P.Model.Name;
      Trained T;
      ProfileS += timed([&] {
        Span S("core", "profileTrace");
        T.Prof = profileTrace(P.Train, Policy);
      });
      TrainS += timed([&] {
        Span S("core", "trainDatabase");
        T.DB = trainDatabase(T.Prof, Policy);
        T.Classes = trainClassDatabase(T.Prof, Policy, BandThresholds);
      });
      Sites += static_cast<double>(T.Prof.Sites.size());
      CompileS += timed([&] {
        Span S("trace", "CompiledTrace");
        T.Compiled = CompiledTrace(P.Test, Policy);
      });
      const EventSchedule &Schedule = T.Compiled.schedule();
      Events += static_cast<double>(Schedule.size());
      ScheduleBytes += static_cast<double>(Schedule.memoryBytes());

      OnlineRoutePlan Plan;
      PlanS += timed([&] {
        Span S("runtime", "compileOnlineRoutes");
        OnlinePredictorConfig Config;
        Config.WarmStart = &T.DB;
        Plan = compileOnlineRoutes(T.Compiled, Config);
      });
      Retrains += static_cast<double>(Plan.Retrains.size());
      DynamicRouteBits Routes(Plan.RouteWords);

      BaselineSimResult FirstFit, Bsd;
      ArenaSimResult Arena, ArenaOnline;
      MultiArenaSimResult Multi;
      double CallsPerAlloc = P.Model.CallsPerAlloc;
      FamilySeconds[0] += timed([&] {
        Span S("sim", "simulateFirstFit");
        FirstFit = simulateFirstFit(T.Compiled);
      });
      FamilySeconds[1] += timed([&] {
        Span S("sim", "simulateBsd");
        Bsd = simulateBsd(T.Compiled);
      });
      FamilySeconds[2] += timed([&] {
        Span S("sim", "simulateArena");
        Arena = simulateArena(T.Compiled, T.DB, CallsPerAlloc);
      });
      FamilySeconds[3] += timed([&] {
        Span S("sim", "simulateMultiArena");
        Multi = simulateMultiArena(T.Compiled, T.Classes, multiArenaConfig());
      });
      FamilySeconds[4] += timed([&] {
        Span S("sim", "simulateArena.online");
        ArenaOnline = simulateArena(T.Compiled, T.DB, Routes, CallsPerAlloc);
      });
      size_t ReportBytes = 0;
      ReportS += timed([&] { ReportBytes = report(P, T); });
      C.expect(ReportBytes > 0, Name + ": report pass wrote its JSON");

      PredictedShortBits Bits(T.Compiled, T.DB);
      addScore(Static, scoreRoutes(P.Test, T.DB.threshold(), [&](uint64_t Id) {
                 return Bits.test(Id);
               }));
      addScore(Online, scoreRoutes(P.Test, T.DB.threshold(), [&](uint64_t Id) {
                 return Plan.testShort(Id);
               }));

      checkBalance(C, P, Schedule, FirstFit, Bsd, Arena, ArenaOnline, Multi);
      SearchSteps += static_cast<double>(FirstFit.FirstFit.SearchSteps);
      FirstFitAllocs += static_cast<double>(FirstFit.FirstFit.Allocs);
      Fallbacks += static_cast<double>(Arena.Arena.FallbackAllocs);
      Resets += static_cast<double>(Arena.Arena.Resets);
      ArenaBytes += static_cast<double>(Arena.Arena.ArenaBytes);
      GeneralBytes += static_cast<double>(Arena.Arena.GeneralBytes);
      ArenaHeap += static_cast<double>(Arena.MaxHeapBytes);
      FirstFitHeap += static_cast<double>(FirstFit.MaxHeapBytes);
      Out["alloc." + Name + ".model_instr_per_pair.arena_len4"] =
          Arena.InstrLen4.total();
      Out["alloc." + Name + ".model_instr_per_pair.firstfit"] =
          FirstFit.Instr.total();
    }

    double ReplaySeconds = 0;
    for (unsigned F = 0; F < FamilyCount; ++F) {
      ReplaySeconds += FamilySeconds[F];
      Out[std::string("sim.") + FamilyNames[F] + ".meps"] =
          meps(Events, FamilySeconds[F]);
    }
    Out["replay_meps"] = meps(FamilyCount * Events, ReplaySeconds);
    Out["core.profile_s"] = ProfileS;
    Out["core.train_s"] = TrainS;
    Out["core.sites"] = Sites;
    Out["trace.compile_s"] = CompileS;
    Out["trace.compile_meps"] = meps(Events, CompileS);
    Out["trace.schedule_mb"] = ScheduleBytes / (1024.0 * 1024.0);
    Out["runtime.online_plan_s"] = PlanS;
    Out["runtime.retrains"] = Retrains;
    Out["telemetry.report_s"] = ReportS;
    Out["pred_accuracy_pct"] = Static.accuracyPercent();
    Out["online_accuracy_pct"] = Online.accuracyPercent();
    Out["arena_bytes_pct"] = percentOf(ArenaBytes, ArenaBytes + GeneralBytes);
    Out["heap_ratio_pct"] = percentOf(ArenaHeap, FirstFitHeap);
    Out["alloc.ff_search_steps_per_op"] =
        FirstFitAllocs == 0 ? 0.0 : SearchSteps / FirstFitAllocs;
    Out["alloc.arena_fallbacks"] = Fallbacks;
    Out["alloc.arena_resets"] = Resets;
  }

  /// The telemetry overhead rows: the static arena replay detached, with
  /// the registry attached, and with the full observatory (registry,
  /// fragmentation probe, latency recorder, drift observatory).
  void layerRows(Sample &Out, Checks &C) override {
    (void)C;
    const SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
    std::vector<Trained> All(Programs.size());
    for (size_t I = 0; I < Programs.size(); ++I) {
      All[I].Prof = profileTrace(Programs[I].Train, Policy);
      All[I].DB = trainDatabase(All[I].Prof, Policy);
      All[I].Compiled = CompiledTrace(Programs[I].Test, Policy);
    }
    constexpr unsigned Configs = 3;
    std::vector<double> Seconds[Configs];
    for (unsigned Repeat = 0; Repeat < (O.Tiny ? 1u : 15u); ++Repeat) {
      for (unsigned Config = 0; Config < Configs; ++Config) {
        double Total = 0;
        for (size_t I = 0; I < Programs.size(); ++I) {
          const Trained &T = All[I];
          StatsRegistry Registry;
          FragmentationProbe Probe(64 * 1024);
          LatencyRecorder Latency;
          DriftConfig DC;
          DC.EndClock = T.Compiled.schedule().endClock();
          DC.Threshold = T.DB.threshold();
          DriftObservatory Drift(DC);
          SimTelemetry Tel;
          if (Config >= 1)
            Tel.Registry = &Registry;
          if (Config == 2) {
            Tel.Fragmentation = &Probe;
            Tel.Latency = &Latency;
            Tel.Drift = &Drift;
          }
          Total += timed([&] {
            Span S("sim", "simulateArena.overhead");
            simulateArena(T.Compiled, T.DB, Programs[I].Model.CallsPerAlloc,
                          CostModel(), ArenaAllocator::Config(),
                          Config == 0 ? nullptr : &Tel);
          });
        }
        Seconds[Config].push_back(Total);
      }
    }
    double Detached = median(Seconds[0]);
    Out["telemetry.registry_overhead_pct"] =
        percentOf(median(Seconds[1]) - Detached, Detached);
    Out["telemetry.overhead_pct"] =
        percentOf(median(Seconds[2]) - Detached, Detached);
  }

  void describe(const Sample &M) const override {
    std::printf("pipeline: 5 programs; per pass profile %.4f s, train %.4f s, "
                "compile %.4f s, online plan %.4f s, report %.4f s\n",
                valueOf(M, "core.profile_s"), valueOf(M, "core.train_s"),
                valueOf(M, "trace.compile_s"),
                valueOf(M, "runtime.online_plan_s"),
                valueOf(M, "telemetry.report_s"));
    std::printf("pipeline: replay M events/s: firstfit %.2f, bsd %.2f, "
                "arena %.2f, multiarena %.2f, arena_online %.2f\n",
                valueOf(M, "sim.firstfit.meps"), valueOf(M, "sim.bsd.meps"),
                valueOf(M, "sim.arena.meps"), valueOf(M, "sim.multiarena.meps"),
                valueOf(M, "sim.arena_online.meps"));
    std::printf("pipeline: accuracy static %.3f%%, online %.3f%%; arena bytes "
                "%.3f%%; arena/first-fit max heap %.3f%%\n",
                valueOf(M, "pred_accuracy_pct"),
                valueOf(M, "online_accuracy_pct"),
                valueOf(M, "arena_bytes_pct"), valueOf(M, "heap_ratio_pct"));
  }

private:
  static void addScore(RouteScore &Total, const RouteScore &S) {
    Total.TrueShort += S.TrueShort;
    Total.FalseShort += S.FalseShort;
    Total.MissedShort += S.MissedShort;
    Total.TrueLong += S.TrueLong;
  }

  /// The instrumented report pass: registry and drift observatory on the
  /// static arena replay, then the drift report and both JSON documents.
  static size_t report(const ProgramInput &P, const Trained &T) {
    Span S("telemetry", "report");
    StatsRegistry Registry;
    DriftConfig DC;
    DC.EndClock = T.Compiled.schedule().endClock();
    DC.Threshold = T.DB.threshold();
    DriftObservatory Drift(DC);
    SimTelemetry Tel;
    Tel.Registry = &Registry;
    Tel.Drift = &Drift;
    {
      Span Replay("sim", "simulateArena.instrumented");
      simulateArena(T.Compiled, T.DB, P.Model.CallsPerAlloc, CostModel(),
                    ArenaAllocator::Config(), &Tel);
    }
    DriftReport Report = buildDriftReport(Drift, nullptr, P.Model.Name);
    std::string Json;
    writeDriftJson(Report, Json, "");
    Registry.writeJson(Json, "");
    return Json.size();
  }

  static void checkBalance(Checks &C, const ProgramInput &P,
                           const EventSchedule &Schedule,
                           const BaselineSimResult &FirstFit,
                           const BaselineSimResult &Bsd,
                           const ArenaSimResult &Arena,
                           const ArenaSimResult &ArenaOnline,
                           const MultiArenaSimResult &Multi) {
    const std::string &Name = P.Model.Name;
    uint64_t Records = P.Test.size();
    uint64_t Freed = P.TestFreed;
    C.expect(Schedule.size() == Records + Freed,
             Name + ": schedule events = records + freed records");
    C.expect(FirstFit.FirstFit.Allocs == Records &&
                 FirstFit.FirstFit.Frees == Freed,
             Name + ": first-fit allocs and frees balance");
    C.expect(Bsd.Bsd.Allocs == Records && Bsd.Bsd.Frees == Freed,
             Name + ": bsd allocs and frees balance");
    for (const ArenaSimResult *R : {&Arena, &ArenaOnline})
      C.expect(R->Arena.ArenaAllocs + R->Arena.GeneralAllocs == Records &&
                   R->Arena.ArenaFrees + R->Arena.GeneralFrees == Freed,
               Name + ": arena + general allocs = records, frees balance");
    uint64_t BandAllocs = Multi.GeneralAllocs, BandFrees = Multi.General.Frees;
    for (const MultiArenaAllocator::BandCounters &Band : Multi.PerBand) {
      BandAllocs += Band.Allocs;
      BandFrees += Band.Frees;
    }
    C.expect(BandAllocs == Records && BandFrees == Freed,
             Name + ": multi-arena allocs and frees balance");
  }

  const Options O;
  std::vector<ProgramInput> Programs;
};

} // namespace

std::unique_ptr<Workload> perfbench::makePipelineWorkload(const Options &O) {
  return std::make_unique<PipelineWorkload>(O);
}
