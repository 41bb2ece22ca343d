//===- examples/custom_workload.cpp - Building your own program model ------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
// Shows the workload-modeling API: declare a program as groups of
// allocation sites (call paths, sizes, lifetime distributions, rates),
// generate train/test traces from it, and push them through the full
// prediction-and-simulation pipeline.  Use this as a template to study how
// lifetime prediction would behave on *your* application's allocation
// profile.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "sim/TraceSimulator.h"
#include "workloads/ModelBuilder.h"
#include "workloads/WorkloadRunner.h"

#include <cstdio>

using namespace lifepred;

namespace {

/// A toy web-server model: request parsing churns small short-lived
/// buffers, a response cache holds mixed-lifetime entries, and the routing
/// table is permanent.
ProgramModel webServerModel() {
  ProgramModel Model;
  Model.Name = "WEBSERVER";
  Model.Description = "toy HTTP server: requests, cache, routing table";
  Model.BaseObjects = 400000;
  Model.TargetHeapRefPercent = 60;
  Model.TestWeightSigma = 0.2; // Test traffic differs a little.
  Model.CallsPerAlloc = 8;

  std::vector<PathSegment> Request = {seg("main"), seg("event_loop"),
                                      seg("handle_request")};
  auto RequestLived = LifetimeDistribution::fromQuantiles(
      {{0, 64}, {0.5, 2000}, {1.0, 20000}});
  auto CacheLived = LifetimeDistribution::mixture(
      {{0.7, RequestLived},
       {0.3, LifetimeDistribution::logUniform(100000, 5 * 1000 * 1000)}});

  // Header/body buffers: die when the request completes.  They sit behind
  // one buffer-pool wrapper, so length-1 chains cannot tell them from the
  // cache entries below — prediction needs length >= 2.
  {
    GroupSpec G;
    G.BaseName = "req_buf";
    G.Count = 24;
    G.Prefix = Request;
    G.Suffix = {seg("pool_alloc")};
    G.Sizes = {64, 128, 256, 512};
    G.ByteShare = 0.75;
    G.Lifetime = RequestLived;
    G.RefsPerByte = 1.0;
    addGroup(Model, G);
  }
  // Response-cache entries: mostly short, sometimes pinned for minutes.
  {
    GroupSpec G;
    G.BaseName = "cache_entry";
    G.Count = 12;
    G.Prefix = Request;
    G.Suffix = {seg("pool_alloc")};
    G.Sizes = {64, 128, 256, 512};
    G.ByteShare = 0.24;
    G.Lifetime = CacheLived;
    G.RefsPerByte = 2.0;
    addGroup(Model, G);
  }
  // Routing table: loaded at startup, permanent.
  {
    GroupSpec G;
    G.BaseName = "route";
    G.Count = 2;
    G.Prefix = {seg("main"), seg("load_config")};
    G.Sizes = {96};
    G.ByteShare = 0.01;
    G.Lifetime = LifetimeDistribution::permanent();
    G.RefsPerByte = 3.0;
    G.BurstLength = 128; // Read in one batch.
    addGroup(Model, G);
  }
  return Model;
}

} // namespace

int main() {
  ProgramModel Model = webServerModel();
  FunctionRegistry Registry;
  RunOptions Run;
  Run.Kind = RunKind::Train;
  AllocationTrace Train = runWorkload(Model, Run, Registry);
  Run.Kind = RunKind::Test;
  AllocationTrace Test = runWorkload(Model, Run, Registry);
  std::printf("%s: %zu train / %zu test allocations, %zu distinct chains\n",
              Model.Name.c_str(), Train.size(), Test.size(),
              Train.chainCount());

  // How deep must the call-chain be for effective prediction?
  for (unsigned Length : {1u, 2u, 3u}) {
    PipelineResult R =
        trainAndEvaluate(Train, Test, SiteKeyPolicy::lastN(Length));
    std::printf("  length-%u chains: %.1f%% of bytes predicted "
                "short-lived (%.2f%% error)\n",
                Length, R.Report.predictedShortPercent(),
                R.Report.errorPercent());
  }

  // And what does the arena allocator buy at the best length?
  PipelineResult Best =
      trainAndEvaluate(Train, Test, SiteKeyPolicy::lastN(4));
  CompiledTrace Compiled(Test, Best.Database.policy());
  ArenaSimResult Arena =
      simulateArena(Compiled, Best.Database, Model.CallsPerAlloc);
  BaselineSimResult FF = simulateFirstFit(Compiled);
  std::printf("\narena allocator: %.1f%% of objects in arenas; "
              "alloc+free %.0f instr vs first fit's %.0f\n",
              Arena.arenaAllocPercent(), Arena.InstrLen4.total(),
              FF.Instr.total());
  return 0;
}
