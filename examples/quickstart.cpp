//===- examples/quickstart.cpp - Five-minute tour of the library -----------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
// Builds a tiny allocation trace by hand, trains a lifetime predictor on
// it, evaluates the prediction, and replays the trace through the
// lifetime-predicting arena allocator.  Start here.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "sim/TraceSimulator.h"

#include <cstdio>

using namespace lifepred;

int main() {
  // 1. An allocation trace.  Real users record one with RuntimeProfiler or
  //    generate one with the workload models; here we write it by hand.
  //    Lifetimes are measured in bytes allocated (the paper's clock).
  AllocationTrace Trace;
  uint32_t TempSite = Trace.internChain(CallChain{/*main=*/0, /*parse=*/1});
  uint32_t TableSite = Trace.internChain(CallChain{/*main=*/0, /*build=*/2});
  for (int I = 0; I < 10000; ++I) {
    // Parser temporaries: die within ~2 KB of further allocation.
    Trace.append({/*Lifetime=*/2000, /*Size=*/32, TempSite, /*Refs=*/4});
    if (I % 100 == 0) // Symbol-table nodes: live ~1 MB of allocation.
      Trace.append({1000000, 48, TableSite, 8});
  }

  // 2. Train: profile the trace per allocation site and select every site
  //    whose objects all died before the 32 KB threshold.
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  PipelineResult Result = trainAndEvaluate(Trace, Trace, Policy);
  std::printf("sites observed:        %zu\n",
              Result.TrainingProfile.Sites.size());
  std::printf("sites predicted short: %zu\n", Result.Database.size());
  std::printf("bytes predicted short: %.1f%% (error %.2f%%)\n",
              Result.Report.predictedShortPercent(),
              Result.Report.errorPercent());

  // 3. Simulate the paper's arena allocator against plain first fit.
  //    Compile the trace once (schedule plus site keys under the database's
  //    policy); every replay shares it.
  CompiledTrace Compiled(Trace, Result.Database.policy());
  ArenaSimResult Arena =
      simulateArena(Compiled, Result.Database, /*CallsPerAlloc=*/5);
  BaselineSimResult FirstFit = simulateFirstFit(Compiled);
  std::printf("\narena allocator: %.1f%% of objects bump-allocated in the "
              "64 KB arena area\n",
              Arena.arenaAllocPercent());
  std::printf("max heap: first-fit %llu KB, arena %llu KB\n",
              static_cast<unsigned long long>(FirstFit.MaxHeapBytes / 1024),
              static_cast<unsigned long long>(Arena.MaxHeapBytes / 1024));
  std::printf("instructions per alloc+free: first-fit %.0f, arena %.0f\n",
              FirstFit.Instr.total(), Arena.InstrLen4.total());
  return 0;
}
