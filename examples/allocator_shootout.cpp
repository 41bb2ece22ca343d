//===- examples/allocator_shootout.cpp - Compare allocators on a model -----===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
// Runs one of the five modeled programs (default GAWK) through BSD, first
// fit, and the lifetime-predicting arena allocator, and prints a compact
// comparison: heap size, CPU cost, and arena fractions.  Flags:
//
//   --program=CFRAC|ESPRESSO|GAWK|GHOST|PERL
//   --scale=0.25          object-count multiplier
//   --threshold=32768     short-lived threshold in bytes
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/Pipeline.h"
#include "sim/TraceSimulator.h"
#include "support/CommandLine.h"
#include "support/TableFormatter.h"
#include "workloads/Programs.h"
#include "workloads/WorkloadRunner.h"

#include <cstdio>
#include <iostream>
#include <vector>

using namespace lifepred;

int main(int Argc, char **Argv) {
  CommandLine Cl(Argc, Argv);
  std::string Name = Cl.getString("program", "GAWK");
  ProgramModel Model = requireProgram(Name, "--program=" + Name);

  RunOptions Run;
  Run.Scale = Cl.getDouble("scale", 0.25);
  Run.Seed = static_cast<uint64_t>(Cl.getInt("seed", 0x1993));
  FunctionRegistry Registry;
  Run.Kind = RunKind::Train;
  AllocationTrace Train = runWorkload(Model, Run, Registry);
  Run.Kind = RunKind::Test;
  AllocationTrace Test = runWorkload(Model, Run, Registry);

  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  TrainingOptions Options;
  Options.Threshold =
      static_cast<uint64_t>(Cl.getInt("threshold", 32 * 1024));
  SiteDatabase DB =
      trainDatabase(profileTrace(Train, Policy), Policy, Options);
  PredictionReport Report = evaluatePrediction(Test, DB);

  std::printf("%s (%s)\n", Model.Name.c_str(), Model.Description.c_str());
  std::printf("trained %zu short-lived sites (threshold %llu bytes); "
              "true prediction covers %.1f%% of bytes, %.2f%% error\n\n",
              DB.size(),
              static_cast<unsigned long long>(Options.Threshold),
              Report.predictedShortPercent(), Report.errorPercent());

  CostModel Costs;
  CompiledTrace Compiled(Test, DB.policy());
  BaselineSimResult Bsd = simulateBsd(Compiled, Costs);
  BaselineSimResult FF = simulateFirstFit(Compiled, Costs);
  ArenaSimResult Arena =
      simulateArena(Compiled, DB, Model.CallsPerAlloc, Costs);

  TableFormatter Table({"Allocator", "MaxHeap(K)", "instr/alloc",
                        "instr/free", "instr/(a+f)", "Arena%"});
  Table.beginRow();
  Table.addCell("BSD (Kingsley)");
  Table.addInt(static_cast<int64_t>(Bsd.MaxHeapBytes / 1024));
  Table.addReal(Bsd.Instr.Alloc, 0);
  Table.addReal(Bsd.Instr.Free, 0);
  Table.addReal(Bsd.Instr.total(), 0);
  Table.addCell("-");
  Table.beginRow();
  Table.addCell("First fit (Knuth)");
  Table.addInt(static_cast<int64_t>(FF.MaxHeapBytes / 1024));
  Table.addReal(FF.Instr.Alloc, 0);
  Table.addReal(FF.Instr.Free, 0);
  Table.addReal(FF.Instr.total(), 0);
  Table.addCell("-");
  Table.beginRow();
  Table.addCell("Arena (lifetime-predicting)");
  Table.addInt(static_cast<int64_t>(Arena.MaxHeapBytes / 1024));
  Table.addReal(Arena.InstrLen4.Alloc, 0);
  Table.addReal(Arena.InstrLen4.Free, 0);
  Table.addReal(Arena.InstrLen4.total(), 0);
  Table.addPercent(Arena.arenaAllocPercent());
  Table.print(std::cout);

  std::printf("\n(arena heap includes its fixed 64 KB arena area; "
              "Arena%% = objects bump-allocated there)\n");
  return 0;
}
