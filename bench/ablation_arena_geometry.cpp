//===- bench/ablation_arena_geometry.cpp - Arena geometry sweep ------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
// Ablation for section 5.2's geometry choices: the 64 KB arena area
// ("twice the age of the objects predicted short-lived") divided into 16
// blocks ("blocking reduces the space consumed by erroneously predicted
// long-lived objects").  Sweeps area size and block count on GAWK (the
// success case) and CFRAC (the pollution case).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/Pipeline.h"
#include "sim/TraceSimulator.h"
#include "support/TableFormatter.h"

#include <iostream>

using namespace lifepred;

int main(int Argc, char **Argv) {
  CommandLine Cl(Argc, Argv);
  BenchOptions Options = BenchOptions::fromCommandLine(Cl);
  if (!Cl.has("scale"))
    Options.Scale = 0.25;
  printBanner("Ablation B", "arena area size and block count sweep",
              Options);

  struct Geometry {
    uint64_t AreaKb;
    unsigned Count;
  };
  const Geometry Geometries[] = {{64, 1},  {64, 4},   {64, 16}, {64, 64},
                                 {32, 8},  {128, 32}, {256, 64}};

  TableFormatter Table({"Program", "Area(K)", "Blocks", "Arena%",
                        "ArenaBytes%", "MaxHeap(K)", "Fallback%"});
  for (const ProgramTraces &Traces : makeAllTraces(Options)) {
    if (Traces.Model.Name != "GAWK" && Traces.Model.Name != "CFRAC")
      continue;
    SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
    SiteDatabase DB =
        trainDatabase(profileTrace(Traces.Train, Policy), Policy);
    // One compile serves every geometry's replay of the same test trace.
    CompiledTrace Test(Traces.Test, Policy);
    bool First = true;
    for (const Geometry &G : Geometries) {
      ArenaAllocator::Config Cfg;
      Cfg.Bands = {{G.AreaKb * 1024, G.Count}};
      ArenaSimResult R = simulateArena(Test, DB,
                                       Traces.Model.CallsPerAlloc,
                                       CostModel(), Cfg);
      uint64_t Total = R.Arena.ArenaAllocs + R.Arena.GeneralAllocs;
      Table.beginRow();
      Table.addCell(First ? Traces.Model.Name : "");
      Table.addInt(static_cast<int64_t>(G.AreaKb));
      Table.addInt(G.Count);
      Table.addPercent(R.arenaAllocPercent());
      Table.addPercent(R.arenaBytesPercent());
      Table.addInt(static_cast<int64_t>(R.MaxHeapBytes / 1024));
      Table.addPercent(Total == 0
                           ? 0.0
                           : 100.0 *
                                 static_cast<double>(
                                     R.Arena.FallbackAllocs) /
                                 static_cast<double>(Total));
      First = false;
    }
  }
  Table.print(std::cout);
  std::printf("\nReading: one undivided 64 KB arena lets a single "
              "mispredicted object pin the whole area; finer blocking "
              "bounds the damage (the paper's 16 x 4 KB choice).\n");
  return 0;
}
