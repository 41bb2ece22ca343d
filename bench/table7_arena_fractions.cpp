//===- bench/table7_arena_fractions.cpp - Reproduce Table 7 ----------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
// Reproduces Table 7: the fraction of objects and bytes the lifetime-
// predicting arena allocator places in the 64 KB arena area under true
// prediction.  Expected shapes: GHOST arenas most *objects* but few *bytes*
// (its 6 KB short-lived objects do not fit a 4 KB arena); CFRAC collapses
// because mispredicted very-long-lived objects pollute the arenas.
//
// --audit-out=<file> attaches a flight recorder to every program's replay
// and writes the lifetime audit report: which sites mispredicted, and
// which surviving objects pinned which arenas (the causal record behind
// CFRAC's collapse).  --drift-out=<file> attaches the prediction drift
// observatory instead-or-additionally and writes the windowed drift
// reports (confusion timelines, CUSUM change points, per-site quantile
// divergence) as ordered JSON — the same collapse, localized in byte-clock
// time; --drift-window=B overrides the auto window width.  Both go through
// ObservatoryBench's ArenaForensics, the writer trace_tool audit/drift and
// bench_sim_throughput use, so the files are byte-identical across the
// three; this bench writes only the files.  An unwritable --audit-out,
// --drift-out or --heatmap-out exits 1.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "ObservatoryBench.h"

#include "support/TableFormatter.h"

#include <iostream>

using namespace lifepred;

int main(int Argc, char **Argv) {
  CommandLine Cl(Argc, Argv);
  BenchOptions Options = BenchOptions::fromCommandLine(Cl);
  printBanner("Table 7",
              "objects and bytes allocated in arenas (true prediction)",
              Options);

  TableFormatter Table({"Program", "Allocs(1000s)", "paperTotal",
                        "Arena%", "paper", "NonArena%", "Bytes(K)",
                        "ArenaBytes%", "paper", "NonArenaBytes%"});

  std::vector<ProgramTraces> All = makeAllTraces(Options);
  ArenaForensics Forensics(Options, All.size());
  for (size_t Index = 0; Index < All.size(); ++Index) {
    const ProgramTraces &Traces = All[Index];
    const PaperProgramData *Paper = paperData(Traces.Model.Name);
    ArenaSimResult Sim = Forensics.replayArena(Index, Traces);

    uint64_t TotalAllocs = Sim.Arena.ArenaAllocs + Sim.Arena.GeneralAllocs;
    uint64_t TotalBytes = Sim.Arena.ArenaBytes + Sim.Arena.GeneralBytes;
    Table.beginRow();
    Table.addCell(Traces.Model.Name);
    Table.addReal(static_cast<double>(TotalAllocs) / 1000.0, 1);
    Table.addReal(Paper->TotalObjectsM * 1000.0, 1);
    Table.addPercent(Sim.arenaAllocPercent());
    Table.addReal(Paper->ArenaAllocPercent, 1);
    Table.addPercent(100.0 - Sim.arenaAllocPercent());
    Table.addInt(static_cast<int64_t>(TotalBytes / 1024));
    Table.addPercent(Sim.arenaBytesPercent());
    Table.addReal(Paper->ArenaBytesPercent, 1);
    Table.addPercent(100.0 - Sim.arenaBytesPercent());
  }

  Table.print(std::cout);
  Forensics.writeReports(All, /*Echo=*/false);
  if (Options.Observe) {
    ThreadPool Pool(Options.Jobs);
    StatsRegistry ObservatoryRegistry;
    runObservatoryPass(Options, All, Pool, ObservatoryRegistry);
    JsonReport Report("table7_arena_fractions", Options);
    Report.attachTelemetry(&ObservatoryRegistry);
    Report.write();
  }
  return 0;
}
