//===- bench/ablation_multi_arena.cpp - Banded lifetime segregation --------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
// Extension beyond the paper: instead of one short-lived band (< 32 KB,
// 64 KB arena area), classify sites into *two* bands — very short (< 4 KB)
// and medium (< 32 KB) — each with its own arena area.  Band 0 recycles in
// a small cache-hot window while band 1 keeps the medium-lived objects
// from pinning it.  This is the generational direction the paper's
// related-work section sketches.  Single-band at the same total area is
// the paper's algorithm, included as the baseline.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/LifetimeClassifier.h"
#include "core/Profiler.h"
#include "sim/MultiArenaSimulator.h"
#include "support/TableFormatter.h"

#include <iostream>

using namespace lifepred;

int main(int Argc, char **Argv) {
  CommandLine Cl(Argc, Argv);
  BenchOptions Options = BenchOptions::fromCommandLine(Cl);
  if (!Cl.has("scale"))
    Options.Scale = 0.25;
  printBanner("Ablation H",
              "two-band lifetime segregation vs the paper's single band",
              Options);

  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();

  TableFormatter Table({"Program", "Config", "Band0%", "Band1%",
                        "General%", "Fallback0", "MaxHeap(K)"});
  for (const ProgramTraces &Traces : makeAllTraces(Options)) {
    Profile TrainProfile = profileTrace(Traces.Train, Policy);
    // One compile serves both band configurations' replays.
    CompiledTrace Test(Traces.Test, Policy);

    struct Case {
      const char *Name;
      std::vector<uint64_t> Thresholds;
      ArenaAllocator::Config Config;
    };
    std::vector<Case> Cases;
    {
      Case Single;
      Single.Name = "1 band (paper)";
      Single.Thresholds = {32 * 1024};
      Single.Config.Bands = {{64 * 1024, 16}};
      Cases.push_back(Single);
    }
    {
      Case Dual;
      Dual.Name = "2 bands";
      Dual.Thresholds = {16 * 1024, 32 * 1024};
      // Same total area, split: a small fast-recycling window for the
      // under-16 KB sites plus a larger area for the 16-32 KB band.
      Dual.Config.Bands = {{32 * 1024, 8}, {32 * 1024, 8}};
      Cases.push_back(Dual);
    }

    bool First = true;
    for (const Case &C : Cases) {
      ClassDatabase DB =
          trainClassDatabase(TrainProfile, Policy, C.Thresholds);
      MultiArenaSimResult R = simulateMultiArena(Test, DB, C.Config);

      uint64_t TotalBytes = R.GeneralBytes;
      for (const auto &Band : R.PerBand)
        TotalBytes += Band.Bytes;
      Table.beginRow();
      Table.addCell(First ? Traces.Model.Name : "");
      Table.addCell(C.Name);
      Table.addPercent(R.bandBytesPercent(0));
      if (R.PerBand.size() > 1)
        Table.addPercent(R.bandBytesPercent(1));
      else
        Table.addCell("-");
      Table.addPercent(TotalBytes == 0
                           ? 0.0
                           : 100.0 *
                                 static_cast<double>(R.GeneralBytes) /
                                 static_cast<double>(TotalBytes));
      Table.addInt(static_cast<int64_t>(R.PerBand[0].Fallbacks));
      Table.addInt(static_cast<int64_t>(R.MaxHeapBytes / 1024));
      First = false;
    }
  }
  Table.print(std::cout);
  std::printf("\nReading: banding is a real tradeoff, not a free "
              "win.  Where the short band fits its traffic (GAWK) the "
              "fast-dying objects keep full coverage in half the address "
              "window.  Where lifetimes crowd the band boundary (GHOST, "
              "ESPRESSO) the conservative per-band rule plus the halved "
              "area shed coverage to the general heap, and PERL's "
              "mispredicted long objects pollute the smaller band faster "
              "than the paper's single 64 KB area.  The paper's one-band "
              "32 KB/64 KB design is a solid default; banding pays only "
              "when the lifetime histogram has a deep valley between "
              "bands.\n");
  return 0;
}
