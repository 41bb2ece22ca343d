//===- sim/MultiArenaSimulator.h - Banded-arena simulation ------*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Trace-driven simulation of the banded arena allocator with a trained
/// ClassDatabase deciding each allocation's lifetime band: the multi-arena
/// row of the entry-point table in sim/TraceSimulator.h, defined in
/// sim/TraceSimulator.cpp on the same replay consumer as simulateArena.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_SIM_MULTIARENASIMULATOR_H
#define LIFEPRED_SIM_MULTIARENASIMULATOR_H

#include "alloc/ArenaAllocator.h"
#include "core/LifetimeClassifier.h"
#include "trace/CompiledTrace.h"

#include <vector>

namespace lifepred {

struct SimTelemetry;

/// ArenaAllocator carries the bands.  This name stays because the
/// repository benchmark's pipeline harness (perfbench/harness/Pipeline.cpp)
/// spells the banded allocator's Config and BandCounters through it.
using MultiArenaAllocator = ArenaAllocator;

/// Results of a banded-arena simulation.
struct MultiArenaSimResult {
  uint64_t MaxHeapBytes = 0;
  uint64_t MaxLiveBytes = 0;
  std::vector<ArenaAllocator::BandCounters> PerBand;
  uint64_t GeneralAllocs = 0;
  uint64_t GeneralBytes = 0;
  FirstFitAllocator::Counters General;

  /// Fraction of all allocated bytes placed in band \p Band's arenas.
  double bandBytesPercent(size_t Band) const {
    uint64_t Total = GeneralBytes;
    for (const auto &Counters : PerBand)
      Total += Counters.Bytes;
    return Total == 0 ? 0.0
                      : 100.0 * static_cast<double>(PerBand[Band].Bytes) /
                            static_cast<double>(Total);
  }
};

/// Simulates a compiled trace over a banded arena allocator configured by
/// \p Config, with \p DB classifying each allocation.  \p Compiled must
/// carry site keys under DB's policy; the classifier is resolved to one
/// band per record before the replay.  A non-null \p Telemetry collects
/// metrics under "multiarena." plus prediction outcomes: an allocation
/// predicted into band B counts as a true short when its lifetime is
/// within B's threshold, and an unclassified one as a missed short when
/// any band's threshold would have covered it.
MultiArenaSimResult
simulateMultiArena(const CompiledTrace &Compiled, const ClassDatabase &DB,
                   ArenaAllocator::Config Config = ArenaAllocator::Config(),
                   SimTelemetry *Telemetry = nullptr);

} // namespace lifepred

#endif // LIFEPRED_SIM_MULTIARENASIMULATOR_H
