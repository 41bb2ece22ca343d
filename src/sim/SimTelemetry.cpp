//===- sim/SimTelemetry.cpp - Simulation observability hooks ---------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/SimTelemetry.h"

#include "alloc/AllocatorSim.h"
#include "telemetry/FragmentationProbe.h"
#include "telemetry/HeapHeatmap.h"
#include "telemetry/LatencyRecorder.h"
#include "trace/AllocationTrace.h"

#include <vector>

using namespace lifepred;

void lifepred::observeSample(SimTelemetry *Telemetry, uint64_t Clock,
                             const AllocatorSim &Allocator,
                             uint64_t ArenaBytes) {
  if (!Telemetry)
    return;
  if (Telemetry->Timeline && Telemetry->Timeline->due(Clock)) {
    HeapSample Sample;
    Sample.Clock = Clock;
    Sample.HeapBytes = Allocator.heapBytes();
    Sample.LiveBytes = Allocator.liveBytes();
    Sample.ArenaBytes = ArenaBytes;
    Sample.FreeBlocks = Allocator.freeBlockCount();
    Telemetry->Timeline->record(Sample);
  }

  FragmentationProbe *Probe =
      Telemetry->Fragmentation && Telemetry->Fragmentation->due(Clock)
          ? Telemetry->Fragmentation
          : nullptr;
  HeapHeatmap *Heatmap = Telemetry->Heatmap && Telemetry->Heatmap->due(Clock)
                             ? Telemetry->Heatmap
                             : nullptr;
  probeHeapSpans(Allocator, Clock, Probe, Heatmap);
}

void lifepred::probeHeapSpans(const AllocatorSim &Allocator, uint64_t Clock,
                              FragmentationProbe *Probe,
                              HeapHeatmap *Heatmap) {
  if (!Probe && !Heatmap)
    return;

  // One span walk feeds both sinks.
  if (Probe) {
    Probe->beginSample(Clock, Allocator.heapBytes(), Allocator.liveBytes());
    Allocator.forEachFreeSpan(
        [Probe](uint64_t, uint64_t Bytes) { Probe->addFreeSpan(Bytes); });
  }
  if (Heatmap)
    Heatmap->beginColumn(Clock);
  Allocator.forEachLiveSpan([Probe, Heatmap](uint64_t Address,
                                             uint64_t Bytes) {
    if (Probe)
      Probe->addLiveSpan(Bytes);
    if (Heatmap)
      Heatmap->addSpan(Address, Bytes);
  });
  if (Probe)
    Probe->endSample();
  if (Heatmap)
    Heatmap->endColumn();
}

void lifepred::exportObservatory(SimTelemetry *Telemetry,
                                 const std::string &Prefix) {
  if (!Telemetry || !Telemetry->Registry)
    return;
  if (Telemetry->Fragmentation)
    Telemetry->Fragmentation->exportTelemetry(*Telemetry->Registry, Prefix);
  if (Telemetry->Latency)
    Telemetry->Latency->exportTelemetry(*Telemetry->Registry, Prefix);
  if (Telemetry->Heatmap)
    Telemetry->Heatmap->exportTelemetry(*Telemetry->Registry, Prefix);
}

uint64_t lifepred::distinctSiteCount(const AllocationTrace &Trace) {
  std::vector<bool> Seen(Trace.chainCount());
  uint64_t Count = 0;
  for (const AllocRecord &Record : Trace.records())
    if (!Seen[Record.ChainIndex]) {
      Seen[Record.ChainIndex] = true;
      ++Count;
    }
  return Count;
}
