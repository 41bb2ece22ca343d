//===- telemetry/FragmentationProbe.h - Fragmentation forensics -*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stride-gated fragmentation scanner.  At byte-clock sample points a
/// driver walks the allocator's free and live spans into the probe, which
/// accumulates free-span and live-span log2 histograms (the power-of-two
/// buckets double as per-size-class occupancy), the external-fragmentation
/// index (1 - largest_free / total_free, in parts per million so it stays
/// an exact integer), the largest observed free block, and an
/// RSS-drift-under-steady-churn estimator: the heap-size slope over the
/// back half of the replay, where a well-behaved steady-state heap should
/// be flat.
///
/// Like HeapTimeline, sampling is keyed to the allocation byte clock, so
/// every number the probe emits is a pure function of the trace — safe to
/// gate with bench_compare at exact tolerance and byte-identical at any
/// `--jobs` value under the registry's task-index-order merge.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_TELEMETRY_FRAGMENTATIONPROBE_H
#define LIFEPRED_TELEMETRY_FRAGMENTATIONPROBE_H

#include "telemetry/StatsRegistry.h"

#include <cstdint>
#include <string>
#include <vector>

namespace lifepred {

/// Byte-clock-gated fragmentation scanner for one replay.
class FragmentationProbe {
public:
  /// Scans at most once per \p StrideBytes of allocation (minimum 1).
  explicit FragmentationProbe(uint64_t StrideBytes)
      : Stride(StrideBytes == 0 ? 1 : StrideBytes) {}

  /// True when the clock has crossed the next stride boundary and a scan
  /// should run.  The only per-event cost.
  bool due(uint64_t Clock) const { return Clock >= NextClock; }

  uint64_t stride() const { return Stride; }

  /// Opens a sample at \p Clock.  The driver then feeds every span through
  /// addFreeSpan/addLiveSpan and closes with endSample().
  void beginSample(uint64_t Clock, uint64_t HeapBytes, uint64_t LiveBytes);

  void addFreeSpan(uint64_t Bytes) { addFreeSpans(Bytes, 1); }
  void addLiveSpan(uint64_t Bytes) { addLiveSpans(Bytes, 1); }

  /// Bulk forms for size-class allocators that know "N blocks of B bytes"
  /// without enumerating addresses (the serving engine's CAS shards).
  void addFreeSpans(uint64_t Bytes, uint64_t Count);
  void addLiveSpans(uint64_t Bytes, uint64_t Count);

  /// Closes the open sample: folds its frag index and largest-free into
  /// the running peaks and advances the stride cursor past its clock.
  void endSample();

  uint64_t sampleCount() const { return Samples; }
  /// Fragmentation index of the most recent closed sample, in ppm:
  /// (1 - largest_free_span / total_free_bytes) * 1e6; 0 when nothing is
  /// free.  High values mean free space exists but is shattered.
  uint64_t lastFragIndexPpm() const { return LastFragPpm; }
  /// Peak fragmentation index over all samples, in ppm.
  uint64_t maxFragIndexPpm() const { return MaxFragPpm; }
  /// Largest free span observed in any sample.
  uint64_t largestFreeBlock() const { return PeakLargestFree; }
  /// Cumulative span histograms across all samples.
  const Log2Histogram &freeSpans() const { return FreeSpanHist; }
  const Log2Histogram &liveSpans() const { return LiveSpanHist; }

  /// Heap-size slope over the back half of the replay, split by sign
  /// (the registry is unsigned).  Exactly one of Growth/Shrink is nonzero.
  struct Drift {
    uint64_t GrowthBytes = 0; ///< Heap grew by this much over the window.
    uint64_t ShrinkBytes = 0; ///< Heap shrank by this much over the window.
    uint64_t WindowClock = 0; ///< Byte-clock width of the window.
  };
  Drift driftEstimate() const;

  /// Exports under "<Prefix>frag.": the sample count and total spans seen
  /// (counters), peak frag index / largest free block / peak per-sample
  /// free-byte total (gauges), drift estimator gauges, and the two span
  /// histograms.  Multiple probes exporting to the same keys accumulate
  /// under the registry's merge semantics (counters add, gauges peak,
  /// histograms merge).
  void exportTelemetry(StatsRegistry &Registry,
                       const std::string &Prefix) const;

  /// Appends the probe state as a JSON object to \p Out: summary scalars,
  /// drift, and per-bucket span histograms.  \p Indent prefixes every
  /// emitted line.
  void writeJson(std::string &Out, const std::string &Indent) const;

private:
  uint64_t Stride;
  uint64_t NextClock = 0; ///< First sample triggers immediately.

  // Open-sample accumulation.
  bool InSample = false;
  uint64_t CurClock = 0;
  uint64_t CurHeap = 0;
  uint64_t CurLive = 0;
  uint64_t CurFreeBytes = 0;
  uint64_t CurLargestFree = 0;

  // Cumulative state.
  uint64_t Samples = 0;
  Log2Histogram FreeSpanHist;
  Log2Histogram LiveSpanHist;
  uint64_t LastFragPpm = 0;
  uint64_t MaxFragPpm = 0;
  uint64_t PeakLargestFree = 0;
  uint64_t PeakFreeBytes = 0;

  /// (Clock, HeapBytes) per sample, for the drift estimator.
  struct HeapPoint {
    uint64_t Clock;
    uint64_t HeapBytes;
  };
  std::vector<HeapPoint> Points;
};

} // namespace lifepred

#endif // LIFEPRED_TELEMETRY_FRAGMENTATIONPROBE_H
