//===- telemetry/TimeSeries.h - Byte-clock windowed series ------*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-width windowed time series on the bytes-allocated clock: the
/// substrate the drift observatory (telemetry/DriftObservatory.h) builds
/// its per-window confusion timelines and lifetime histograms on.
///
/// Each window covers [W * WindowBytes, (W + 1) * WindowBytes) of byte
/// clock; an event with clock C lands in window C / WindowBytes, so an
/// event exactly on a window edge belongs to the window it opens.  A
/// window holds a fixed set of counter lanes (uint64 sums) and histogram
/// lanes (Log2Histogram, allocated lazily so sparse lanes cost one
/// pointer).  Storage either accumulates every window (RingWindows = 0)
/// or keeps only the trailing RingWindows windows, dropping the oldest —
/// the bounded-memory mode for live processes.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_TELEMETRY_TIMESERIES_H
#define LIFEPRED_TELEMETRY_TIMESERIES_H

#include "telemetry/StatsRegistry.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace lifepred {

/// Windowed counters and histograms on the byte clock.
class TimeSeries {
public:
  struct Config {
    /// Window width in byte-clock units; must be >= 1.
    uint64_t WindowBytes = 1;
    /// Number of uint64 counter lanes per window.
    unsigned CounterLanes = 0;
    /// Number of Log2Histogram lanes per window.
    unsigned HistogramLanes = 0;
    /// Keep only the trailing N windows (0 = accumulate every window).
    uint64_t RingWindows = 0;

    bool operator==(const Config &Other) const = default;
  };

  TimeSeries() : TimeSeries(Config()) {}
  explicit TimeSeries(const Config &C);

  const Config &config() const { return Cfg; }

  /// The window index holding byte clock \p Clock under width \p Width.
  static uint64_t windowIndexFor(uint64_t Clock, uint64_t Width) {
    return Clock / Width;
  }

  /// Adds \p Delta to counter lane \p Lane of the window holding \p Clock.
  void add(uint64_t Clock, unsigned Lane, uint64_t Delta) {
    addWindow(windowIndexFor(Clock, Cfg.WindowBytes), Lane, Delta);
  }

  /// Adds \p Delta to counter lane \p Lane of window \p Window directly
  /// (cost attribution spreads one object over several windows).
  void addWindow(uint64_t Window, unsigned Lane, uint64_t Delta);

  /// Records \p Value into histogram lane \p Lane of the window holding
  /// \p Clock.
  void observe(uint64_t Clock, unsigned Lane, uint64_t Value) {
    observeWindow(windowIndexFor(Clock, Cfg.WindowBytes), Lane, Value);
  }

  /// Records \p Value into histogram lane \p Lane of window \p Window.
  void observeWindow(uint64_t Window, unsigned Lane, uint64_t Value);

  /// Materializes every window up to the one holding \p Clock, so a quiet
  /// tail of the run still appears as explicit empty windows.
  void extendToClock(uint64_t Clock) {
    extendToWindow(windowIndexFor(Clock, Cfg.WindowBytes));
  }

  /// Materializes windows [firstWindow(), Window] (ring mode slides the
  /// base forward instead, dropping the oldest windows).
  void extendToWindow(uint64_t Window);

  /// Index of the oldest retained window (always 0 in accumulate mode).
  uint64_t firstWindow() const { return Base; }

  /// Number of retained windows.
  uint64_t windowCount() const { return Retained; }

  /// Windows the ring dropped off the front.
  uint64_t droppedWindows() const { return Dropped; }

  /// Mutations aimed below the ring base (counted, otherwise ignored).
  uint64_t lateDrops() const { return LateDrops; }

  /// Counter lane \p Lane of absolute window \p Window (0 if the window
  /// is outside the retained range).
  uint64_t counter(uint64_t Window, unsigned Lane) const;

  /// Histogram lane \p Lane of absolute window \p Window, or nullptr when
  /// the lane has no samples (or the window is outside the retained
  /// range).  Lazily allocated: an untouched lane costs one null pointer.
  const Log2Histogram *histogram(uint64_t Window, unsigned Lane) const;

  bool operator==(const TimeSeries &Other) const;

private:
  uint64_t &counterSlot(uint64_t Window, unsigned Lane);
  Log2Histogram &histogramSlot(uint64_t Window, unsigned Lane);

  Config Cfg;
  /// Absolute index of the oldest retained window.
  uint64_t Base = 0;
  /// Number of retained windows.
  uint64_t Retained = 0;
  uint64_t Dropped = 0;
  uint64_t LateDrops = 0;
  /// Retained * CounterLanes, window-major.
  std::vector<uint64_t> Counters;
  /// Retained * HistogramLanes, window-major; null until first sample.
  std::vector<std::unique_ptr<Log2Histogram>> Histograms;
};

} // namespace lifepred

#endif // LIFEPRED_TELEMETRY_TIMESERIES_H
