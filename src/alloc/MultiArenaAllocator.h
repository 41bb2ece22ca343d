//===- alloc/MultiArenaAllocator.h - Banded arena areas ---------*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-band extension of the paper's arena allocator: one arena area
/// per predicted lifetime band, all sharing one general first-fit heap.
/// Band 0 (the shortest-lived objects) can be sized very small — it
/// recycles fastest — while later bands hold the medium-lived objects that
/// would otherwise pin the small area's arenas.  Objects with no predicted
/// band go to the general heap.
///
/// With a single band this is exactly the paper's allocator; the
/// multi-band ablation quantifies what the extra segregation buys.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_ALLOC_MULTIARENAALLOCATOR_H
#define LIFEPRED_ALLOC_MULTIARENAALLOCATOR_H

#include "alloc/FirstFitAllocator.h"
#include "support/FlatAddressMap.h"

#include <cstdint>
#include <string>
#include <vector>

namespace lifepred {

class ArenaLifecycleSink;

/// Arena allocator with one arena area per lifetime band.
class MultiArenaAllocator : public AllocatorSim {
public:
  /// Band placed in the general heap / no predicted band.
  static constexpr uint8_t GeneralBand = 0xff;

  /// Geometry of one band's arena area.  AreaBytes / ArenaCount must be a
  /// power of two, so an arena index is a shift of the address offset.
  struct BandConfig {
    uint64_t AreaBytes = 64 * 1024;
    unsigned ArenaCount = 16;
  };

  /// Whole-allocator configuration.
  struct Config {
    /// Band areas; empty = one band with the paper's 64 KB/16 geometry.
    std::vector<BandConfig> Bands;
    FirstFitAllocator::Config General;
  };

  /// Per-band operation counts.
  struct BandCounters {
    uint64_t Allocs = 0;
    uint64_t Bytes = 0;
    uint64_t Frees = 0;
    uint64_t ScanSteps = 0;
    uint64_t Resets = 0;
    uint64_t Fallbacks = 0; ///< Routed to the general heap (full/oversize).
  };

  MultiArenaAllocator();
  explicit MultiArenaAllocator(Config C);

  /// Allocates \p Size bytes into band \p Band; GeneralBand or an
  /// out-of-range band uses the general heap, as does a full band.
  uint64_t allocate(uint32_t Size, uint8_t Band);

  /// AllocatorSim::allocate places everything in the general heap.
  uint64_t allocate(uint32_t Size) override {
    return allocate(Size, GeneralBand);
  }

  void free(uint64_t Address) override;

  /// Heap size includes every band's arena area.
  uint64_t heapBytes() const override;
  uint64_t maxHeapBytes() const override;
  uint64_t liveBytes() const override;

  /// Number of configured bands.
  size_t bands() const { return BandStates.size(); }

  /// Counters of band \p Band.
  const BandCounters &bandCounters(size_t Band) const {
    return BandStates[Band].Stats;
  }

  /// Objects and bytes placed in the general heap.
  uint64_t generalAllocs() const { return GeneralAllocs; }
  uint64_t generalBytes() const { return GeneralBytes; }

  const FirstFitAllocator &general() const { return General; }
  const Config &config() const { return Cfg; }

  /// Payload bytes currently live across all band areas.
  uint64_t arenaLiveBytes() const { return ArenaLiveBytes; }

  /// High-water mark of arenaLiveBytes().
  uint64_t maxArenaLiveBytes() const { return MaxArenaLiveBytes; }

  /// The band whose area contains \p Address, or GeneralBand.
  uint8_t bandForAddress(uint64_t Address) const {
    for (size_t I = 0; I < BandStates.size(); ++I)
      if (Address >= BandStates[I].Base &&
          Address < BandStates[I].Base + BandStates[I].Cfg.AreaBytes)
        return static_cast<uint8_t>(I);
    return GeneralBand;
  }

  /// The arena of band \p Band containing \p Address.
  unsigned arenaIndexFor(uint8_t Band, uint64_t Address) const {
    const BandState &State = BandStates[Band];
    return static_cast<unsigned>((Address - State.Base) >> State.ArenaShift);
  }

  /// Reset count of arena \p Index in band \p Band.
  uint64_t arenaGeneration(uint8_t Band, unsigned Index) const {
    return BandStates[Band].Arenas[Index].Generation;
  }

  /// Bytes one arena of band \p Band holds.
  uint64_t bandArenaBytes(uint8_t Band) const {
    return BandStates[Band].arenaBytes();
  }

  /// Attaches an observer for pin/reset events in every band's reset scan.
  void attachLifecycle(ArenaLifecycleSink *Sink) { Lifecycle = Sink; }

  /// Band areas keep no free lists; only the general heap does.
  size_t freeBlockCount() const override { return General.freeBlockCount(); }

  /// Free spans are the general heap's free blocks plus every band arena's
  /// unconsumed bump tail; live spans are the general heap's live payloads
  /// plus the arena-held objects of every band.
  void forEachFreeSpan(const SpanVisitor &Visit) const override;
  void forEachLiveSpan(const SpanVisitor &Visit) const override;

  /// Forwards to the general heap's histograms under "<Prefix>general.".
  void attachTelemetry(StatsRegistry &Registry, const std::string &Prefix);

  /// Copies per-band counters ("<Prefix>band<i>.allocs", ...), the general
  /// routing totals, and the embedded general heap's telemetry
  /// ("<Prefix>general.*") into \p Registry — read-only.
  void exportTelemetry(StatsRegistry &Registry,
                       const std::string &Prefix) const;

  /// Structural self-audit for the verify layer: band-area layout, per-band
  /// bump-pointer bounds and alignment, live-counter consistency against
  /// the payload map, arena-live-byte accounting, and the embedded general
  /// heap's full audit.  O(live objects) per call; costs nothing unless
  /// called.  Returns false and fills \p Error at the first broken
  /// invariant.
  bool auditInvariants(std::string &Error) const;

private:
  struct Arena {
    uint64_t AllocPtr = 0;
    uint32_t LiveCount = 0;
    uint64_t Generation = 0; ///< Incremented at every reset.
  };

  struct BandState {
    BandConfig Cfg;
    uint64_t Base = 0; ///< Simulated base address of this band's area.
    unsigned ArenaShift = 0; ///< log2(arenaBytes()).
    std::vector<Arena> Arenas;
    unsigned Current = 0;
    BandCounters Stats;

    uint64_t arenaBytes() const { return uint64_t(1) << ArenaShift; }
  };

  uint64_t bumpAllocate(BandState &Band, uint32_t Size, uint64_t Need);

  Config Cfg;
  std::vector<BandState> BandStates;
  ArenaLifecycleSink *Lifecycle = nullptr;
  FirstFitAllocator General;
  uint64_t GeneralAllocs = 0;
  uint64_t GeneralBytes = 0;
  /// Payload sizes of arena-held objects (simulation bookkeeping only).
  FlatAddressMap ArenaPayload;
  uint64_t ArenaLiveBytes = 0;
  uint64_t MaxArenaLiveBytes = 0;
};

} // namespace lifepred

#endif // LIFEPRED_ALLOC_MULTIARENAALLOCATOR_H
