//===- alloc/ArenaAllocator.h - Lifetime-predicting arenas ------*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's lifetime-predicting arena allocator (section 5.1).  A fixed
/// 64 KB arena area is divided into 16 arenas of 4 KB.  Objects predicted
/// short-lived are bump-allocated into the current arena; each arena keeps
/// only an allocation pointer and a live-object count.  Freeing an arena
/// object decrements its arena's count; an arena whose count reaches zero
/// is reusable wholesale (no per-object bookkeeping).  When the current
/// arena is full the allocator scans for an empty arena; when none exists
/// — or the object was predicted long-lived, or is bigger than an arena —
/// the request falls through to a general-purpose first-fit heap.
///
/// The blocking into 16 small arenas limits the damage of mispredicted
/// long-lived objects: one such object pins only its own 4 KB arena.
///
/// The allocator generalizes to several lifetime bands, each an arena area
/// of its own geometry, laid out contiguously and sharing the one general
/// heap.  Band 0 (the shortest-lived objects) can be sized very small — it
/// recycles fastest — while later bands hold the medium-lived objects that
/// would otherwise pin its arenas.  The default single band is exactly the
/// paper's allocator; the multi-band ablation quantifies what the extra
/// segregation buys.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_ALLOC_ARENAALLOCATOR_H
#define LIFEPRED_ALLOC_ARENAALLOCATOR_H

#include "alloc/FirstFitAllocator.h"
#include "support/FlatAddressMap.h"

#include <concepts>
#include <cstdint>
#include <string>
#include <vector>

namespace lifepred {

class ArenaLifecycleSink;

/// Index of a lifetime band (0 = shortest-lived); the same alias
/// core/LifetimeClassifier.h declares for its classes.
using LifetimeClass = uint8_t;

/// Arena allocator simulator with a first-fit general heap.
class ArenaAllocator : public AllocatorSim {
public:
  /// The band of objects predicted long-lived: the general heap.  Equals
  /// core/LifetimeClassifier.h's UnclassifiedLifetime.
  static constexpr LifetimeClass GeneralBand = 0xff;

  /// Geometry of one band's arena area.  AreaBytes / ArenaCount must be a
  /// power of two, so an arena index is a shift of the address offset.
  struct BandConfig {
    uint64_t AreaBytes = 64 * 1024; ///< Total area of the band.
    unsigned ArenaCount = 16;       ///< Arenas the area is divided into.
  };

  struct Config {
    uint64_t ArenaBase = 1 << 20; ///< Simulated base address of band 0.
    /// Band areas, contiguous from ArenaBase; empty = the paper's single
    /// 64 KB / 16-arena band.
    std::vector<BandConfig> Bands;
    FirstFitAllocator::Config General; ///< The fallback heap.
  };

  /// Operation counts over every band, for the instruction cost model and
  /// Table 7.
  struct Counters {
    uint64_t ArenaAllocs = 0;     ///< Objects placed in arenas.
    uint64_t ArenaBytes = 0;      ///< Bytes placed in arenas.
    uint64_t GeneralAllocs = 0;   ///< Objects placed in the general heap.
    uint64_t GeneralBytes = 0;    ///< Bytes placed in the general heap.
    uint64_t UnpredictedAllocs = 0; ///< General because predicted long.
    uint64_t OversizeAllocs = 0;  ///< Predicted short but > arena size.
    uint64_t FallbackAllocs = 0;  ///< Predicted short but no empty arena.
    uint64_t ScanSteps = 0;       ///< Arenas inspected during scans.
    uint64_t Resets = 0;          ///< Arena reuses (count hit zero).
    uint64_t ArenaFrees = 0;
    uint64_t GeneralFrees = 0;

    bool operator==(const Counters &Other) const = default;
  };

  /// Per-band operation counts.
  struct BandCounters {
    uint64_t Allocs = 0;
    uint64_t Bytes = 0;
    uint64_t Frees = 0;
    uint64_t ScanSteps = 0;
    uint64_t Resets = 0;
    uint64_t Fallbacks = 0; ///< Routed to the general heap (full/oversize).

    bool operator==(const BandCounters &Other) const = default;
  };

  ArenaAllocator();
  explicit ArenaAllocator(Config C);

  /// Allocates \p Size bytes into band \p Band (the simulator resolves the
  /// trained prediction and passes it here); GeneralBand or an
  /// out-of-range band uses the general heap, as does a full band.
  uint64_t allocate(uint32_t Size, LifetimeClass Band);

  /// A bool verdict is not a band: `true` would convert to band 1.
  template <typename T>
    requires std::same_as<T, bool>
  uint64_t allocate(uint32_t Size, T PredictedShort) = delete;

  /// AllocatorSim::allocate treats every request as predicted long-lived
  /// (degenerates to first fit, as the paper notes).
  uint64_t allocate(uint32_t Size) override {
    return allocate(Size, GeneralBand);
  }

  void free(uint64_t Address) override;

  /// Heap size includes every band's arena area (Table 8's convention).
  uint64_t heapBytes() const override {
    return AreaBytes + General.heapBytes();
  }
  uint64_t maxHeapBytes() const override {
    return AreaBytes + General.maxHeapBytes();
  }
  uint64_t liveBytes() const override {
    return ArenaLiveBytes + General.liveBytes();
  }

  /// The paper's counters, summed over the bands.
  Counters counters() const;
  const FirstFitAllocator &general() const { return General; }
  /// The configuration, with an empty band list filled in.
  const Config &config() const { return Cfg; }

  /// Number of configured bands.
  size_t bands() const { return BandStates.size(); }

  /// Counters of band \p Band.
  const BandCounters &bandCounters(size_t Band) const {
    return BandStates[Band].Stats;
  }

  /// Bytes one arena of band \p Band holds.
  uint64_t arenaBytes(LifetimeClass Band = 0) const {
    return BandStates[Band].arenaBytes();
  }

  /// True when \p Address lies inside some band's arena area.
  bool isArenaAddress(uint64_t Address) const {
    return Address - Cfg.ArenaBase < AreaBytes;
  }

  /// The band whose area contains \p Address, or GeneralBand.
  LifetimeClass bandForAddress(uint64_t Address) const {
    return isArenaAddress(Address) ? bandIndexFor(Address) : GeneralBand;
  }

  /// The arena of band \p Band containing \p Address.
  unsigned arenaIndexFor(LifetimeClass Band, uint64_t Address) const {
    const BandState &State = BandStates[Band];
    return static_cast<unsigned>((Address - State.Base) >> State.ArenaShift);
  }

  /// Live-object count of arena \p Index in band \p Band (test support).
  uint32_t arenaLiveCount(LifetimeClass Band, unsigned Index) const {
    return BandStates[Band].Arenas[Index].LiveCount;
  }

  /// Times arena \p Index of band \p Band has been reset; identifies which
  /// occupancy of the arena an object belongs to.
  uint64_t arenaGeneration(LifetimeClass Band, unsigned Index) const {
    return BandStates[Band].Arenas[Index].Generation;
  }

  /// Attaches an observer for pin/reset events in every band's reset scan
  /// (the flight recorder).  Null detaches; the bump fast path is
  /// unaffected either way.
  void attachLifecycle(ArenaLifecycleSink *Sink) { Lifecycle = Sink; }

  /// Payload bytes currently live across every band's area.
  uint64_t arenaLiveBytes() const { return ArenaLiveBytes; }

  /// High-water mark of arenaLiveBytes().
  uint64_t maxArenaLiveBytes() const { return MaxArenaLiveBytes; }

  /// The arena areas keep no free lists; only the general heap does.
  size_t freeBlockCount() const override { return General.freeBlockCount(); }

  /// Free spans are the general heap's free blocks plus each arena's
  /// unconsumed bump tail; live spans are the general heap's live payloads
  /// plus the arena-held objects.
  void forEachFreeSpan(const SpanVisitor &Visit) const override;
  void forEachLiveSpan(const SpanVisitor &Visit) const override;

  /// Forwards to the general heap's histograms under "<Prefix>general.".
  void attachTelemetry(StatsRegistry &Registry, const std::string &Prefix);

  /// Which counters exportTelemetry writes besides the shared keys.
  enum class CounterKeys {
    Flat,   ///< The paper's counters: "<Prefix>arena_allocs", "resets", ...
    PerBand ///< "<Prefix>band<i>.allocs", "band<i>.fallbacks", ...
  };

  /// Copies the \p Keys counters, the general routing totals, the peaks
  /// and the embedded general heap's telemetry ("<Prefix>general.*") into
  /// \p Registry — read-only.
  void exportTelemetry(StatsRegistry &Registry, const std::string &Prefix,
                       CounterKeys Keys = CounterKeys::Flat) const;

  /// Structural self-audit for the verify layer: band-area layout,
  /// per-arena bump-pointer bounds and alignment, live-counter consistency
  /// against the payload map (batch-reset soundness), arena-live-byte
  /// accounting, and the embedded general heap's full audit.  O(live
  /// objects) per call; costs nothing unless called.  Returns false and
  /// fills \p Error at the first broken invariant.
  bool auditInvariants(std::string &Error) const;

private:
  /// Per-arena state: the paper's alloc pointer and live count, plus a
  /// reset-generation counter for the audit trail.
  struct Arena {
    uint64_t AllocPtr = 0; ///< Next free offset within the arena.
    uint32_t LiveCount = 0;
    uint64_t Generation = 0; ///< Incremented at every reset.
  };

  /// Written on every arena allocate and free, so it owns its cache lines:
  /// the serving engine runs one allocator per worker, and band states of
  /// two shards sharing a line would bounce it between cores.
  struct alignas(64) BandState {
    uint64_t Base = 0;       ///< Simulated base address of this band's area.
    uint64_t End = 0;        ///< One past the area's last byte.
    unsigned ArenaShift = 0; ///< log2(arenaBytes()).
    unsigned Current = 0;
    std::vector<Arena> Arenas;
    BandCounters Stats;

    uint64_t arenaBytes() const { return uint64_t(1) << ArenaShift; }
  };

  /// The band whose area holds \p Address (which must satisfy
  /// isArenaAddress): the areas are contiguous, so the first band ending
  /// above it.
  LifetimeClass bandIndexFor(uint64_t Address) const {
    LifetimeClass Band = 0;
    while (Address >= BandStates[Band].End)
      ++Band;
    return Band;
  }

  uint64_t bumpAllocate(BandState &Band, uint32_t Size, uint64_t Need);
  uint64_t generalAllocate(uint32_t Size, uint64_t &Reason);

  Config Cfg;
  std::vector<BandState> BandStates;
  uint64_t AreaBytes = 0; ///< Sum of the band areas.
  /// General-heap routings by reason; with the band counters and the
  /// general heap's own Allocs/Frees they make up counters().
  uint64_t UnpredictedAllocs = 0;
  uint64_t OversizeAllocs = 0;
  uint64_t FullAllocs = 0;
  uint64_t GeneralBytes = 0;
  ArenaLifecycleSink *Lifecycle = nullptr;
  FirstFitAllocator General;
  /// Payload size by arena address (simulation bookkeeping only — the
  /// modeled allocator stores nothing per object).
  FlatAddressMap ArenaPayload;
  uint64_t ArenaLiveBytes = 0;
  uint64_t MaxArenaLiveBytes = 0;
};

} // namespace lifepred

#endif // LIFEPRED_ALLOC_ARENAALLOCATOR_H
