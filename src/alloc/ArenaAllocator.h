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
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_ALLOC_ARENAALLOCATOR_H
#define LIFEPRED_ALLOC_ARENAALLOCATOR_H

#include "alloc/FirstFitAllocator.h"
#include "support/FlatAddressMap.h"

#include <cstdint>
#include <string>
#include <vector>

namespace lifepred {

class ArenaLifecycleSink;

/// Arena allocator simulator with a first-fit general heap.
class ArenaAllocator : public AllocatorSim {
public:
  /// Geometry of the arena area.  AreaBytes / ArenaCount must be a power
  /// of two, so an arena index is a shift of the address offset.
  struct Config {
    uint64_t AreaBytes = 64 * 1024; ///< Total short-lived area.
    unsigned ArenaCount = 16;       ///< Arenas the area is divided into.
    uint64_t ArenaBase = 1 << 20;   ///< Simulated base address of the area.
    FirstFitAllocator::Config General; ///< The fallback heap.
  };

  /// Operation counts for the instruction cost model and Table 7.
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

  ArenaAllocator();
  explicit ArenaAllocator(Config C);

  /// Allocates with an explicit prediction (the simulator consults the
  /// trained site database and passes the verdict here).
  uint64_t allocate(uint32_t Size, bool PredictedShortLived);

  /// AllocatorSim::allocate treats every request as predicted long-lived
  /// (degenerates to first fit, as the paper notes).
  uint64_t allocate(uint32_t Size) override {
    return allocate(Size, /*PredictedShortLived=*/false);
  }

  void free(uint64_t Address) override;

  /// Heap size includes the whole arena area (Table 8's convention).
  uint64_t heapBytes() const override {
    return Cfg.AreaBytes + General.heapBytes();
  }
  uint64_t maxHeapBytes() const override {
    return Cfg.AreaBytes + General.maxHeapBytes();
  }
  uint64_t liveBytes() const override {
    return ArenaLiveBytes + General.liveBytes();
  }

  const Counters &counters() const { return Stats; }
  const FirstFitAllocator &general() const { return General; }
  const Config &config() const { return Cfg; }

  /// Bytes one arena can hold.
  uint64_t arenaBytes() const { return uint64_t(1) << ArenaShift; }

  /// Live-object count of arena \p Index (test support).
  uint32_t arenaLiveCount(unsigned Index) const {
    return Arenas[Index].LiveCount;
  }

  /// True when \p Address lies inside the arena area.
  bool isArenaAddress(uint64_t Address) const {
    return Address >= Cfg.ArenaBase && Address < Cfg.ArenaBase + Cfg.AreaBytes;
  }

  /// The arena containing \p Address (which must satisfy isArenaAddress).
  unsigned arenaIndexFor(uint64_t Address) const {
    return static_cast<unsigned>((Address - Cfg.ArenaBase) >> ArenaShift);
  }

  /// Times arena \p Index has been reset; identifies which occupancy of
  /// the arena an object belongs to.
  uint64_t arenaGeneration(unsigned Index) const {
    return Arenas[Index].Generation;
  }

  /// Attaches an observer for pin/reset events in the reset scan (the
  /// flight recorder).  Null detaches; the bump fast path is unaffected
  /// either way.
  void attachLifecycle(ArenaLifecycleSink *Sink) { Lifecycle = Sink; }

  /// Payload bytes currently live inside the arena area.
  uint64_t arenaLiveBytes() const { return ArenaLiveBytes; }

  /// High-water mark of arenaLiveBytes().
  uint64_t maxArenaLiveBytes() const { return MaxArenaLiveBytes; }

  /// The arena area keeps no free lists; only the general heap does.
  size_t freeBlockCount() const override { return General.freeBlockCount(); }

  /// Free spans are the general heap's free blocks plus each arena's
  /// unconsumed bump tail; live spans are the general heap's live payloads
  /// plus the arena-held objects.
  void forEachFreeSpan(const SpanVisitor &Visit) const override;
  void forEachLiveSpan(const SpanVisitor &Visit) const override;

  /// Forwards to the general heap's histograms under "<Prefix>general.".
  void attachTelemetry(StatsRegistry &Registry, const std::string &Prefix);

  /// Copies arena counters ("<Prefix>arena_allocs", "<Prefix>resets",
  /// "<Prefix>fallback_allocs", ...) and the embedded general heap's
  /// telemetry ("<Prefix>general.*") into \p Registry — read-only.
  void exportTelemetry(StatsRegistry &Registry,
                       const std::string &Prefix) const;

  /// Structural self-audit for the verify layer: per-arena bump-pointer
  /// bounds and alignment, live-counter consistency against the payload
  /// map (batch-reset soundness), arena-live-byte accounting, and the
  /// embedded general heap's full audit.  O(live objects) per call; costs
  /// nothing unless called.  Returns false and fills \p Error at the first
  /// broken invariant.
  bool auditInvariants(std::string &Error) const;

private:
  /// Per-arena state: the paper's alloc pointer and live count, plus a
  /// reset-generation counter for the audit trail.
  struct Arena {
    uint64_t AllocPtr = 0; ///< Next free offset within the arena.
    uint32_t LiveCount = 0;
    uint64_t Generation = 0; ///< Incremented at every reset.
  };

  bool fitsCurrentArena(uint64_t Need) const;
  uint64_t bumpAllocate(uint32_t Size, uint64_t Need);

  Config Cfg;
  unsigned ArenaShift = 0; ///< log2(arenaBytes()).
  Counters Stats;
  std::vector<Arena> Arenas;
  unsigned Current = 0;
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
