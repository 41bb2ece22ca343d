//===- verify/ShadowHeap.h - Lockstep allocator reference models -*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shadow-heap reference models that lockstep-check the four allocator
/// families step by step.  Each shadow consumes the observed (size,
/// address) stream of an allocator under test, runs an *independent*
/// reference model of the same policy beside it, and reports any
/// divergence to a ViolationLog:
///
///  - placement-policy conformance (first fit / best fit / BSD bucket /
///    arena bump addresses predicted exactly by the reference model);
///  - live-block address disjointness (an interval set of payload spans);
///  - byte conservation (liveBytes / heapBytes / free-block accounting
///    cross-checked against the model every operation);
///  - coalescing idempotence, free-list order, and rover/bin integrity
///    (the allocator's own auditInvariants, invoked at a stride);
///  - arena live-counter, generation, and batch-reset consistency;
///  - predicted-class routing (arena vs general placement must match the
///    prediction handed to the allocator).
///
/// The shadows are deliberately built on *different* data structures than
/// the production allocators (the map/set LegacyFirstFitAllocator and
/// small hand-written models), so a shared bug must be introduced twice
/// to go unnoticed.  After the first placement divergence a shadow goes
/// passive (model state is no longer meaningful) but keeps the
/// model-free span checks running.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_VERIFY_SHADOWHEAP_H
#define LIFEPRED_VERIFY_SHADOWHEAP_H

#include "alloc/ArenaAllocator.h"
#include "alloc/BsdAllocator.h"
#include "alloc/LegacyFirstFitAllocator.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

namespace lifepred {

/// One invariant violation observed during a shadow-checked replay.
struct Violation {
  uint64_t Op = 0;        ///< 0-based index of the offending event.
  std::string Invariant;  ///< Short kebab-case invariant id.
  std::string Detail;     ///< Human-readable specifics.
};

/// Collects violations; records the first MaxRecorded in full and counts
/// the rest, so a totally broken run stays cheap to diagnose.
class ViolationLog {
public:
  explicit ViolationLog(size_t MaxRecorded = 16) : MaxRecorded(MaxRecorded) {}

  void add(uint64_t Op, std::string Invariant, std::string Detail) {
    ++Total;
    if (Entries.size() < MaxRecorded)
      Entries.push_back({Op, std::move(Invariant), std::move(Detail)});
  }

  bool clean() const { return Total == 0; }
  uint64_t total() const { return Total; }
  const std::vector<Violation> &violations() const { return Entries; }

private:
  std::vector<Violation> Entries;
  size_t MaxRecorded;
  uint64_t Total = 0;
};

/// Address-interval set of live payload spans; detects overlap between
/// any two live objects regardless of which allocator placed them.
/// Zero-size payloads occupy one byte so identical bump addresses are
/// still flagged.
class LiveSpanSet {
public:
  /// Inserts [Addr, Addr + max(Size, 1)); reports overlap to \p Log.
  void insert(ViolationLog &Log, uint64_t Op, uint64_t Addr, uint32_t Size);

  /// Erases the span starting at \p Addr; reports an unknown address to
  /// \p Log.  Returns false when the address was not live.
  bool erase(ViolationLog &Log, uint64_t Op, uint64_t Addr);

  size_t size() const { return Spans.size(); }

private:
  std::map<uint64_t, uint64_t> Spans; ///< start -> end (exclusive).
};

/// Lockstep checker for FirstFitAllocator (any FitPolicy): runs the
/// map/set LegacyFirstFitAllocator as the placement oracle.
class ShadowFirstFit {
public:
  /// \p Observed may be null for stream-only conformance checking (the
  /// mutation tests drive the shadow with a hand-made address stream).
  /// \p ReplicaConfig configures the reference model — normally the
  /// observed allocator's own config; a deliberate mismatch is the
  /// mutation-test hook.  \p AuditStride is how often (in operations) the
  /// observed allocator's auditInvariants runs; 0 = only at finish().
  ShadowFirstFit(const FirstFitAllocator *Observed, ViolationLog &Log,
                 FirstFitAllocator::Config ReplicaConfig,
                 uint64_t AuditStride = 256);

  /// Convenience: replica config taken from \p Observed.
  ShadowFirstFit(const FirstFitAllocator &Observed, ViolationLog &Log,
                 uint64_t AuditStride = 256)
      : ShadowFirstFit(&Observed, Log, Observed.config(), AuditStride) {}

  void onAlloc(uint32_t Size, uint64_t Addr);
  void onFree(uint64_t Addr);

  /// End-of-replay checks: counters, peaks, and a final audit.
  void finish();

private:
  void crossCheck();

  const FirstFitAllocator *Observed;
  ViolationLog &Log;
  LegacyFirstFitAllocator Replica;
  LiveSpanSet Spans;
  std::unordered_map<uint64_t, uint32_t> Payloads;
  uint64_t AuditStride;
  uint64_t Op = 0;
  bool Diverged = false;
};

/// Lockstep checker for BsdAllocator: an independent Kingsley bucket
/// model (vectors of parked addresses, exact refill/pop order) predicts
/// every address.  Honours the observed allocator's free-list policy: in
/// FreeListKind::Bitmap mode the model keeps each class's parked blocks
/// in an ordered std::set and predicts the *minimum* address — a
/// deliberately different structure from the production bitmap, so the
/// lowest-free-address policy is verified independently.
class ShadowBsd {
public:
  ShadowBsd(const BsdAllocator &Observed, ViolationLog &Log,
            uint64_t AuditStride = 256);

  void onAlloc(uint32_t Size, uint64_t Addr);
  void onFree(uint64_t Addr);
  void finish();

private:
  unsigned bucketFor(uint32_t Size) const;
  uint64_t modelAllocate(uint32_t Size);
  void crossCheck();

  const BsdAllocator *Observed;
  ViolationLog &Log;
  BsdAllocator::Config Cfg;
  BsdAllocator::Counters Model;
  std::vector<std::vector<uint64_t>> Buckets;
  /// Ordered parked sets (FreeListKind::Bitmap mode only).
  std::vector<std::set<uint64_t>> OrderedBuckets;
  std::unordered_map<uint64_t, uint32_t> Payloads;
  LiveSpanSet Spans;
  uint64_t HeapEnd;
  uint64_t MaxHeap = 0;
  uint64_t LiveBytesModel = 0;
  uint64_t AuditStride;
  uint64_t Op = 0;
  bool Diverged = false;
};

/// Lockstep checker for ArenaAllocator's single (paper) band: an
/// independent model of the routing state machine (bump pointers, live
/// counts, reset scan) plus a legacy replica of the general heap predicts
/// every address, and the observed allocator's per-arena live counts /
/// generations are cross-checked against the model.  The prediction bit
/// handed to the allocator is replayed here, so predicted-class routing is
/// verified end to end.
class ShadowArena {
public:
  ShadowArena(const ArenaAllocator &Observed, ViolationLog &Log,
              uint64_t AuditStride = 256);

  void onAlloc(uint32_t Size, bool PredictedShortLived, uint64_t Addr);
  void onFree(uint64_t Addr);
  void finish();

private:
  struct ModelArena {
    uint64_t AllocPtr = 0;
    uint32_t LiveCount = 0;
    uint64_t Generation = 0;
  };

  uint64_t arenaBytes() const { return Band.AreaBytes / Band.ArenaCount; }
  bool isArenaAddress(uint64_t Addr) const {
    return Addr >= Cfg.ArenaBase && Addr < Cfg.ArenaBase + Band.AreaBytes;
  }
  uint64_t modelAllocate(uint32_t Size, bool Predicted);
  uint64_t bump(uint32_t Size, uint64_t Need);
  void crossCheck();

  const ArenaAllocator *Observed;
  ViolationLog &Log;
  ArenaAllocator::Config Cfg;
  ArenaAllocator::BandConfig Band; ///< The one band modelled.
  ArenaAllocator::Counters Model;
  std::vector<ModelArena> Arenas;
  unsigned Current = 0;
  LegacyFirstFitAllocator GeneralReplica;
  std::unordered_map<uint64_t, uint32_t> ArenaPayloads;
  std::unordered_map<uint64_t, uint32_t> GeneralPayloads;
  LiveSpanSet Spans;
  uint64_t ArenaLive = 0;
  uint64_t MaxArenaLive = 0;
  uint64_t AuditStride;
  uint64_t Op = 0;
  bool Diverged = false;
};

/// Lockstep checker for ArenaAllocator with any number of bands: the
/// banded analogue of ShadowArena, replaying the predicted band per
/// allocation.
class ShadowMultiArena {
public:
  ShadowMultiArena(const ArenaAllocator &Observed, ViolationLog &Log,
                   uint64_t AuditStride = 256);

  void onAlloc(uint32_t Size, uint8_t Band, uint64_t Addr);
  void onFree(uint64_t Addr);
  void finish();

private:
  struct ModelArena {
    uint64_t AllocPtr = 0;
    uint32_t LiveCount = 0;
    uint64_t Generation = 0;
  };

  struct ModelBand {
    ArenaAllocator::BandConfig Cfg;
    uint64_t Base = 0;
    std::vector<ModelArena> Arenas;
    unsigned Current = 0;
    ArenaAllocator::BandCounters Stats;

    uint64_t arenaBytes() const { return Cfg.AreaBytes / Cfg.ArenaCount; }
  };

  uint8_t bandForAddress(uint64_t Addr) const;
  uint64_t modelAllocate(uint32_t Size, uint8_t Band);
  uint64_t bump(ModelBand &Band, uint32_t Size, uint64_t Need);
  void crossCheck();

  const ArenaAllocator *Observed;
  ViolationLog &Log;
  std::vector<ModelBand> Bands;
  LegacyFirstFitAllocator GeneralReplica;
  uint64_t ModelGeneralAllocs = 0;
  uint64_t ModelGeneralBytes = 0;
  std::unordered_map<uint64_t, uint32_t> ArenaPayloads;
  std::unordered_map<uint64_t, uint32_t> GeneralPayloads;
  LiveSpanSet Spans;
  uint64_t ArenaLive = 0;
  uint64_t MaxArenaLive = 0;
  uint64_t AuditStride;
  uint64_t Op = 0;
  bool Diverged = false;
};

} // namespace lifepred

#endif // LIFEPRED_VERIFY_SHADOWHEAP_H
