//===- alloc/BsdAllocator.h - Kingsley power-of-two buckets -----*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 4.2BSD (Kingsley) malloc the paper uses as its CPU-cost baseline:
/// requests are rounded up to a power of two, each size class keeps a LIFO
/// free list, freed blocks are pushed without coalescing, and empty classes
/// are refilled by carving a fresh page.  Extremely fast but memory-hungry.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_ALLOC_BSDALLOCATOR_H
#define LIFEPRED_ALLOC_BSDALLOCATOR_H

#include "alloc/AllocatorSim.h"
#include "support/BitmapFreeList.h"
#include "support/FlatAddressMap.h"
#include "support/MathExtras.h"

#include <cstdint>
#include <string>
#include <vector>

namespace lifepred {

class StatsRegistry;
class Log2Histogram;

/// Kingsley-style power-of-two segregated-storage simulator.
class BsdAllocator : public AllocatorSim {
public:
  /// How a size class stores its free blocks.
  enum class FreeListKind {
    /// The classic LIFO stack: free pushes, allocate pops the most
    /// recently freed block.  The paper's baseline behaviour.
    Lifo,
    /// One bit per block (support/BitmapFreeList.h): allocate claims the
    /// lowest free address via find-first-set.  Placement differs from
    /// Lifo, but every counter, the heap trajectory, and the exported
    /// telemetry are bit-identical — refills happen iff the class is
    /// empty, which is a placement-independent condition.  This is the
    /// serial reference for the serving engine's CAS bitmap shards
    /// (alloc/ShardedHeap.h), which must match it address for address.
    Bitmap,
  };

  /// Tunables.
  struct Config {
    uint64_t PageBytes = 8192;        ///< Refill granularity.
    uint64_t HeaderBytes = 8;         ///< Per-block bucket tag.
    uint64_t MinBlockBytes = 16;      ///< Smallest size class.
    uint64_t BaseAddress = uint64_t(1) << 41;
    FreeListKind FreeList = FreeListKind::Lifo;
  };

  /// Operation counts for the instruction cost model.
  struct Counters {
    uint64_t Allocs = 0;
    uint64_t Frees = 0;
    uint64_t PageRefills = 0; ///< Pages carved into a size class.
    uint64_t BucketBits = 0;  ///< Sum of size-class indexes (shift loops).

    bool operator==(const Counters &Other) const = default;
  };

  BsdAllocator();
  explicit BsdAllocator(Config C);

  uint64_t allocate(uint32_t Size) override;
  void free(uint64_t Address) override;
  uint64_t heapBytes() const override { return HeapEnd - Cfg.BaseAddress; }
  uint64_t maxHeapBytes() const override { return MaxHeap; }
  uint64_t liveBytes() const override { return LiveBytes; }

  const Counters &counters() const { return Stats; }
  const Config &config() const { return Cfg; }

  /// Size classes: bucket B holds blocks of 2^B bytes.
  static constexpr unsigned BucketCount = 40;

  /// The size class (bucket index) serving \p Size under \p C.
  static unsigned bucketFor(const Config &C, uint32_t Size) {
    uint64_t Need = Size + C.HeaderBytes;
    if (Need < C.MinBlockBytes)
      Need = C.MinBlockBytes;
    return log2Ceil(Need);
  }

  /// The size class (bucket index) serving \p Size.
  unsigned bucketFor(uint32_t Size) const { return bucketFor(Cfg, Size); }

  /// Blocks parked across all size-class free lists.
  size_t freeBlockCount() const override;

  /// Free spans are the parked blocks of every size class (span = rounded
  /// block size); live spans are the live addresses at their class size —
  /// Kingsley never splits, so block size is the resident footprint.
  void forEachFreeSpan(const SpanVisitor &Visit) const override;
  void forEachLiveSpan(const SpanVisitor &Visit) const override;

  /// Resolves the "<Prefix>class_bytes" histogram in \p Registry (rounded
  /// block size per allocation — the bucket distribution) and records into
  /// it on every subsequent allocate().
  void attachTelemetry(StatsRegistry &Registry, const std::string &Prefix);

  /// Copies the operation counters and heap state into \p Registry as
  /// "<Prefix>allocs", "<Prefix>page_refills", ... — read-only.
  void exportTelemetry(StatsRegistry &Registry,
                       const std::string &Prefix) const;

  /// Structural self-audit for the verify layer: live-byte accounting,
  /// address-range containment of every live and parked block, and
  /// free-list distinctness (no address both live and parked, no address
  /// parked twice).  O(blocks) per call; costs nothing unless called.
  /// Returns false and fills \p Error at the first broken invariant.
  bool auditInvariants(std::string &Error) const;

private:
  Config Cfg;
  Counters Stats;
  /// Telemetry sink; null until attachTelemetry().
  Log2Histogram *ClassBytesHist = nullptr;
  /// Per-bucket LIFO free lists of addresses (FreeListKind::Lifo).
  std::vector<std::vector<uint64_t>> Buckets;
  /// Per-bucket bitmap free lists (FreeListKind::Bitmap).
  std::vector<BitmapFreeList> Bitmaps;
  /// Payload size by allocated address.
  FlatAddressMap Live;
  uint64_t HeapEnd;
  uint64_t MaxHeap = 0;
  uint64_t LiveBytes = 0;
};

} // namespace lifepred

#endif // LIFEPRED_ALLOC_BSDALLOCATOR_H
