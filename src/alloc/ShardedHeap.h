//===- alloc/ShardedHeap.h - Sharded concurrent heap layer ------*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concurrent heap layer under the multi-tenant serving engine
/// (sim/TenantMux.h): every allocator family is wrapped in S per-shard
/// sub-heaps over one SharedBackingStore that partitions the simulated
/// address space into per-shard lanes, so shard s of any family owns the
/// address range [laneBase(s), laneBase(s) + LaneBytes) and cross-shard
/// address collisions are impossible by construction.
///
/// Pieces:
///
///   * SharedBackingStore — the lane map plus a process-wide atomic
///     reserved-byte total (the "sbrk" the shards share).
///   * RemoteFreeChannel — a lock-free MPSC Treiber stack per shard for
///     cross-shard frees (a tenant's free can execute on a different
///     worker than its alloc); producers push nodes from per-worker
///     pools, the shard's owner drains at batch boundaries.
///   * CasHeapShard — one shard of the lock-free Kingsley heap: the
///     serving counterpart of BsdAllocator's FreeListKind::Bitmap mode,
///     rebuilt on support/AtomicBitmapFreeList so the intra-shard alloc
///     fast path is a CAS claim and remote frees in eager mode are one
///     fetch_or into the owning shard's bitmap.  Same bucket geometry,
///     same refill rule, same counters — driven serially it produces
///     BsdAllocator's addresses bit for bit (the shadow conformance test
///     relies on this).
///   * SimShardSet<AllocatorT> (first-fit, BSD LIFO, predicting arena)
///     and CasShardSet — thin per-family containers presenting one
///     shard-indexed interface to the engine's templated replay core.
///
/// Threading contract: allocate()/freeLocal() are owner-only (the worker
/// that owns the shard this round); freeRemoteEager() is any-thread but
/// only the CAS family supports it.  Everything else — export, span
/// sampling, heap totals — is quiescent-only (between rounds or after the
/// run).  Contended counters (CAS retries, drain depths) are accumulated
/// by the *caller* per worker and folded into ContentionCounters, keeping
/// every shard counter single-writer and therefore deterministic.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_ALLOC_SHARDEDHEAP_H
#define LIFEPRED_ALLOC_SHARDEDHEAP_H

#include "alloc/ArenaAllocator.h"
#include "alloc/BsdAllocator.h"
#include "alloc/FirstFitAllocator.h"
#include "support/AtomicBitmapFreeList.h"
#include "support/MathExtras.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace lifepred {

class StatsRegistry;
class FragmentationProbe;

//===----------------------------------------------------------------------===//
// SharedBackingStore
//===----------------------------------------------------------------------===//

/// The simulated address space the shards share: a contiguous base carved
/// into fixed-size per-shard lanes, plus an atomic total of every byte any
/// shard reserved.  Lane bumps are owner-only; the total is the one
/// cross-shard cell and is fetch_add'ed.
class SharedBackingStore {
public:
  struct Config {
    /// Base of the serving address space.  Above every single-heap base
    /// (1<<40 .. 1<<41) so serving addresses are recognizable in dumps.
    uint64_t BaseAddress = uint64_t(1) << 42;
    /// Address span of one shard's lane.
    uint64_t LaneBytes = uint64_t(1) << 34;
  };

  void configure(const Config &C, unsigned Shards) {
    assert(Shards > 0 && "need at least one shard");
    Cfg = C;
    Lanes.assign(Shards, Lane());
    TotalReserved.store(0, std::memory_order_relaxed);
  }

  unsigned shardCount() const { return static_cast<unsigned>(Lanes.size()); }
  uint64_t laneBytes() const { return Cfg.LaneBytes; }

  uint64_t laneBase(unsigned Shard) const {
    assert(Shard < Lanes.size());
    return Cfg.BaseAddress + uint64_t(Shard) * Cfg.LaneBytes;
  }

  /// Reserves \p Bytes in \p Shard's lane and returns the base address of
  /// the reservation.  Owner-only per shard (plain bump); the shared total
  /// is atomic so concurrent shards account correctly.
  uint64_t reserve(unsigned Shard, uint64_t Bytes) {
    Lane &L = Lanes[Shard];
    assert(L.Used + Bytes <= Cfg.LaneBytes &&
           "shard lane exhausted; raise SharedBackingStore LaneBytes");
    uint64_t Addr = laneBase(Shard) + L.Used;
    L.Used += Bytes;
    TotalReserved.fetch_add(Bytes, std::memory_order_relaxed);
    return Addr;
  }

  uint64_t laneUsed(unsigned Shard) const { return Lanes[Shard].Used; }

  uint64_t reservedBytes() const {
    return TotalReserved.load(std::memory_order_relaxed);
  }

private:
  /// Cache-line-sized so two shards' bumps never share a line.
  struct alignas(64) Lane {
    uint64_t Used = 0;
  };

  Config Cfg;
  std::vector<Lane> Lanes;
  std::atomic<uint64_t> TotalReserved{0};
};

//===----------------------------------------------------------------------===//
// Remote-free channel (MPSC)
//===----------------------------------------------------------------------===//

/// One cross-shard free in flight: the address plus its payload size (the
/// owner needs the size class at application time and must not touch the
/// producer tenant's table).
struct RemoteFreeNode {
  uint64_t Addr = 0;
  uint32_t Size = 0;
  RemoteFreeNode *Next = nullptr;
};

/// Lock-free multi-producer single-consumer channel: a Treiber stack of
/// externally owned nodes.  push() is the producers' CAS loop (the one
/// genuinely contended hot path in channel mode — its retry count is the
/// bench's channel-contention signal); drain() is the owner's single
/// exchange.  Node lifetime is the caller's problem: the serving engine
/// hands out nodes from worker-local pools and recycles them after the
/// post-drain barrier, when no drained list can still be referenced.
class RemoteFreeChannel {
public:
  /// Pushes \p Node (fully filled in by the caller).  Any thread.
  /// Returns the number of lost CAS races.
  unsigned push(RemoteFreeNode *Node) {
    unsigned Retries = 0;
    RemoteFreeNode *Expected = Head.load(std::memory_order_relaxed);
    for (;;) {
      Node->Next = Expected;
      if (Head.compare_exchange_weak(Expected, Node,
                                     std::memory_order_release,
                                     std::memory_order_relaxed))
        return Retries;
      ++Retries;
    }
  }

  /// Detaches and returns the current list (LIFO arrival order), leaving
  /// the channel empty.  Single consumer: the shard's owner at a batch
  /// boundary.  The caller sorts entries by address before applying them,
  /// which erases the racy arrival order — live addresses are unique, so
  /// the sorted order is a deterministic function of the round's frees.
  RemoteFreeNode *drain() {
    return Head.exchange(nullptr, std::memory_order_acquire);
  }

  bool emptyApprox() const {
    return Head.load(std::memory_order_relaxed) == nullptr;
  }

private:
  alignas(64) std::atomic<RemoteFreeNode *> Head{nullptr};
};

/// Bump pool of RemoteFreeNodes, one per engine worker and local to the
/// worker's body, so its Used count shares no cache line with another
/// worker's.  acquire() never recycles within a round; reset() (called by
/// the owning worker after the post-drain barrier) makes every node
/// available again without freeing the chunks, so steady-state rounds
/// allocate nothing.
class RemoteNodePool {
public:
  RemoteFreeNode *acquire() {
    size_t Chunk = Used / ChunkNodes;
    if (Chunk == Chunks.size())
      Chunks.push_back(std::make_unique<RemoteFreeNode[]>(ChunkNodes));
    return &Chunks[Chunk][Used++ % ChunkNodes];
  }

  /// Recycles every node.  Only safe once no drained list references them
  /// (after the engine's post-drain barrier).
  void reset() { Used = 0; }

  size_t capacity() const { return Chunks.size() * ChunkNodes; }

private:
  static constexpr size_t ChunkNodes = 4096;
  std::vector<std::unique_ptr<RemoteFreeNode[]>> Chunks;
  size_t Used = 0;
};

//===----------------------------------------------------------------------===//
// Contention counters
//===----------------------------------------------------------------------===//

/// Counters whose values depend on thread interleaving: CAS retry counts
/// and the deepest remote-free drain observed.  These are *timing-class*
/// telemetry — reported for observability, never gated — so they live
/// outside the deterministic StatsRegistry and are exported under
/// "contention" key names that ReportDiff ignores by default.
struct ContentionCounters {
  uint64_t BitmapCasRetries = 0;  ///< Lost pop() claims (eager mode).
  uint64_t ChannelCasRetries = 0; ///< Lost remote-free channel pushes.
  uint64_t RemoteFreePushes = 0;  ///< Channel pushes attempted.
  uint64_t MaxDrainDepth = 0;     ///< Deepest single channel drain.

  void merge(const ContentionCounters &Other) {
    BitmapCasRetries += Other.BitmapCasRetries;
    ChannelCasRetries += Other.ChannelCasRetries;
    RemoteFreePushes += Other.RemoteFreePushes;
    raisePeak(MaxDrainDepth, Other.MaxDrainDepth);
  }
};

//===----------------------------------------------------------------------===//
// CasHeapShard — one shard of the lock-free Kingsley heap
//===----------------------------------------------------------------------===//

/// One shard of the CAS-bitmap Kingsley heap.  Semantically identical to
/// BsdAllocator in FreeListKind::Bitmap mode with BaseAddress = the
/// shard's lane base: same bucketFor rule, same
/// max(BlockBytes, PageBytes) extent carve at the bump end, same counter
/// definitions.  The differences are mechanical: free lists are
/// AtomicBitmapFreeLists (CAS pop, fetch_or push), the heap end bump goes
/// through the SharedBackingStore lane, there is no internal live map
/// (the serving engine's tenant tables carry sizes), and Frees/LiveBytes
/// are relaxed atomics so eager-mode remote frees can maintain them.
/// Cache-line-aligned: CasShardSet packs shards into one array, and every
/// alloc and free does a fetch_add on LiveBytes, which must not share a
/// line with the next shard's Cfg (read by its owner in every bucketFor).
class alignas(64) CasHeapShard {
public:
  struct Config {
    uint64_t PageBytes = 8192;   ///< Refill granularity.
    uint64_t HeaderBytes = 8;    ///< Per-block bucket tag.
    uint64_t MinBlockBytes = 16; ///< Smallest size class.
    /// Capacity bound per size class (AtomicBitmapFreeList publishes its
    /// word array once; see that header).
    uint64_t MaxExtentsPerClass = 4096;
  };

  /// Mirrors BsdAllocator::Counters; BucketBits is the same shift-loop
  /// cost proxy.  Frees is atomic because eager remote frees bump it.
  struct Counters {
    uint64_t Allocs = 0;
    uint64_t PageRefills = 0;
    uint64_t BucketBits = 0;
    std::atomic<uint64_t> Frees{0};
  };

  static constexpr unsigned BucketCount = 40;

  CasHeapShard() = default;
  CasHeapShard(const CasHeapShard &) = delete;
  CasHeapShard &operator=(const CasHeapShard &) = delete;

  /// Binds the shard to \p Store lane \p Shard.  Call once, before any
  /// concurrent access.
  void configure(const Config &C, SharedBackingStore *Store, unsigned Shard);

  /// The size class serving \p Size — BsdAllocator::bucketFor's rule.
  unsigned bucketFor(uint32_t Size) const {
    uint64_t Need = Size + Cfg.HeaderBytes;
    if (Need < Cfg.MinBlockBytes)
      Need = Cfg.MinBlockBytes;
    return log2Ceil(Need);
  }

  /// Allocates a block.  Owner thread only.  \p CasRetries accumulates
  /// lost bitmap CAS claims (nonzero only when eager remote frees are
  /// racing this shard's pops).
  uint64_t allocate(uint32_t Size, uint64_t &CasRetries);

  /// Returns a block allocated from *this* shard.  Owner thread only.
  void freeLocal(uint64_t Addr, uint32_t Size) { freeCommon(Addr, Size); }

  /// Returns a block from any thread (eager cross-shard free): the bitmap
  /// push is a fetch_or, the counters are atomic.  Placement observed by
  /// the owner becomes interleaving-dependent; totals stay exact.
  void freeRemote(uint64_t Addr, uint32_t Size) { freeCommon(Addr, Size); }

  uint64_t heapBytes() const { return HeapEnd - LaneBase; }
  uint64_t maxHeapBytes() const { return MaxHeap; }
  uint64_t liveBytes() const {
    return LiveBytes.load(std::memory_order_relaxed);
  }
  uint64_t allocCount() const { return Stats.Allocs; }
  uint64_t freeCount() const {
    return Stats.Frees.load(std::memory_order_relaxed);
  }
  uint64_t freeBlockCount() const;

  /// Exports BsdAllocator-compatible keys ("<Prefix>allocs",
  /// "<Prefix>page_refills", "<Prefix>heap_bytes", ...).  Quiescent only.
  void exportTelemetry(StatsRegistry &Registry,
                       const std::string &Prefix) const;

  /// Feeds one fragmentation sample at \p Clock: bulk per-class free and
  /// live span counts (spans at the rounded block size, as
  /// BsdAllocator::forEachLiveSpan reports them).  Quiescent only.
  void sampleFragmentation(uint64_t Clock, FragmentationProbe &Probe) const;

private:
  void freeCommon(uint64_t Addr, uint32_t Size) {
    Stats.Frees.fetch_add(1, std::memory_order_relaxed);
    LiveBytes.fetch_sub(Size, std::memory_order_relaxed);
    Classes[bucketFor(Size)].push(Addr);
  }

  Config Cfg;
  SharedBackingStore *Store = nullptr;
  unsigned Shard = 0;
  uint64_t LaneBase = 0;
  uint64_t HeapEnd = 0; ///< Owner-only bump, mirrors the lane's Used.
  uint64_t MaxHeap = 0;
  Counters Stats;
  std::atomic<uint64_t> LiveBytes{0};
  std::unique_ptr<AtomicBitmapFreeList[]> Classes;
};

//===----------------------------------------------------------------------===//
// Per-family shard sets
//===----------------------------------------------------------------------===//

/// The shard-set interface the serving engine's templated replay core
/// compiles against (no virtual dispatch — each family instantiates the
/// core):
///
///   static constexpr bool SupportsEagerRemoteFree;
///   uint64_t allocate(unsigned Shard, uint32_t Size, bool PredictedShort,
///                     uint64_t &CasRetries);          // owner-only
///   void freeLocal(unsigned Shard, uint64_t Addr, uint32_t Size);
///   void freeRemoteEager(unsigned Shard, uint64_t Addr, uint32_t Size);
///   void exportShard(unsigned Shard, StatsRegistry &, const std::string &);
///   uint64_t shardHeapBytes(unsigned Shard) const;
///
/// Fragmentation sampling is not part of the interface: the AllocatorSim-
/// backed families expose shardSim(Shard) so the engine reuses the shared
/// shard-aware span walk (sim/SimTelemetry's probeHeapSpans); the CAS
/// family samples in bulk per size class via shard(Shard)'s
/// sampleFragmentation (its free lists are bitmap populations, not span
/// lists, so per-block iteration would be O(blocks) for no extra fidelity).

/// The AllocatorSim-backed families: one AllocatorT per shard, based in
/// its lane.  FirstFitAllocator and the LIFO BsdAllocator (the serial
/// comparison row for the CAS family) take the lane base as their heap
/// base.  ArenaAllocator is the paper's allocator under multi-tenant
/// contention: its predictions come from each tenant's own trained site
/// database (resolved to per-record bits by the engine), and both its
/// arena area and its general heap sit inside the shard's lane.
template <typename AllocatorT> class SimShardSet {
  static constexpr bool IsArena = std::is_same_v<AllocatorT, ArenaAllocator>;

public:
  static constexpr bool SupportsEagerRemoteFree = false;

  SimShardSet(const SharedBackingStore::Config &Backing,
              typename AllocatorT::Config Alloc, unsigned Shards) {
    Store.configure(Backing, Shards);
    this->Shards.reserve(Shards);
    for (unsigned S = 0; S < Shards; ++S) {
      if constexpr (IsArena) {
        // The arena area sits at the lane base; the general (first-fit)
        // heap starts half a lane up so the two regions cannot collide
        // even at the largest serving scales.
        Alloc.ArenaBase = Store.laneBase(S);
        Alloc.General.BaseAddress = Store.laneBase(S) + Backing.LaneBytes / 2;
      } else {
        Alloc.BaseAddress = Store.laneBase(S);
      }
      this->Shards.push_back(std::make_unique<AllocatorT>(Alloc));
    }
  }

  uint64_t allocate(unsigned Shard, uint32_t Size, bool PredictedShort,
                    uint64_t & /*CasRetries*/) {
    if constexpr (IsArena)
      return Shards[Shard]->allocate(Size, PredictedShort);
    else
      return Shards[Shard]->allocate(Size);
  }
  void freeLocal(unsigned Shard, uint64_t Addr, uint32_t /*Size*/) {
    Shards[Shard]->free(Addr);
  }
  void freeRemoteEager(unsigned, uint64_t, uint32_t) {
    assert(false && "AllocatorSim shards have no eager remote-free path");
  }
  void exportShard(unsigned Shard, StatsRegistry &Registry,
                   const std::string &Prefix) const {
    Shards[Shard]->exportTelemetry(Registry, Prefix);
  }
  uint64_t shardHeapBytes(unsigned Shard) const {
    return Shards[Shard]->heapBytes();
  }
  const AllocatorSim &shardSim(unsigned Shard) const { return *Shards[Shard]; }
  const SharedBackingStore &backing() const { return Store; }

private:
  SharedBackingStore Store;
  std::vector<std::unique_ptr<AllocatorT>> Shards;
};

/// Lock-free CAS-Kingsley family: CasHeapShards over one backing store.
/// The only family with an eager remote-free fast path.
class CasShardSet {
public:
  static constexpr bool SupportsEagerRemoteFree = true;

  CasShardSet(const SharedBackingStore::Config &Backing,
              CasHeapShard::Config Shard, unsigned Shards);

  uint64_t allocate(unsigned Shard, uint32_t Size, bool /*PredictedShort*/,
                    uint64_t &CasRetries) {
    return Shards[Shard].allocate(Size, CasRetries);
  }
  void freeLocal(unsigned Shard, uint64_t Addr, uint32_t Size) {
    Shards[Shard].freeLocal(Addr, Size);
  }
  void freeRemoteEager(unsigned Shard, uint64_t Addr, uint32_t Size) {
    Shards[Shard].freeRemote(Addr, Size);
  }
  void exportShard(unsigned Shard, StatsRegistry &Registry,
                   const std::string &Prefix) const;
  uint64_t shardHeapBytes(unsigned Shard) const {
    return Shards[Shard].heapBytes();
  }
  const SharedBackingStore &backing() const { return Store; }
  const CasHeapShard &shard(unsigned Shard) const { return Shards[Shard]; }

private:
  SharedBackingStore Store;
  std::unique_ptr<CasHeapShard[]> Shards;
  unsigned ShardCount = 0;
};

} // namespace lifepred

#endif // LIFEPRED_ALLOC_SHARDEDHEAP_H
