//===- alloc/ShardedHeap.cpp - Sharded concurrent heap layer ---------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "alloc/ShardedHeap.h"

#include "telemetry/FragmentationProbe.h"
#include "telemetry/StatsRegistry.h"

#include <cassert>

using namespace lifepred;

//===----------------------------------------------------------------------===//
// CasHeapShard
//===----------------------------------------------------------------------===//

void CasHeapShard::configure(const Config &C, SharedBackingStore *Backing,
                             unsigned ShardIndex) {
  assert(Backing && "CAS shard needs a backing store");
  assert(isPowerOf2(C.PageBytes) && "page size must be a power of 2");
  assert(isPowerOf2(C.MinBlockBytes) && "min block must be a power of 2");
  Cfg = C;
  Store = Backing;
  Shard = ShardIndex;
  LaneBase = Store->laneBase(Shard);
  HeapEnd = LaneBase;
  Classes = std::make_unique<AtomicBitmapFreeList[]>(BucketCount);
  for (unsigned Bucket = 0; Bucket < BucketCount; ++Bucket) {
    uint64_t BlockBytes = uint64_t(1) << Bucket;
    uint64_t Extent = BlockBytes >= Cfg.PageBytes ? BlockBytes : Cfg.PageBytes;
    Classes[Bucket].configure(BlockBytes, Extent / BlockBytes,
                              Cfg.MaxExtentsPerClass);
  }
}

uint64_t CasHeapShard::allocate(uint32_t Size, uint64_t &CasRetries) {
  // Mirrors BsdAllocator::allocate (bitmap mode) statement for statement so
  // a serially driven shard reproduces its address stream exactly — the
  // shadow-conformance test replays one shard's op log through a fresh
  // BsdAllocator and compares addresses.
  ++Stats.Allocs;
  unsigned Bucket = bucketFor(Size);
  Stats.BucketBits += Bucket;
  assert(Bucket < BucketCount && "size class out of range");

  AtomicBitmapFreeList &Class = Classes[Bucket];
  if (Class.empty()) {
    // In eager mode a remote free can land between this check and the pop;
    // the refill is then conservative (one extra extent), never wrong.  In
    // channel mode the owner is the only mutator, so the refill count is
    // deterministic and matches the serial BSD heap.
    ++Stats.PageRefills;
    uint64_t BlockBytes = uint64_t(1) << Bucket;
    uint64_t Extent = BlockBytes >= Cfg.PageBytes ? BlockBytes : Cfg.PageBytes;
    uint64_t Base = Store->reserve(Shard, Extent);
    assert(Base == HeapEnd && "lane reserved out from under its owner");
    Class.addExtent(Base);
    HeapEnd += Extent;
    raisePeak(MaxHeap, heapBytes());
  }
  uint64_t Addr = Class.pop(CasRetries);
  LiveBytes.fetch_add(Size, std::memory_order_relaxed);
  return Addr;
}

uint64_t CasHeapShard::freeBlockCount() const {
  uint64_t Count = 0;
  for (unsigned Bucket = 0; Bucket < BucketCount; ++Bucket)
    Count += Classes[Bucket].freeCount();
  return Count;
}

void CasHeapShard::exportTelemetry(StatsRegistry &Registry,
                                   const std::string &Prefix) const {
  // Same key set as BsdAllocator::exportTelemetry so serving rows diff
  // against single-heap rows key for key.
  Registry.counter(Prefix + "allocs") += Stats.Allocs;
  Registry.counter(Prefix + "frees") += freeCount();
  Registry.counter(Prefix + "page_refills") += Stats.PageRefills;
  Registry.counter(Prefix + "bucket_bits") += Stats.BucketBits;
  raisePeak(Registry.gauge(Prefix + "heap_bytes"), heapBytes());
  raisePeak(Registry.gauge(Prefix + "max_heap_bytes"), maxHeapBytes());
  raisePeak(Registry.gauge(Prefix + "live_bytes"), liveBytes());
  raisePeak(Registry.gauge(Prefix + "free_blocks"), freeBlockCount());
}

void CasHeapShard::sampleFragmentation(uint64_t Clock,
                                       FragmentationProbe &Probe) const {
  // Bulk per-class sampling: every span in class B is exactly 1<<B bytes,
  // so counts are enough — no per-block walk.
  Probe.beginSample(Clock, heapBytes(), liveBytes());
  for (unsigned Bucket = 0; Bucket < BucketCount; ++Bucket) {
    uint64_t Free = Classes[Bucket].freeCount();
    uint64_t Blocks = Classes[Bucket].blockCount();
    uint64_t SpanBytes = uint64_t(1) << Bucket;
    if (Free)
      Probe.addFreeSpans(SpanBytes, Free);
    if (Blocks > Free)
      Probe.addLiveSpans(SpanBytes, Blocks - Free);
  }
  Probe.endSample();
}

//===----------------------------------------------------------------------===//
// CasShardSet
//===----------------------------------------------------------------------===//

CasShardSet::CasShardSet(const SharedBackingStore::Config &Backing,
                         CasHeapShard::Config Shard, unsigned Shards)
    : ShardCount(Shards) {
  Store.configure(Backing, Shards);
  this->Shards = std::make_unique<CasHeapShard[]>(Shards);
  for (unsigned S = 0; S < Shards; ++S)
    this->Shards[S].configure(Shard, &Store, S);
}

void CasShardSet::exportShard(unsigned Shard, StatsRegistry &Registry,
                              const std::string &Prefix) const {
  Shards[Shard].exportTelemetry(Registry, Prefix);
}
