//===- alloc/BsdAllocator.cpp - Kingsley power-of-two buckets --------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "alloc/BsdAllocator.h"

#include "support/MathExtras.h"
#include "telemetry/StatsRegistry.h"

#include <cassert>
#include <unordered_set>

using namespace lifepred;

BsdAllocator::BsdAllocator() : BsdAllocator(Config()) {}

BsdAllocator::BsdAllocator(Config Config)
    : Cfg(Config), HeapEnd(Config.BaseAddress) {
  assert(isPowerOf2(Cfg.MinBlockBytes) && "min block must be a power of 2");
  Buckets.resize(BucketCount);
  if (Cfg.FreeList == FreeListKind::Bitmap) {
    Bitmaps.resize(Buckets.size());
    for (unsigned Bucket = 0; Bucket < Bitmaps.size(); ++Bucket) {
      uint64_t BlockBytes = uint64_t(1) << Bucket;
      uint64_t Extent =
          BlockBytes >= Cfg.PageBytes ? BlockBytes : Cfg.PageBytes;
      Bitmaps[Bucket].configure(BlockBytes, Extent / BlockBytes);
    }
  }
}

uint64_t BsdAllocator::allocate(uint32_t Size) {
  ++Stats.Allocs;
  unsigned Bucket = bucketFor(Size);
  Stats.BucketBits += Bucket;
  assert(Bucket < Buckets.size() && "size class out of range");

  uint64_t Addr;
  if (Cfg.FreeList == FreeListKind::Bitmap) {
    BitmapFreeList &FreeList = Bitmaps[Bucket];
    if (FreeList.empty()) {
      ++Stats.PageRefills;
      uint64_t BlockBytes = uint64_t(1) << Bucket;
      uint64_t Extent =
          BlockBytes >= Cfg.PageBytes ? BlockBytes : Cfg.PageBytes;
      FreeList.addExtent(HeapEnd);
      HeapEnd += Extent;
      raisePeak(MaxHeap, heapBytes());
    }
    Addr = FreeList.pop();
  } else {
    std::vector<uint64_t> &FreeList = Buckets[Bucket];
    if (FreeList.empty()) {
      // Carve a fresh extent into blocks of this class.  Oversize classes
      // get a single block of their exact power-of-two size.
      ++Stats.PageRefills;
      uint64_t BlockBytes = uint64_t(1) << Bucket;
      uint64_t Extent =
          BlockBytes >= Cfg.PageBytes ? BlockBytes : Cfg.PageBytes;
      uint64_t Page = HeapEnd;
      HeapEnd += Extent;
      raisePeak(MaxHeap, heapBytes());
      // Push in reverse so the lowest address pops first.
      for (uint64_t Offset = Extent; Offset >= BlockBytes;
           Offset -= BlockBytes)
        FreeList.push_back(Page + Offset - BlockBytes);
    }
    Addr = FreeList.back();
    FreeList.pop_back();
  }
  Live.insert(Addr, Size);
  LiveBytes += Size;
  if (ClassBytesHist)
    ClassBytesHist->record(uint64_t(1) << Bucket);
  return Addr;
}

void BsdAllocator::free(uint64_t Address) {
  ++Stats.Frees;
  uint32_t Payload = Live.erase(Address);
  unsigned Bucket = bucketFor(Payload);
  LiveBytes -= Payload;
  if (Cfg.FreeList == FreeListKind::Bitmap)
    Bitmaps[Bucket].push(Address);
  else
    Buckets[Bucket].push_back(Address);
}

//===----------------------------------------------------------------------===//
// Invariant audit (verify layer).
//===----------------------------------------------------------------------===//

bool BsdAllocator::auditInvariants(std::string &Error) const {
  auto Fail = [&Error](std::string Message) {
    Error = std::move(Message);
    return false;
  };

  uint64_t Live = 0;
  std::string LiveError;
  this->Live.forEach([&](uint64_t Addr, uint32_t Payload) {
    if (!LiveError.empty())
      return;
    if (Addr < Cfg.BaseAddress || Addr >= HeapEnd)
      LiveError = "live block outside the heap at " + std::to_string(Addr);
    else if ((uint64_t(1) << bucketFor(Payload)) > heapBytes())
      LiveError = "live block class larger than the heap at " +
                  std::to_string(Addr);
    Live += Payload;
  });
  if (!LiveError.empty())
    return Fail(std::move(LiveError));
  if (Live != LiveBytes)
    return Fail("live payload sums to " + std::to_string(Live) +
                " but LiveBytes is " + std::to_string(LiveBytes));
  if (MaxHeap < heapBytes())
    return Fail("MaxHeap below current heap size");

  std::unordered_set<uint64_t> Parked;
  auto CheckParked = [&](uint64_t Addr, size_t Bucket, std::string &Err) {
    if (Addr < Cfg.BaseAddress || Addr >= HeapEnd) {
      Err = "parked block outside the heap at " + std::to_string(Addr) +
            " in class " + std::to_string(Bucket);
      return false;
    }
    if (this->Live.contains(Addr)) {
      Err = "address both live and parked: " + std::to_string(Addr);
      return false;
    }
    if (!Parked.insert(Addr).second) {
      Err = "address parked twice: " + std::to_string(Addr);
      return false;
    }
    return true;
  };
  for (size_t Bucket = 0; Bucket < Buckets.size(); ++Bucket)
    for (uint64_t Addr : Buckets[Bucket]) {
      std::string Err;
      if (!CheckParked(Addr, Bucket, Err))
        return Fail(std::move(Err));
    }
  for (size_t Bucket = 0; Bucket < Bitmaps.size(); ++Bucket) {
    std::string Err;
    Bitmaps[Bucket].forEachFree([&](uint64_t Addr) {
      if (Err.empty())
        CheckParked(Addr, Bucket, Err);
    });
    if (!Err.empty())
      return Fail(std::move(Err));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Telemetry
//===----------------------------------------------------------------------===//

size_t BsdAllocator::freeBlockCount() const {
  size_t Count = 0;
  for (const std::vector<uint64_t> &FreeList : Buckets)
    Count += FreeList.size();
  for (const BitmapFreeList &FreeList : Bitmaps)
    Count += FreeList.freeCount();
  return Count;
}

void BsdAllocator::attachTelemetry(StatsRegistry &Registry,
                                   const std::string &Prefix) {
  ClassBytesHist = &Registry.histogram(Prefix + "class_bytes");
}

void BsdAllocator::exportTelemetry(StatsRegistry &Registry,
                                   const std::string &Prefix) const {
  Registry.counter(Prefix + "allocs") += Stats.Allocs;
  Registry.counter(Prefix + "frees") += Stats.Frees;
  Registry.counter(Prefix + "page_refills") += Stats.PageRefills;
  Registry.counter(Prefix + "bucket_bits") += Stats.BucketBits;
  raisePeak(Registry.gauge(Prefix + "heap_bytes"), heapBytes());
  raisePeak(Registry.gauge(Prefix + "max_heap_bytes"), maxHeapBytes());
  raisePeak(Registry.gauge(Prefix + "live_bytes"), liveBytes());
  raisePeak(Registry.gauge(Prefix + "free_blocks"), freeBlockCount());
}

void BsdAllocator::forEachFreeSpan(const SpanVisitor &Visit) const {
  for (size_t Bucket = 0; Bucket < Buckets.size(); ++Bucket)
    for (uint64_t Addr : Buckets[Bucket])
      Visit(Addr, uint64_t(1) << Bucket);
  for (size_t Bucket = 0; Bucket < Bitmaps.size(); ++Bucket)
    Bitmaps[Bucket].forEachFree(
        [&](uint64_t Addr) { Visit(Addr, uint64_t(1) << Bucket); });
}

void BsdAllocator::forEachLiveSpan(const SpanVisitor &Visit) const {
  // Unordered iteration is fine: span consumers aggregate into
  // order-independent sums, maxima, and bucket counts.
  Live.forEach([&](uint64_t Addr, uint32_t Payload) {
    Visit(Addr, uint64_t(1) << bucketFor(Payload));
  });
}
