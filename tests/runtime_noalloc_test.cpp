//===- tests/runtime_noalloc_test.cpp - Allocation-free fast path ----------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
// The paper's predicted-short allocation costs a key lookup, a pointer bump
// and a counter increment.  This binary replaces the global operator
// new/delete with counting versions and checks that the real heap's arena
// path under lastN(4) never reaches them: building the site key, probing
// the database and bumping the arena must not allocate.  The same holds for
// the simulated heaps: once warm, a steady allocate/free churn on the
// Kingsley same-class path, the arena bump path and a band's bump path
// must not reach operator new either.
//
//===----------------------------------------------------------------------===//

#include "alloc/ArenaAllocator.h"
#include "alloc/BsdAllocator.h"
#include "callchain/ShadowStack.h"
#include "runtime/PredictingHeap.h"

#include "gtest/gtest.h"

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> GlobalNewCalls{0};
} // namespace

void *operator new(std::size_t Size) {
  GlobalNewCalls.fetch_add(1, std::memory_order_relaxed);
  if (void *Ptr = std::malloc(Size == 0 ? 1 : Size))
    return Ptr;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size) { return ::operator new(Size); }
void operator delete(void *Ptr) noexcept { std::free(Ptr); }
void operator delete[](void *Ptr) noexcept { std::free(Ptr); }
void operator delete(void *Ptr, std::size_t) noexcept { std::free(Ptr); }
void operator delete[](void *Ptr, std::size_t) noexcept { std::free(Ptr); }

using namespace lifepred;

namespace {

constexpr uint32_t ObjectSize = 48;

/// A lastN(4) database holding the site of an ObjectSize-byte allocation
/// from the current six-deep stack (so the key window is a strict suffix).
SiteDatabase pushStackAndTrain(bool PredictShort) {
  ShadowStack &Stack = ShadowStack::current();
  Stack.clear();
  for (FunctionId F = 1; F <= 6; ++F)
    Stack.push(F);
  SiteKeyPolicy Policy = SiteKeyPolicy::lastN(4);
  SiteDatabase DB(Policy, 32768);
  if (PredictShort)
    DB.insert(siteKey(Policy, Stack.capture(), ObjectSize));
  return DB;
}

/// Global operator new calls during \p Rounds bursts of 50 allocate /
/// deallocate pairs; fills \p AllArena.
uint64_t newCallsDuringBursts(PredictingHeap &Heap, unsigned Rounds,
                              bool &AllArena) {
  std::array<void *, 50> Burst{};
  AllArena = true;
  uint64_t Before = GlobalNewCalls.load(std::memory_order_relaxed);
  for (unsigned R = 0; R < Rounds; ++R) {
    for (void *&Ptr : Burst) {
      Ptr = Heap.allocate(ObjectSize);
      AllArena &= Heap.isArenaPointer(Ptr);
    }
    for (void *Ptr : Burst)
      Heap.deallocate(Ptr);
  }
  return GlobalNewCalls.load(std::memory_order_relaxed) - Before;
}

void expectArenaPathAllocationFree(bool ThreadSafe) {
  PredictingHeap::Config Cfg;
  Cfg.ThreadSafe = ThreadSafe;
  PredictingHeap Heap(pushStackAndTrain(/*PredictShort=*/true), Cfg);
  bool AllArena = false;
  uint64_t NewCalls = newCallsDuringBursts(Heap, 200, AllArena);
  ShadowStack::current().clear();
  EXPECT_EQ(NewCalls, 0u);
  EXPECT_TRUE(AllArena);
  EXPECT_EQ(Heap.stats().ArenaAllocs, 10000u);
  EXPECT_EQ(Heap.stats().GeneralAllocs, 0u);
}

} // namespace

TEST(RuntimeNoAllocTest, ArenaPathNeverCallsOperatorNew) {
  expectArenaPathAllocationFree(/*ThreadSafe=*/false);
}

TEST(RuntimeNoAllocTest, LockedArenaPathNeverCallsOperatorNew) {
  expectArenaPathAllocationFree(/*ThreadSafe=*/true);
}

TEST(RuntimeNoAllocTest, CounterSeesTheGeneralPath) {
  // The counting operator new is the one the heap reaches: an unpredicted
  // site goes to the general heap once per allocation.
  PredictingHeap Heap(pushStackAndTrain(/*PredictShort=*/false));
  bool AllArena = true;
  uint64_t NewCalls = newCallsDuringBursts(Heap, 2, AllArena);
  ShadowStack::current().clear();
  EXPECT_EQ(NewCalls, 100u);
  EXPECT_FALSE(AllArena);
}

namespace {

/// Global operator new calls during \p Rounds bursts of 50 allocate /
/// free pairs through \p Allocate and \p Heap.free, after one unmeasured
/// warm-up burst that sizes the heap's bookkeeping.
template <typename HeapT, typename AllocFn>
uint64_t simNewCallsAfterWarmup(HeapT &Heap, AllocFn Allocate,
                                unsigned Rounds) {
  std::array<uint64_t, 50> Burst{};
  auto RunBurst = [&] {
    for (uint64_t &Addr : Burst)
      Addr = Allocate(Heap);
    for (uint64_t Addr : Burst)
      Heap.free(Addr);
  };
  RunBurst();
  uint64_t Before = GlobalNewCalls.load(std::memory_order_relaxed);
  for (unsigned R = 0; R < Rounds; ++R)
    RunBurst();
  return GlobalNewCalls.load(std::memory_order_relaxed) - Before;
}

} // namespace

TEST(SimNoAllocTest, BsdSameClassChurnNeverCallsOperatorNew) {
  BsdAllocator Heap;
  uint64_t NewCalls = simNewCallsAfterWarmup(
      Heap, [](BsdAllocator &H) { return H.allocate(ObjectSize); }, 200);
  EXPECT_EQ(NewCalls, 0u);
  EXPECT_EQ(Heap.counters().Allocs, 201u * 50);
  EXPECT_EQ(Heap.counters().PageRefills, 1u);
}

TEST(SimNoAllocTest, ArenaBumpChurnNeverCallsOperatorNew) {
  ArenaAllocator Heap;
  uint64_t NewCalls = simNewCallsAfterWarmup(
      Heap,
      [](ArenaAllocator &H) {
        return H.allocate(ObjectSize, /*Band=*/0);
      },
      200);
  EXPECT_EQ(NewCalls, 0u);
  EXPECT_EQ(Heap.counters().ArenaAllocs, 201u * 50);
  EXPECT_EQ(Heap.counters().GeneralAllocs, 0u);
  EXPECT_GT(Heap.counters().Resets, 0u);
}

TEST(SimNoAllocTest, MultiArenaBandChurnNeverCallsOperatorNew) {
  ArenaAllocator::Config Config;
  Config.Bands = {{32 * 1024, 8}, {32 * 1024, 8}};
  ArenaAllocator Heap(Config);
  uint64_t NewCalls = simNewCallsAfterWarmup(
      Heap,
      [](ArenaAllocator &H) { return H.allocate(ObjectSize, 1); },
      200);
  EXPECT_EQ(NewCalls, 0u);
  EXPECT_EQ(Heap.bandCounters(1).Allocs, 201u * 50);
  EXPECT_EQ(Heap.bandCounters(1).Fallbacks, 0u);
  EXPECT_EQ(Heap.counters().GeneralAllocs, 0u);
}
