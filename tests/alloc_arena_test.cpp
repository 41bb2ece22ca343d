//===- tests/alloc_arena_test.cpp - Arena allocator tests ------------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
// Exercises the paper's section 5.1 algorithm point by point: bump
// allocation, live counts, reset-only-when-empty, oversize and fallback
// paths, and address-range free classification.
//
//===----------------------------------------------------------------------===//

#include "alloc/ArenaAllocator.h"
#include "support/Random.h"

#include "gtest/gtest.h"

#include <vector>

using namespace lifepred;

namespace {

constexpr LifetimeClass Short = 0;
constexpr LifetimeClass Long = ArenaAllocator::GeneralBand;

template <typename VerdictT>
concept AllocatesWith = requires(ArenaAllocator &A, VerdictT Verdict) {
  A.allocate(uint32_t(8), Verdict);
};

// A prediction is a band, never a bool: `true` would silently become band 1
// and land in the general heap.
static_assert(AllocatesWith<LifetimeClass>);
static_assert(!AllocatesWith<bool>);

} // namespace

TEST(ArenaTest, DefaultGeometryMatchesPaper) {
  ArenaAllocator A;
  ASSERT_EQ(A.bands(), 1u);
  EXPECT_EQ(A.config().Bands[0].AreaBytes, 64u * 1024);
  EXPECT_EQ(A.config().Bands[0].ArenaCount, 16u);
  EXPECT_EQ(A.arenaBytes(), 4096u);
}

TEST(ArenaTest, PredictedShortGoesToArena) {
  ArenaAllocator A;
  uint64_t P = A.allocate(100, Short);
  EXPECT_GE(P, A.config().ArenaBase);
  EXPECT_LT(P, A.config().ArenaBase + 64 * 1024);
  EXPECT_EQ(A.counters().ArenaAllocs, 1u);
  EXPECT_EQ(A.arenaLiveCount(0, 0), 1u);
}

TEST(ArenaTest, PredictedLongGoesToGeneralHeap) {
  ArenaAllocator A;
  uint64_t P = A.allocate(100, Long);
  EXPECT_GE(P, A.config().General.BaseAddress);
  EXPECT_EQ(A.counters().UnpredictedAllocs, 1u);
  EXPECT_EQ(A.counters().ArenaAllocs, 0u);
}

TEST(ArenaTest, BumpAllocationIsContiguous) {
  ArenaAllocator A;
  uint64_t P1 = A.allocate(16, Short);
  uint64_t P2 = A.allocate(16, Short);
  uint64_t P3 = A.allocate(24, Short);
  EXPECT_EQ(P2, P1 + 16);
  EXPECT_EQ(P3, P2 + 16);
  // 24 is already 8-byte aligned: the next bump sits 24 bytes later.
  EXPECT_EQ(A.allocate(8, Short), P3 + 24);
}

TEST(ArenaTest, FreeDecrementsLiveCount) {
  ArenaAllocator A;
  uint64_t P1 = A.allocate(100, Short);
  uint64_t P2 = A.allocate(100, Short);
  EXPECT_EQ(A.arenaLiveCount(0, 0), 2u);
  A.free(P1);
  EXPECT_EQ(A.arenaLiveCount(0, 0), 1u);
  A.free(P2);
  EXPECT_EQ(A.arenaLiveCount(0, 0), 0u);
  EXPECT_EQ(A.counters().ArenaFrees, 2u);
}

TEST(ArenaTest, OversizeObjectFallsThroughToGeneral) {
  ArenaAllocator A;
  // 6144 > 4096: the GHOST case.
  uint64_t P = A.allocate(6144, Short);
  EXPECT_GE(P, A.config().General.BaseAddress);
  EXPECT_EQ(A.counters().OversizeAllocs, 1u);
  EXPECT_EQ(A.counters().ArenaAllocs, 0u);
}

TEST(ArenaTest, ExactArenaSizeObjectFits) {
  ArenaAllocator A;
  uint64_t P = A.allocate(4096, Short);
  EXPECT_LT(P, A.config().ArenaBase + 64 * 1024);
  EXPECT_EQ(A.counters().ArenaAllocs, 1u);
}

TEST(ArenaTest, FullArenaSwitchesToEmptyOne) {
  ArenaAllocator A;
  // Fill arena 0 with live objects.
  std::vector<uint64_t> Ptrs;
  for (int I = 0; I < 4096 / 64; ++I)
    Ptrs.push_back(A.allocate(64, Short));
  EXPECT_EQ(A.arenaLiveCount(0, 0), 64u);
  // The next allocation scans and lands in a different (empty) arena.
  uint64_t P = A.allocate(64, Short);
  EXPECT_GE(P, A.config().ArenaBase + A.arenaBytes());
  EXPECT_GT(A.counters().Resets, 0u);
}

TEST(ArenaTest, PinnedArenasForceFallback) {
  ArenaAllocator A;
  // Pin every arena with one live object, filling the rest of each.
  std::vector<uint64_t> Pins;
  for (unsigned Arena = 0; Arena < 16; ++Arena) {
    Pins.push_back(A.allocate(64, Short)); // One pin...
    for (int I = 0; I < 4096 / 64 - 1; ++I)
      A.free(A.allocate(64, Short)); // ...rest allocated and freed.
  }
  // All arenas full (alloc pointers at end) and none empty (count >= 1):
  // the allocator degenerates to the general heap — the CFRAC pollution.
  uint64_t P = A.allocate(64, Short);
  EXPECT_GE(P, A.config().General.BaseAddress);
  EXPECT_GT(A.counters().FallbackAllocs, 0u);

  // Unpin one arena: the next predicted allocation reuses it.
  A.free(Pins[3]);
  uint64_t Q = A.allocate(64, Short);
  EXPECT_EQ(Q, A.config().ArenaBase + 3 * A.arenaBytes());
}

TEST(ArenaTest, ResetReusesArenaFromItsBase) {
  ArenaAllocator A;
  std::vector<uint64_t> Ptrs;
  for (int I = 0; I < 64; ++I)
    Ptrs.push_back(A.allocate(64, Short));
  for (uint64_t P : Ptrs)
    A.free(P); // Arena 0 now empty but its alloc pointer is at the end.
  // Next allocation fails the bump, scans, and resets arena 0.
  uint64_t P = A.allocate(64, Short);
  EXPECT_EQ(P, A.config().ArenaBase);
}

TEST(ArenaTest, FreeClassifiesByAddressRange) {
  ArenaAllocator A;
  uint64_t ArenaPtr = A.allocate(64, Short);
  uint64_t GeneralPtr = A.allocate(64, Long);
  A.free(GeneralPtr);
  EXPECT_EQ(A.counters().GeneralFrees, 1u);
  A.free(ArenaPtr);
  EXPECT_EQ(A.counters().ArenaFrees, 1u);
}

TEST(ArenaTest, HeapBytesIncludeArenaArea) {
  ArenaAllocator A;
  EXPECT_EQ(A.heapBytes(), 64u * 1024);
  A.allocate(100, Long);
  EXPECT_EQ(A.heapBytes(), 64u * 1024 + 8192);
}

TEST(ArenaTest, LiveBytesSpanBothRegions) {
  ArenaAllocator A;
  uint64_t P1 = A.allocate(100, Short);
  uint64_t P2 = A.allocate(200, Long);
  EXPECT_EQ(A.liveBytes(), 300u);
  A.free(P1);
  A.free(P2);
  EXPECT_EQ(A.liveBytes(), 0u);
}

TEST(ArenaTest, CustomGeometry) {
  ArenaAllocator::Config Cfg;
  Cfg.Bands = {{32 * 1024, 4}};
  ArenaAllocator A(Cfg);
  EXPECT_EQ(A.arenaBytes(), 8192u);
  uint64_t P = A.allocate(5000, Short); // Fits the bigger arena.
  EXPECT_LT(P, Cfg.ArenaBase + 32 * 1024);
}

TEST(ArenaTest, ArenaBytesCounterTracksPayload) {
  ArenaAllocator A;
  A.allocate(100, Short);
  A.allocate(50, Short);
  A.allocate(70, Long);
  EXPECT_EQ(A.counters().ArenaBytes, 150u);
  EXPECT_EQ(A.counters().GeneralBytes, 70u);
}

TEST(ArenaTest, RandomChurnKeepsCountsConsistent) {
  ArenaAllocator A;
  Rng R(9);
  std::vector<uint64_t> Live;
  for (int I = 0; I < 30000; ++I) {
    if (Live.empty() || R.nextBool(0.52)) {
      Live.push_back(A.allocate(
          static_cast<uint32_t>(R.nextInRange(8, 256)),
          R.nextBool(0.8) ? Short : Long));
    } else {
      size_t Pick = R.nextBelow(Live.size());
      A.free(Live[Pick]);
      Live[Pick] = Live.back();
      Live.pop_back();
    }
  }
  // Invariant: total arena live counts equal live arena pointers.
  unsigned TotalCounts = 0;
  for (unsigned I = 0; I < 16; ++I)
    TotalCounts += A.arenaLiveCount(0, I);
  unsigned LiveArenaPtrs = 0;
  for (uint64_t P : Live)
    if (P >= A.config().ArenaBase &&
        P < A.config().ArenaBase + 64 * 1024)
      ++LiveArenaPtrs;
  EXPECT_EQ(TotalCounts, LiveArenaPtrs);
}

TEST(MultiArenaTest, SingleBandMatchesPaperAllocator) {
  // The default single band is the paper's allocator, seen per band.
  ArenaAllocator Multi;
  EXPECT_EQ(Multi.bands(), 1u);
  uint64_t P = Multi.allocate(100, 0);
  EXPECT_LT(P, uint64_t(1) << 30); // In the band area, not the heap.
  EXPECT_EQ(Multi.bandCounters(0).Allocs, 1u);
  Multi.free(P);
  EXPECT_EQ(Multi.bandCounters(0).Frees, 1u);
}

TEST(MultiArenaTest, BandsAreDisjointAddressRanges) {
  ArenaAllocator::Config Cfg;
  Cfg.Bands = {{8 * 1024, 2}, {16 * 1024, 4}};
  ArenaAllocator Multi(Cfg);
  uint64_t P0 = Multi.allocate(64, 0);
  uint64_t P1 = Multi.allocate(64, 1);
  EXPECT_LT(P0, P1);
  EXPECT_GE(P1 - P0, 8u * 1024 - 64);
  Multi.free(P0);
  Multi.free(P1);
  EXPECT_EQ(Multi.bandCounters(0).Frees, 1u);
  EXPECT_EQ(Multi.bandCounters(1).Frees, 1u);
}

TEST(MultiArenaTest, GeneralBandAndUnknownBandsUseHeap) {
  ArenaAllocator Multi;
  uint64_t P1 = Multi.allocate(64, ArenaAllocator::GeneralBand);
  uint64_t P2 = Multi.allocate(64, 7); // Out of range.
  EXPECT_GE(P1, uint64_t(1) << 40);
  EXPECT_GE(P2, uint64_t(1) << 40);
  EXPECT_EQ(Multi.counters().GeneralAllocs, 2u);
  Multi.free(P1);
  Multi.free(P2);
  EXPECT_EQ(Multi.liveBytes(), 0u);
}

TEST(MultiArenaTest, FullBandFallsBackAndRecovers) {
  ArenaAllocator::Config Cfg;
  Cfg.Bands = {{4 * 1024, 2}};
  ArenaAllocator Multi(Cfg);
  std::vector<uint64_t> Live;
  for (int I = 0; I < 4096 / 64; ++I)
    Live.push_back(Multi.allocate(64, 0)); // Fills both 2 KB arenas.
  uint64_t Overflow = Multi.allocate(64, 0);
  EXPECT_GE(Overflow, uint64_t(1) << 40);
  EXPECT_GT(Multi.bandCounters(0).Fallbacks, 0u);
  for (uint64_t P : Live)
    Multi.free(P);
  // Both arenas empty again: band allocation resumes.
  uint64_t Back = Multi.allocate(64, 0);
  EXPECT_LT(Back, uint64_t(1) << 30);
  EXPECT_GT(Multi.bandCounters(0).Resets, 0u);
  Multi.free(Back);
  Multi.free(Overflow);
}

TEST(MultiArenaTest, HeapBytesSumBandAreas) {
  ArenaAllocator::Config Cfg;
  Cfg.Bands = {{8 * 1024, 2}, {16 * 1024, 4}};
  ArenaAllocator Multi(Cfg);
  EXPECT_EQ(Multi.heapBytes(), 24u * 1024);
  Multi.allocate(64, ArenaAllocator::GeneralBand);
  EXPECT_EQ(Multi.heapBytes(), 24u * 1024 + 8192);
}
