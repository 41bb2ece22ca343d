//===- tests/runtime_test.cpp - In-process runtime tests -------------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/Instrument.h"
#include "runtime/PredictingHeap.h"
#include "runtime/RuntimeProfiler.h"
#include "runtime/StlAllocator.h"

#include "gtest/gtest.h"

#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace lifepred;

namespace {

/// An instrumented "application": a scratch allocator wrapping a profiler
/// or heap behind shadow-stack frames.
struct ScratchApp {
  RuntimeProfiler *Profiler = nullptr;
  PredictingHeap *Heap = nullptr;
  std::vector<void *> Temporaries;

  void *alloc(uint32_t Size) {
    if (Heap)
      return Heap->allocate(Size);
    // Profiling mode: hand out fake distinct pointers.
    auto *P = reinterpret_cast<void *>(NextFake += 64);
    Profiler->recordAlloc(P, Size);
    return P;
  }
  void release(void *P) {
    if (Heap)
      Heap->deallocate(P);
    else
      Profiler->recordFree(P);
  }

  // Short-lived temporaries: allocated and freed within the call.
  void makeTemporary() {
    LIFEPRED_NAMED_FUNCTION("makeTemporary");
    void *P = alloc(24);
    release(P);
  }

  // Long-lived nodes: retained until teardown.
  void makeNode() {
    LIFEPRED_NAMED_FUNCTION("makeNode");
    Temporaries.push_back(alloc(24));
  }

  void run(int Iterations) {
    LIFEPRED_NAMED_FUNCTION("run");
    for (int I = 0; I < Iterations; ++I) {
      makeTemporary();
      if (I % 50 == 0)
        makeNode();
    }
  }

  uintptr_t NextFake = 0x1000;
};

} // namespace

TEST(RuntimeProfilerTest, ClockAdvancesByBytes) {
  RuntimeProfiler P;
  P.recordAlloc(reinterpret_cast<void *>(0x10), 100);
  P.recordAlloc(reinterpret_cast<void *>(0x20), 50);
  EXPECT_EQ(P.clock(), 150u);
}

TEST(RuntimeProfilerTest, LifetimeMeasuredOnByteClock) {
  ShadowStack::current().clear();
  RuntimeProfiler P(SiteKeyPolicy::lastN(4));
  {
    ScopedFrame F(1);
    P.recordAlloc(reinterpret_cast<void *>(0x10), 10);
  }
  P.recordAlloc(reinterpret_cast<void *>(0x20), 500);
  P.recordFree(reinterpret_cast<void *>(0x10)); // Lived 500 bytes.
  Profile Prof = P.takeProfile();
  SiteKey Key = siteKey(SiteKeyPolicy::lastN(4), CallChain{1}, 10);
  ASSERT_TRUE(Prof.Sites.count(Key));
  EXPECT_EQ(Prof.Sites.at(Key).MaxLifetime, 500u);
}

TEST(RuntimeProfilerTest, UnknownFreeIgnored) {
  RuntimeProfiler P;
  P.recordFree(reinterpret_cast<void *>(0xdead)); // Must not crash.
  EXPECT_EQ(P.clock(), 0u);
}

TEST(RuntimeProfilerTest, LiveObjectsDieAtProfileEnd) {
  ShadowStack::current().clear();
  RuntimeProfiler P(SiteKeyPolicy::lastN(4));
  {
    ScopedFrame F(2);
    P.recordAlloc(reinterpret_cast<void *>(0x10), 10);
  }
  P.recordAlloc(reinterpret_cast<void *>(0x20), 100000);
  Profile Prof = P.takeProfile(); // 0x10 still live: lifetime 100000.
  SiteKey Key = siteKey(SiteKeyPolicy::lastN(4), CallChain{2}, 10);
  ASSERT_TRUE(Prof.Sites.count(Key));
  EXPECT_EQ(Prof.Sites.at(Key).MaxLifetime, 100000u);
}

TEST(RuntimeEndToEndTest, ProfileThenPredictSegregates) {
  ShadowStack::current().clear();

  // Training run: profile the instrumented app.
  RuntimeProfiler Profiler(SiteKeyPolicy::lastN(4));
  ScratchApp TrainApp;
  TrainApp.Profiler = &Profiler;
  TrainApp.run(2000);
  // Retained nodes die at exit (long-lived); temporaries are short-lived.
  SiteDatabase DB = Profiler.train();
  EXPECT_GE(DB.size(), 1u);

  // Optimized run: the same app on a predicting heap.
  PredictingHeap Heap(DB);
  ScratchApp TestApp;
  TestApp.Heap = &Heap;
  TestApp.run(2000);
  for (void *P : TestApp.Temporaries)
    Heap.deallocate(P);

  // The short-lived temporaries went to arenas, the retained nodes to the
  // general heap.
  EXPECT_GT(Heap.stats().ArenaAllocs, 1500u);
  EXPECT_GE(Heap.stats().GeneralAllocs, 30u);
}

TEST(PredictingHeapTest, ArenaPointersAreWritable) {
  SiteKeyPolicy Policy = SiteKeyPolicy::lastN(4);
  SiteDatabase DB(Policy, 32768);
  DB.insert(siteKey(Policy, CallChain{7}, 64));

  ShadowStack::current().clear();
  PredictingHeap Heap(DB);
  ScopedFrame F(7);
  void *P = Heap.allocate(64);
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(Heap.isArenaPointer(P));
  std::memset(P, 0xab, 64); // Real memory: must be writable.
  Heap.deallocate(P);
}

TEST(PredictingHeapTest, UnpredictedUsesOperatorNew) {
  SiteDatabase DB(SiteKeyPolicy::lastN(4), 32768); // Empty database.
  ShadowStack::current().clear();
  PredictingHeap Heap(DB);
  void *P = Heap.allocate(128);
  ASSERT_NE(P, nullptr);
  EXPECT_FALSE(Heap.isArenaPointer(P));
  std::memset(P, 0xcd, 128);
  Heap.deallocate(P);
  EXPECT_EQ(Heap.stats().GeneralAllocs, 1u);
}

TEST(PredictingHeapTest, ArenaRecyclesWhenEmpty) {
  SiteKeyPolicy Policy = SiteKeyPolicy::lastN(4);
  SiteDatabase DB(Policy, 32768);
  DB.insert(siteKey(Policy, CallChain{7}, 64));

  ShadowStack::current().clear();
  PredictingHeap::Config Cfg;
  Cfg.AreaBytes = 4096;
  Cfg.ArenaCount = 2;
  PredictingHeap Heap(DB, Cfg);
  ScopedFrame F(7);
  // Churn far more than the area holds: works because everything is freed.
  for (int I = 0; I < 1000; ++I) {
    void *P = Heap.allocate(64);
    ASSERT_TRUE(Heap.isArenaPointer(P));
    Heap.deallocate(P);
  }
  EXPECT_EQ(Heap.stats().ArenaAllocs, 1000u);
  EXPECT_EQ(Heap.stats().Fallbacks, 0u);
  EXPECT_GT(Heap.stats().Resets, 10u);
}

TEST(PredictingHeapTest, PinnedArenasFallBackToGeneral) {
  SiteKeyPolicy Policy = SiteKeyPolicy::lastN(4);
  SiteDatabase DB(Policy, 32768);
  DB.insert(siteKey(Policy, CallChain{7}, 64));

  ShadowStack::current().clear();
  PredictingHeap::Config Cfg;
  Cfg.AreaBytes = 2048;
  Cfg.ArenaCount = 2;
  PredictingHeap Heap(DB, Cfg);
  ScopedFrame F(7);
  // Keep everything alive: the arenas pin and the heap must fall back.
  std::vector<void *> Live;
  for (int I = 0; I < 100; ++I)
    Live.push_back(Heap.allocate(64));
  EXPECT_GT(Heap.stats().Fallbacks, 0u);
  EXPECT_GT(Heap.stats().GeneralAllocs, 0u);
  for (void *P : Live)
    Heap.deallocate(P);
}

TEST(PredictingHeapTest, OversizePredictedObjectGoesGeneral) {
  SiteKeyPolicy Policy = SiteKeyPolicy::lastN(4);
  SiteDatabase DB(Policy, 32768);
  DB.insert(siteKey(Policy, CallChain{7}, 6144));
  ShadowStack::current().clear();
  PredictingHeap Heap(DB); // 4 KB arenas: 6 KB cannot fit.
  ScopedFrame F(7);
  void *P = Heap.allocate(6144);
  EXPECT_FALSE(Heap.isArenaPointer(P));
  Heap.deallocate(P);
}

TEST(PredictingHeapTest, NullAndZeroSizeAreSafe) {
  SiteDatabase DB(SiteKeyPolicy::lastN(4), 32768);
  PredictingHeap Heap(DB);
  Heap.deallocate(nullptr); // No-op.
  void *P = Heap.allocate(0);
  EXPECT_NE(P, nullptr);
  Heap.deallocate(P);
}

TEST(PredictingHeapTest, BadGeometryThrowsInEveryBuild) {
  // Thrown, not asserted: a Release build must not divide by a zero
  // ArenaCount or shift by the log of a non-power-of-two arena size.
  SiteDatabase DB(SiteKeyPolicy::lastN(4), 32768);
  auto Geometry = [](size_t AreaBytes, unsigned ArenaCount,
                     size_t Alignment) {
    PredictingHeap::Config Cfg;
    Cfg.AreaBytes = AreaBytes;
    Cfg.ArenaCount = ArenaCount;
    Cfg.Alignment = Alignment;
    return Cfg;
  };
  auto Complaint = [&](PredictingHeap::Config Cfg) -> std::string {
    try {
      PredictingHeap Heap(DB, Cfg);
    } catch (const std::invalid_argument &E) {
      return E.what();
    }
    return "";
  };
  EXPECT_THROW(PredictingHeap Heap(DB, Geometry(65536, 0, 16)),
               std::invalid_argument);
  EXPECT_THROW(PredictingHeap Heap(DB, Geometry(65536, 3, 16)),
               std::invalid_argument);
  EXPECT_THROW(PredictingHeap Heap(DB, Geometry(65536, 16, 24)),
               std::invalid_argument);
  EXPECT_THROW(PredictingHeap Heap(DB, Geometry(65536, 16, 0)),
               std::invalid_argument);
  // 12 KB over two arenas divides evenly, but 6 KB is not a power of two.
  EXPECT_THROW(PredictingHeap Heap(DB, Geometry(12288, 2, 16)),
               std::invalid_argument);
  EXPECT_NO_THROW(PredictingHeap Heap(DB, Geometry(8192, 4, 8)));

  EXPECT_NE(Complaint(Geometry(65536, 0, 16)).find("ArenaCount"),
            std::string::npos);
  EXPECT_NE(Complaint(Geometry(65536, 16, 24)).find("Alignment"),
            std::string::npos);
  EXPECT_NE(Complaint(Geometry(12288, 2, 16)).find("arena size"),
            std::string::npos);
}

TEST(InstrumentTest, RuntimeFunctionIdsStable) {
  FunctionId A = runtimeFunctionId("fn_a");
  FunctionId B = runtimeFunctionId("fn_b");
  EXPECT_NE(A, B);
  EXPECT_EQ(runtimeFunctionId("fn_a"), A);
}

TEST(StlAllocatorTest, VectorUsesPredictingHeap) {
  SiteKeyPolicy Policy = SiteKeyPolicy::lastN(4);
  SiteDatabase DB(Policy, 32768);
  // Predict the small growth sizes short-lived.
  for (uint32_t Bytes = 4; Bytes <= 1024; Bytes += 4)
    DB.insert(siteKey(Policy, CallChain{42}, Bytes));

  ShadowStack::current().clear();
  PredictingHeap Heap(DB);
  uint64_t ArenaBefore = Heap.stats().ArenaAllocs;
  {
    ScopedFrame Frame(42);
    std::vector<int, StlAllocator<int>> V{StlAllocator<int>(Heap)};
    for (int I = 0; I < 100; ++I)
      V.push_back(I);
    for (int I = 0; I < 100; ++I)
      EXPECT_EQ(V[static_cast<size_t>(I)], I);
  }
  EXPECT_GT(Heap.stats().ArenaAllocs, ArenaBefore);
}

TEST(StlAllocatorTest, RebindSharesHeap) {
  SiteDatabase DB(SiteKeyPolicy::lastN(4), 32768);
  PredictingHeap Heap(DB);
  StlAllocator<int> IntAlloc(Heap);
  StlAllocator<double> DoubleAlloc(IntAlloc);
  EXPECT_EQ(DoubleAlloc.heap(), IntAlloc.heap());
  StlAllocator<int> Back(DoubleAlloc);
  EXPECT_TRUE(Back == IntAlloc);
}

TEST(PredictingHeapTest, ThreadSafeModeSurvivesConcurrentChurn) {
  SiteKeyPolicy Policy = SiteKeyPolicy::lastN(4);
  SiteDatabase DB(Policy, 32768);
  DB.insert(siteKey(Policy, CallChain{11}, 64));
  PredictingHeap::Config Cfg;
  Cfg.ThreadSafe = true;
  PredictingHeap Heap(DB, Cfg);

  auto Worker = [&Heap] {
    ShadowStack::current().clear();
    ScopedFrame Frame(11);
    for (int I = 0; I < 20000; ++I) {
      void *P = Heap.allocate(64);
      *static_cast<volatile char *>(P) = 1;
      Heap.deallocate(P);
    }
  };
  std::thread A(Worker), B(Worker), C(Worker);
  A.join();
  B.join();
  C.join();
  EXPECT_EQ(Heap.stats().ArenaAllocs + Heap.stats().GeneralAllocs, 60000u);
}

TEST(PredictingHeapTest, ArenaDoubleFreeAbortsInEveryBuild) {
  // Checked, not asserted: in a Release build a second free would wrap
  // the arena's live count, and that arena would never reset again.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  SiteKeyPolicy Policy = SiteKeyPolicy::lastN(4);
  SiteDatabase DB(Policy, 32768);
  DB.insert(siteKey(Policy, CallChain{7}, 64));

  ShadowStack::current().clear();
  PredictingHeap Heap(DB);
  ScopedFrame F(7);
  void *P = Heap.allocate(64);
  ASSERT_TRUE(Heap.isArenaPointer(P));
  Heap.deallocate(P);
  EXPECT_DEATH(Heap.deallocate(P), "arena double free");
}
