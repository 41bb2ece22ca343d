//===- tests/serve_test.cpp - Multi-tenant serving engine tests ------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
// Pins down the concurrent serving tier (alloc/ShardedHeap + sim/TenantMux):
// the CAS bitmap free list agrees with the serial BitmapFreeList and
// survives owner-pop/remote-push races; the MPSC remote-free channel
// delivers every node exactly once; the engine's value-class telemetry is
// byte-identical at any worker count; and a W=1 CAS run replayed op-for-op
// into a bitmap-mode BsdAllocator under ShadowBsd agrees address for
// address (the CAS shard is that allocator, made lock-free).
//
//===----------------------------------------------------------------------===//

#include "alloc/BsdAllocator.h"
#include "alloc/ShardedHeap.h"
#include "sim/TenantMux.h"
#include "support/AtomicBitmapFreeList.h"
#include "support/BitmapFreeList.h"
#include "support/ThreadPool.h"
#include "telemetry/StatsRegistry.h"
#include "verify/ShadowHeap.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace lifepred;

namespace {

uint64_t nextRand(uint64_t &State) {
  State = State * 6364136223846793005ull + 1442695040888963407ull;
  return State >> 33;
}

ServeConfig smallConfig() {
  ServeConfig Cfg;
  Cfg.Tenants = 12;
  Cfg.Workers = 2;
  Cfg.Shards = 4;
  Cfg.SliceEvents = 64;
  Cfg.TenantScale = 0.01;
  Cfg.Program = "CFRAC";
  return Cfg;
}

} // namespace

//===----------------------------------------------------------------------===//
// AtomicBitmapFreeList
//===----------------------------------------------------------------------===//

TEST(AtomicBitmapTest, SerialPopOrderMatchesBitmapFreeList) {
  // Single-threaded, the CAS list must be indistinguishable from the
  // serial BitmapFreeList: same lowest-free-address pops, same counts,
  // through an arbitrary interleaving of pops, pushes, and refills.
  constexpr uint64_t BlockBytes = 64;
  constexpr uint64_t BlocksPerExtent = 32;
  constexpr uint64_t Base = uint64_t(1) << 30;
  BitmapFreeList Serial;
  AtomicBitmapFreeList Atomic;
  Serial.configure(BlockBytes, BlocksPerExtent);
  Atomic.configure(BlockBytes, BlocksPerExtent, /*MaxExtents=*/16);

  uint64_t Retries = 0;
  uint64_t Rng = 0x1993;
  std::vector<uint64_t> Live;
  unsigned Extents = 0;
  for (int Op = 0; Op < 4000; ++Op) {
    unsigned Kind = nextRand(Rng) % 3;
    if (Kind != 0 || Live.empty()) {
      if (Serial.empty()) {
        if (Extents == 16)
          continue;
        uint64_t ExtentBase = Base + Extents * BlockBytes * BlocksPerExtent;
        ++Extents;
        Serial.addExtent(ExtentBase);
        Atomic.addExtent(ExtentBase);
      }
      uint64_t A = Serial.pop();
      uint64_t B = Atomic.pop(Retries);
      ASSERT_EQ(A, B) << "pop order diverged at op " << Op;
      Live.push_back(A);
    } else {
      size_t Pick = nextRand(Rng) % Live.size();
      uint64_t Addr = Live[Pick];
      Live[Pick] = Live.back();
      Live.pop_back();
      Serial.push(Addr);
      Atomic.push(Addr);
    }
    ASSERT_EQ(Serial.freeCount(), Atomic.freeCount());
  }
  EXPECT_EQ(Retries, 0u) << "no contention in a single-threaded run";
}

TEST(AtomicBitmapTest, ConcurrentRemotePushesAreExactlyOnce) {
  // One owner popping as fast as it can while remote threads push blocks
  // back: every popped address must be unique among live blocks, and the
  // books must balance exactly at the end.
  constexpr uint64_t BlockBytes = 64;
  constexpr uint64_t Blocks = 1024;
  constexpr uint64_t Base = uint64_t(1) << 30;
  constexpr unsigned Pushers = 3;
  constexpr int RoundTrips = 20000;

  AtomicBitmapFreeList List;
  List.configure(BlockBytes, Blocks, /*MaxExtents=*/1);
  List.addExtent(Base);

  // Owner pops addresses and hands them round-robin to pusher inboxes;
  // pushers free them back.  Spsc inboxes via atomic slots.
  struct Inbox {
    std::atomic<uint64_t> Slot{0};
  };
  std::vector<Inbox> Inboxes(Pushers);
  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Pushed{0};

  std::vector<std::thread> Threads;
  for (unsigned P = 0; P < Pushers; ++P)
    Threads.emplace_back([&, P] {
      while (!Done.load(std::memory_order_acquire)) {
        uint64_t Addr = Inboxes[P].Slot.exchange(0, std::memory_order_acquire);
        if (Addr) {
          List.push(Addr);
          Pushed.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
      uint64_t Addr = Inboxes[P].Slot.exchange(0, std::memory_order_acquire);
      if (Addr) {
        List.push(Addr);
        Pushed.fetch_add(1, std::memory_order_relaxed);
      }
    });

  uint64_t Retries = 0;
  uint64_t Popped = 0;
  std::set<uint64_t> OwnerLive;
  for (int I = 0; I < RoundTrips;) {
    if (List.empty()) {
      std::this_thread::yield();
      continue;
    }
    uint64_t Addr = List.pop(Retries);
    ASSERT_GE(Addr, Base);
    ASSERT_LT(Addr, Base + Blocks * BlockBytes);
    ASSERT_EQ((Addr - Base) % BlockBytes, 0u);
    ++Popped;
    // Hand to a pusher; if its slot is full, free locally instead.
    unsigned P = static_cast<unsigned>(Popped % Pushers);
    uint64_t Expected = 0;
    if (Inboxes[P].Slot.compare_exchange_strong(Expected, Addr,
                                                std::memory_order_release))
      ++I;
    else
      List.push(Addr);
  }
  Done.store(true, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();

  // Every block is back on the free list; none was lost or duplicated.
  EXPECT_EQ(List.freeCount(), Blocks);
  uint64_t Seen = 0;
  List.forEachFree([&](uint64_t) { ++Seen; });
  EXPECT_EQ(Seen, Blocks);
}

//===----------------------------------------------------------------------===//
// RemoteFreeChannel
//===----------------------------------------------------------------------===//

TEST(RemoteFreeChannelTest, MpscDeliversDisjointSetsExactlyOnce) {
  // Several producers push disjoint address ranges while one consumer
  // drains repeatedly; the union of all drains must be exactly the union
  // of what was pushed, each node exactly once.
  constexpr unsigned Producers = 4;
  constexpr uint64_t PerProducer = 5000;

  RemoteFreeChannel Channel;
  std::vector<std::vector<RemoteFreeNode>> Nodes(Producers);
  for (unsigned P = 0; P < Producers; ++P)
    Nodes[P].resize(PerProducer);

  std::atomic<unsigned> Started{0};
  std::vector<std::thread> Threads;
  for (unsigned P = 0; P < Producers; ++P)
    Threads.emplace_back([&, P] {
      ++Started;
      while (Started.load() < Producers)
        std::this_thread::yield();
      for (uint64_t I = 0; I < PerProducer; ++I) {
        RemoteFreeNode *Node = &Nodes[P][I];
        Node->Addr = (uint64_t(P) << 32) | I;
        Node->Size = 64;
        Channel.push(Node);
      }
    });

  std::set<uint64_t> Seen;
  uint64_t Drained = 0;
  while (Drained < Producers * PerProducer) {
    RemoteFreeNode *Head = Channel.drain();
    for (RemoteFreeNode *Node = Head; Node; Node = Node->Next) {
      ASSERT_TRUE(Seen.insert(Node->Addr).second)
          << "node drained twice: " << Node->Addr;
      ++Drained;
    }
    std::this_thread::yield();
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Seen.size(), Producers * PerProducer);
  EXPECT_EQ(Channel.drain(), nullptr);
}

//===----------------------------------------------------------------------===//
// Serving engine: determinism and conformance
//===----------------------------------------------------------------------===//

TEST(ServeEngineTest, RegistryExportIsByteIdenticalAtAnyWorkerCount) {
  // The headline jobs-invariance promise: one TenantSet replayed in
  // channel mode at 1, 2, and 8 workers exports byte-identical registry
  // JSON — every heap gauge, fragmentation sample, and per-tenant counter.
  ThreadPool Pool(2);
  TenantSet Tenants(smallConfig(), Pool);

  auto ExportAt = [&](unsigned Workers) {
    Tenants.resetReplayState();
    StatsRegistry Registry;
    ServeRunOptions Run;
    Run.Family = ServeFamily::Cas;
    Run.Remote = RemoteFreeMode::Channel;
    Run.Workers = Workers;
    Run.Registry = &Registry;
    Run.Prefix = "serve.";
    Run.ExportTenants = true;
    runServe(Tenants, Run);
    std::string Json;
    Registry.writeJson(Json, "  ");
    return Json;
  };

  std::string At1 = ExportAt(1);
  std::string At2 = ExportAt(2);
  std::string At8 = ExportAt(8);
  EXPECT_FALSE(At1.empty());
  EXPECT_EQ(At1, At2);
  EXPECT_EQ(At1, At8);
}

TEST(ServeEngineTest, RunToRunReplayIsDeterministic) {
  // Same set, same options, two runs: identical results and identical
  // per-tenant stream stats.
  ThreadPool Pool(2);
  TenantSet Tenants(smallConfig(), Pool);

  ServeRunOptions Run;
  Run.Family = ServeFamily::Bsd;
  Run.Remote = RemoteFreeMode::Channel;
  ServeResult First = runServe(Tenants, Run);
  std::vector<TenantServeStats> FirstStats;
  for (unsigned T = 0; T < Tenants.tenantCount(); ++T)
    FirstStats.push_back(Tenants.tenantStats(T));

  Tenants.resetReplayState();
  ServeResult Second = runServe(Tenants, Run);
  EXPECT_EQ(First.Events, Second.Events);
  EXPECT_EQ(First.HeapBytes, Second.HeapBytes);
  EXPECT_EQ(First.RemoteFrees, Second.RemoteFrees);
  for (unsigned T = 0; T < Tenants.tenantCount(); ++T) {
    const TenantServeStats &S = Tenants.tenantStats(T);
    EXPECT_EQ(FirstStats[T].Allocs, S.Allocs);
    EXPECT_EQ(FirstStats[T].Frees, S.Frees);
    EXPECT_EQ(FirstStats[T].AllocBytes, S.AllocBytes);
    EXPECT_EQ(FirstStats[T].RemoteFrees, S.RemoteFrees);
    EXPECT_EQ(FirstStats[T].PeakLiveBytes, S.PeakLiveBytes);
  }
}

TEST(ServeEngineTest, TenantSumsMatchAggregateAndCrossShardTrafficExists) {
  ThreadPool Pool(2);
  TenantSet Tenants(smallConfig(), Pool);

  ServeRunOptions Run;
  Run.Family = ServeFamily::FirstFit;
  ServeResult Result = runServe(Tenants, Run);

  uint64_t Allocs = 0, Frees = 0, Remote = 0;
  for (unsigned T = 0; T < Tenants.tenantCount(); ++T) {
    const TenantServeStats &S = Tenants.tenantStats(T);
    Allocs += S.Allocs;
    Frees += S.Frees;
    Remote += S.RemoteFrees;
  }
  EXPECT_EQ(Result.AllocEvents, Allocs);
  EXPECT_EQ(Result.FreeEvents, Frees);
  EXPECT_EQ(Result.Events, Allocs + Frees);
  EXPECT_EQ(Result.Events, Tenants.totalEvents());
  EXPECT_EQ(Result.RemoteFrees, Remote);
  // Tenant migration guarantees cross-shard frees; a zero here means the
  // shard-routing scheme silently collapsed to affinity.
  EXPECT_GT(Result.RemoteFrees, 0u);
  EXPECT_GT(Result.Contention.RemoteFreePushes, 0u);
  // Every shard saw work.
  EXPECT_GT(Result.ShardEventsMin, 0u);
  EXPECT_GE(Result.ShardEventsMax, Result.ShardEventsMin);
}

TEST(ServeEngineTest, WorkerLocalCountersAreMergedAtAnyWorkerCount) {
  // Workers count pushes and shard events in private locals and publish
  // them once per round or once per run.  In channel mode each remote free
  // is exactly one push, and per-shard event counts depend only on the
  // schedules, so a body that drops or overwrites its locals shows here.
  ThreadPool Pool(2);
  TenantSet Tenants(smallConfig(), Pool);
  const unsigned Shards = Tenants.config().Shards;

  for (ServeFamily Family : {ServeFamily::FirstFit, ServeFamily::Bsd,
                             ServeFamily::Cas, ServeFamily::Arena}) {
    std::vector<ServeResult> Results;
    for (unsigned Workers : {1u, 2u, 4u}) {
      Tenants.resetReplayState();
      ServeRunOptions Run;
      Run.Family = Family;
      Run.Remote = RemoteFreeMode::Channel;
      Run.Workers = Workers;
      Results.push_back(runServe(Tenants, Run));
      const ServeResult &R = Results.back();
      SCOPED_TRACE("family " + std::to_string(int(Family)) + ", " +
                   std::to_string(Workers) + " workers");
      EXPECT_GT(R.RemoteFrees, 0u);
      EXPECT_EQ(R.Contention.RemoteFreePushes, R.RemoteFrees);
      // The busiest shard handled at least its share of the events.
      EXPECT_GE(R.ShardEventsMax * Shards, R.Events);
    }
    for (const ServeResult &R : Results) {
      EXPECT_EQ(R.ShardEventsMax, Results[0].ShardEventsMax);
      EXPECT_EQ(R.ShardEventsMin, Results[0].ShardEventsMin);
    }
  }
}

TEST(ServeEngineTest, EagerTotalsMatchChannelTotals) {
  // Eager remote frees change placement, never the event stream: stream-
  // derived totals must agree with channel mode exactly.
  ThreadPool Pool(2);
  TenantSet Tenants(smallConfig(), Pool);

  ServeRunOptions Run;
  Run.Family = ServeFamily::Cas;
  Run.Remote = RemoteFreeMode::Channel;
  ServeResult Channel = runServe(Tenants, Run);

  Tenants.resetReplayState();
  Run.Remote = RemoteFreeMode::Eager;
  ServeResult Eager = runServe(Tenants, Run);

  EXPECT_EQ(Eager.Events, Channel.Events);
  EXPECT_EQ(Eager.AllocEvents, Channel.AllocEvents);
  EXPECT_EQ(Eager.FreeEvents, Channel.FreeEvents);
  EXPECT_EQ(Eager.RemoteFrees, Channel.RemoteFrees);
  EXPECT_EQ(Eager.Rounds, Channel.Rounds);
  EXPECT_EQ(Eager.ShardEventsMax, Channel.ShardEventsMax);
  EXPECT_EQ(Eager.ShardEventsMin, Channel.ShardEventsMin);
  // Eager mode routes nothing through the channels.
  EXPECT_EQ(Eager.Contention.RemoteFreePushes, 0u);
  EXPECT_EQ(Eager.Contention.MaxDrainDepth, 0u);
}

TEST(ServeEngineTest, CasShardConformsToShadowBsdPerShard) {
  // The conformance anchor: a W=1 channel-mode CAS run logs every shard's
  // operations in application order; replaying each log into a fresh
  // bitmap-mode BsdAllocator under ShadowBsd must reproduce the addresses
  // exactly.  The CAS shard *is* the bitmap-mode Kingsley allocator with
  // atomic free lists — same refill geometry, same lowest-address policy.
  ServeConfig Cfg = smallConfig();
  ThreadPool Pool(1);
  TenantSet Tenants(Cfg, Pool);

  std::vector<std::vector<ServeOpLogEntry>> OpLog;
  ServeRunOptions Run;
  Run.Family = ServeFamily::Cas;
  Run.Remote = RemoteFreeMode::Channel;
  Run.Workers = 1;
  Run.OpLog = &OpLog;
  runServe(Tenants, Run);

  ASSERT_EQ(OpLog.size(), Cfg.Shards);
  SharedBackingStore::Config Backing;
  uint64_t TotalOps = 0;
  for (unsigned S = 0; S < Cfg.Shards; ++S) {
    BsdAllocator::Config Reference;
    Reference.BaseAddress = Backing.BaseAddress + S * Backing.LaneBytes;
    Reference.FreeList = BsdAllocator::FreeListKind::Bitmap;
    BsdAllocator Bsd(Reference);
    ViolationLog Log;
    ShadowBsd Shadow(Bsd, Log);
    for (const ServeOpLogEntry &Op : OpLog[S]) {
      if (Op.IsAlloc) {
        uint64_t Addr = Bsd.allocate(Op.Size);
        ASSERT_EQ(Addr, Op.Addr) << "shard " << S << " placement diverged";
        Shadow.onAlloc(Op.Size, Addr);
      } else {
        Bsd.free(Op.Addr);
        Shadow.onFree(Op.Addr);
      }
      ++TotalOps;
    }
    Shadow.finish();
    EXPECT_TRUE(Log.clean()) << "shard " << S << ": " << Log.total()
                             << " shadow violations";
  }
  EXPECT_GT(TotalOps, 0u);
}

TEST(ServeEngineTest, UnknownProgramThrows) {
  ServeConfig Cfg = smallConfig();
  Cfg.Program = "NO_SUCH_WORKLOAD";
  ThreadPool Pool(1);
  EXPECT_THROW(TenantSet(Cfg, Pool), std::runtime_error);
}

TEST(ServeEngineTest, HeterogeneousMixRoundRobinsPrograms) {
  ServeConfig Cfg = smallConfig();
  Cfg.Program.clear(); // round-robin over allPrograms()
  Cfg.Tenants = 6;
  ThreadPool Pool(2);
  TenantSet Tenants(Cfg, Pool);
  // At least two distinct workload models in the mix.
  std::set<std::string> Programs;
  for (unsigned T = 0; T < Tenants.tenantCount(); ++T)
    Programs.insert(Tenants.tenantProgram(T));
  EXPECT_GE(Programs.size(), 2u);

  ServeRunOptions Run;
  Run.Family = ServeFamily::Arena;
  ServeResult Result = runServe(Tenants, Run);
  EXPECT_EQ(Result.Events, Tenants.totalEvents());
}

TEST(ServeEngineTest, PredictionPathCountsPredictedShort) {
  ServeConfig Cfg = smallConfig();
  Cfg.Tenants = 4;
  Cfg.NeedPrediction = true;
  ThreadPool Pool(2);
  TenantSet Tenants(Cfg, Pool);

  ServeRunOptions Run;
  Run.Family = ServeFamily::Arena;
  runServe(Tenants, Run);
  uint64_t PredictedShort = 0;
  for (unsigned T = 0; T < Tenants.tenantCount(); ++T)
    PredictedShort += Tenants.tenantStats(T).PredictedShort;
  // CFRAC is dominated by short-lived objects; a trained predictor that
  // never fires would be a wiring bug.
  EXPECT_GT(PredictedShort, 0u);
}
