//===- sim/TenantMux.cpp - Multi-tenant serving trace multiplexer ----------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/TenantMux.h"

#include "core/Profiler.h"
#include "core/Trainer.h"
#include "sim/CompiledPrediction.h"
#include "sim/SimTelemetry.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include "telemetry/FragmentationProbe.h"
#include "telemetry/LatencyRecorder.h"
#include "telemetry/StatsRegistry.h"
#include "trace/CompiledTrace.h"
#include "workloads/Programs.h"
#include "workloads/WorkloadRunner.h"

#include <algorithm>
#include <barrier>
#include <cassert>
#include <cstdio>
#include <stdexcept>

using namespace lifepred;

//===----------------------------------------------------------------------===//
// TenantSession / TenantSet
//===----------------------------------------------------------------------===//

namespace lifepred {

/// One tenant: its compiled event schedule, per-record sizes and
/// prediction bits, and the replay-mutable state (cursor, object table,
/// stream stats).  The generating traces are discarded after construction
/// — at serving scale the schedules are what must stay resident, not the
/// traces.
struct TenantSession {
  std::string Program;
  EventSchedule Schedule;
  std::vector<uint32_t> Sizes; ///< Payload size per record id.
  PredictedShortBits Predicted;
  bool HasPrediction = false;

  /// Where record id currently lives: the address the shard heap returned
  /// and the home shard at alloc time (the free needs both).
  struct ObjectSlot {
    uint64_t Addr = 0;
    uint32_t Shard = 0;
  };
  std::vector<ObjectSlot> Table;
  size_t NextEvent = 0;
  TenantServeStats Stats;
};

} // namespace lifepred

TenantSet::TenantSet(const ServeConfig &Config, ThreadPool &Pool)
    : Cfg(Config) {
  if (Cfg.Tenants < 1)
    Cfg.Tenants = 1;
  if (Cfg.Workers < 1)
    Cfg.Workers = 1;
  if (Cfg.Shards < 1)
    Cfg.Shards = 1;
  if (Cfg.SliceEvents < 1)
    Cfg.SliceEvents = 1;

  std::vector<ProgramModel> Programs = allPrograms();
  std::vector<const ProgramModel *> Pick(Cfg.Tenants);
  if (!Cfg.Program.empty()) {
    const ProgramModel *Found = nullptr;
    for (const ProgramModel &Model : Programs)
      if (Model.Name == Cfg.Program)
        Found = &Model;
    if (!Found)
      throw std::runtime_error("unknown serving program: " + Cfg.Program);
    for (unsigned Tenant = 0; Tenant < Cfg.Tenants; ++Tenant)
      Pick[Tenant] = Found;
  } else {
    for (unsigned Tenant = 0; Tenant < Cfg.Tenants; ++Tenant)
      Pick[Tenant] = &Programs[Tenant % Programs.size()];
  }

  SiteKeyPolicy KeyPolicy = SiteKeyPolicy::completeChain();
  Sessions.resize(Cfg.Tenants);
  parallelForIndex(Pool, Cfg.Tenants, [&](size_t Tenant) {
    auto Session = std::make_unique<TenantSession>();
    Session->Program = Pick[Tenant]->Name;

    // Deterministic per-tenant RNG stream: a splitmix64 step over the run
    // seed offset by the tenant index, so tenant t's traces are identical
    // across runs, worker counts, and tenant-population sizes >= t.
    uint64_t State =
        Cfg.Seed + 0x9e3779b97f4a7c15ull * (uint64_t(Tenant) + 1);
    uint64_t TenantSeed = splitMix64(State);

    FunctionRegistry Registry; ///< Per-tenant site universe.
    RunOptions Run;
    Run.Scale = Cfg.TenantScale;
    Run.Seed = TenantSeed;

    AllocationTrace Train;
    if (Cfg.NeedPrediction) {
      Run.Kind = RunKind::Train;
      Train = runWorkload(*Pick[Tenant], Run, Registry);
    }
    Run.Kind = RunKind::Test;
    AllocationTrace Test = runWorkload(*Pick[Tenant], Run, Registry);

    Session->Sizes.reserve(Test.size());
    for (const AllocRecord &Record : Test.records())
      Session->Sizes.push_back(Record.Size);
    Session->Table.resize(Test.size());

    if (Cfg.NeedPrediction) {
      Profile TrainProfile = profileTrace(Train, KeyPolicy);
      SiteDatabase Database = trainDatabase(TrainProfile, KeyPolicy);
      CompiledTrace Compiled(Test, KeyPolicy);
      Session->Predicted = PredictedShortBits(Compiled, Database);
      Session->HasPrediction = true;
      Session->Schedule = Compiled.schedule();
    } else {
      Session->Schedule = EventSchedule(Test);
    }
    Sessions[Tenant] = std::move(Session);
  });

  uint64_t MaxEvents = 0;
  for (const std::unique_ptr<TenantSession> &Session : Sessions) {
    TotalEvents += Session->Schedule.size();
    MaxEvents = std::max<uint64_t>(MaxEvents, Session->Schedule.size());
  }
  Rounds = (MaxEvents + Cfg.SliceEvents - 1) / Cfg.SliceEvents;
}

TenantSet::~TenantSet() = default;

void TenantSet::resetReplayState() {
  for (std::unique_ptr<TenantSession> &Session : Sessions) {
    Session->NextEvent = 0;
    Session->Stats = TenantServeStats();
  }
}

const TenantServeStats &TenantSet::tenantStats(unsigned Tenant) const {
  return Sessions[Tenant]->Stats;
}

const std::string &TenantSet::tenantProgram(unsigned Tenant) const {
  return Sessions[Tenant]->Program;
}

//===----------------------------------------------------------------------===//
// Serving replay core
//===----------------------------------------------------------------------===//

namespace {

// Each buffer holds its section name, the widest unsigned (10 digits), the
// trailing dot and the NUL, so no index is ever cut short.
std::string shardPrefix(const std::string &Prefix, unsigned Shard) {
  char Buffer[24];
  std::snprintf(Buffer, sizeof(Buffer), "shard.%02u.", Shard);
  return Prefix + Buffer;
}

std::string tenantPrefix(const std::string &Prefix, unsigned Tenant) {
  char Buffer[24];
  std::snprintf(Buffer, sizeof(Buffer), "tenant.%04u.", Tenant);
  return Prefix + Buffer;
}

/// End-of-run per-shard fragmentation sample.  The AllocatorSim-backed
/// families reuse the shared span walk (SimTelemetry); the CAS family
/// samples its bitmap populations in bulk.
template <typename SetT>
void sampleShardSpans(const SetT &Set, unsigned Shard, uint64_t Clock,
                      FragmentationProbe &Probe) {
  probeHeapSpans(Set.shardSim(Shard), Clock, &Probe, nullptr);
}

void sampleShardSpans(const CasShardSet &Set, unsigned Shard, uint64_t Clock,
                      FragmentationProbe &Probe) {
  Set.shard(Shard).sampleFragmentation(Clock, Probe);
}

/// The templated replay core: one instantiation per shard-set family, so
/// the per-event dispatch is a direct call into the family's allocate/free.
template <typename SetT>
ServeResult runServeImpl(TenantSet &TS, SetT &Set,
                         const ServeRunOptions &Opt) {
  const ServeConfig &Cfg = TS.config();
  const unsigned TenantCount = TS.tenantCount();
  const unsigned ShardCount = Cfg.Shards;
  const unsigned Workers = Opt.Workers ? Opt.Workers : Cfg.Workers;
  const unsigned Slice = Cfg.SliceEvents;
  const uint64_t Rounds = TS.rounds();
  const bool Eager = Opt.Remote == RemoteFreeMode::Eager;

  assert((!Eager || SetT::SupportsEagerRemoteFree) &&
         "eager remote frees need the CAS family");
  assert((!Opt.Registry || !Eager) &&
         "instrumented runs must use channel mode (determinism)");
  assert((!Opt.OpLog || (Workers == 1 && !Eager)) &&
         "op logs need one worker and channel mode");

  if (Opt.OpLog) {
    Opt.OpLog->clear();
    Opt.OpLog->resize(ShardCount);
  }

  // Per-shard channels, and per-shard event/drain counters written only
  // by the shard's owner — single-writer, hence race-free and, in channel
  // mode, deterministic.  Every write the replay makes per event goes to
  // worker-private state (the body's locals) or to a line-aligned,
  // owner-only cell (shard heaps, lanes, channel heads): these shared
  // vectors pack several shards or workers into one cache line, so they
  // are written once per shard per round, or once per run.
  std::vector<RemoteFreeChannel> Channels(ShardCount);
  std::vector<ContentionCounters> Contention(Workers);
  std::vector<uint64_t> ShardEvents(ShardCount, 0);
  std::vector<uint64_t> ShardDrained(ShardCount, 0);
  std::vector<uint64_t> ShardMaxDrain(ShardCount, 0);
  std::vector<std::unique_ptr<LatencyRecorder>> Latency(ShardCount);
  if (Opt.CollectLatency)
    for (unsigned Shard = 0; Shard < ShardCount; ++Shard)
      Latency[Shard] = std::make_unique<LatencyRecorder>();

  std::barrier<> RoundBarrier(Workers);

  auto WorkerBody = [&](size_t Worker) {
    // The node pool outlives every node it hands out: the body returns
    // only after its last post-drain barrier.
    RemoteNodePool NodePool;
    ContentionCounters Counters;
    std::vector<RemoteFreeNode *> Scratch;

    for (uint64_t Round = 0; Round < Rounds; ++Round) {
      // Slice phase: replay this round's slice of every tenant homed on a
      // shard this worker owns, in ascending shard then tenant order.
      for (unsigned Shard = Worker; Shard < ShardCount; Shard += Workers) {
        LatencyRecorder *Lat = Latency[Shard].get();
        uint64_t Events = 0;
        unsigned FirstTenant =
            (Shard + ShardCount - unsigned(Round % ShardCount)) % ShardCount;
        for (unsigned Tenant = FirstTenant; Tenant < TenantCount;
             Tenant += ShardCount) {
          TenantSession &Session = TS.session(Tenant);
          const uint32_t *Ids = Session.Schedule.taggedIds();
          size_t End = std::min(Session.NextEvent + Slice,
                                Session.Schedule.size());
          for (; Session.NextEvent < End; ++Session.NextEvent) {
            uint32_t Tagged = Ids[Session.NextEvent];
            uint32_t Id = Tagged & ~EventSchedule::FreeBit;
            uint32_t Size = Session.Sizes[Id];
            if (Tagged & EventSchedule::FreeBit) {
              TenantSession::ObjectSlot Object = Session.Table[Id];
              ++Session.Stats.Frees;
              Session.Stats.LiveBytes -= Size;
              if (Object.Shard == Shard) {
                timedAllocatorOp(Lat, LatencyRecorder::OpFree, [&] {
                  Set.freeLocal(Shard, Object.Addr, Size);
                });
                if (Opt.OpLog)
                  (*Opt.OpLog)[Shard].push_back({Object.Addr, Size, false});
              } else {
                ++Session.Stats.RemoteFrees;
                if constexpr (SetT::SupportsEagerRemoteFree) {
                  if (Eager) {
                    timedAllocatorOp(Lat, LatencyRecorder::OpFree, [&] {
                      Set.freeRemoteEager(Object.Shard, Object.Addr, Size);
                    });
                    ++Events;
                    continue;
                  }
                }
                RemoteFreeNode *Node = NodePool.acquire();
                Node->Addr = Object.Addr;
                Node->Size = Size;
                ++Counters.RemoteFreePushes;
                Counters.ChannelCasRetries +=
                    timedAllocatorOp(Lat, LatencyRecorder::OpFree, [&] {
                      return Channels[Object.Shard].push(Node);
                    });
              }
            } else {
              bool Predicted =
                  Session.HasPrediction && Session.Predicted.test(Id);
              Session.Stats.PredictedShort += Predicted;
              uint64_t Addr =
                  timedAllocatorOp(Lat, LatencyRecorder::OpAlloc, [&] {
                    return Set.allocate(Shard, Size, Predicted,
                                        Counters.BitmapCasRetries);
                  });
              Session.Table[Id] = {Addr, Shard};
              ++Session.Stats.Allocs;
              Session.Stats.AllocBytes += Size;
              Session.Stats.LiveBytes += Size;
              raisePeak(Session.Stats.PeakLiveBytes,
                        Session.Stats.LiveBytes);
              if (Opt.OpLog)
                (*Opt.OpLog)[Shard].push_back({Addr, Size, true});
            }
            ++Events;
          }
        }
        ShardEvents[Shard] += Events;
      }

      if (Eager) {
        // No channels to drain; one barrier hands tenant state to the
        // next round's owners.
        RoundBarrier.arrive_and_wait();
        continue;
      }

      // Barrier A: every push of the round has happened.
      RoundBarrier.arrive_and_wait();

      // Drain phase: apply this round's remote frees to owned shards,
      // sorted by address.  Live addresses are unique, so the sorted
      // order — unlike the channel's arrival order — is a pure function
      // of the round's free set: deterministic at any worker count.
      for (unsigned Shard = Worker; Shard < ShardCount; Shard += Workers) {
        Scratch.clear();
        for (RemoteFreeNode *Node = Channels[Shard].drain(); Node;
             Node = Node->Next)
          Scratch.push_back(Node);
        if (Scratch.empty())
          continue;
        std::sort(Scratch.begin(), Scratch.end(),
                  [](const RemoteFreeNode *A, const RemoteFreeNode *B) {
                    return A->Addr < B->Addr;
                  });
        ShardDrained[Shard] += Scratch.size();
        raisePeak(ShardMaxDrain[Shard], Scratch.size());
        LatencyRecorder *Lat = Latency[Shard].get();
        for (RemoteFreeNode *Node : Scratch) {
          timedAllocatorOp(Lat, LatencyRecorder::OpFree, [&] {
            Set.freeLocal(Shard, Node->Addr, Node->Size);
          });
          if (Opt.OpLog)
            (*Opt.OpLog)[Shard].push_back({Node->Addr, Node->Size, false});
        }
      }

      // Barrier B: every drained list is applied; nodes can be recycled.
      RoundBarrier.arrive_and_wait();
      NodePool.reset();
    }
    Contention[Worker] = Counters;
  };

  if (Workers <= 1) {
    WorkerBody(0);
  } else {
    // W barrier-synchronized bodies on a W-thread pool: no body can finish
    // until all are running, so each pool worker takes exactly one.
    ThreadPool EnginePool(Workers);
    parallelForIndex(EnginePool, Workers, WorkerBody);
  }

  // Aggregate.
  ServeResult Result;
  Result.Rounds = Rounds;
  for (unsigned Tenant = 0; Tenant < TenantCount; ++Tenant) {
    const TenantServeStats &Stats = TS.tenantStats(Tenant);
    Result.AllocEvents += Stats.Allocs;
    Result.FreeEvents += Stats.Frees;
    Result.RemoteFrees += Stats.RemoteFrees;
  }
  Result.Events = Result.AllocEvents + Result.FreeEvents;
  Result.ShardEventsMax = *std::max_element(ShardEvents.begin(),
                                            ShardEvents.end());
  Result.ShardEventsMin = *std::min_element(ShardEvents.begin(),
                                            ShardEvents.end());
  for (unsigned Shard = 0; Shard < ShardCount; ++Shard)
    Result.HeapBytes += Set.shardHeapBytes(Shard);
  Result.ReservedBytes = Set.backing().reservedBytes();
  for (const ContentionCounters &Counters : Contention)
    Result.Contention.merge(Counters);
  for (uint64_t Depth : ShardMaxDrain)
    raisePeak(Result.Contention.MaxDrainDepth, Depth);

  // Export (main thread, quiescent heaps, fixed ascending index order —
  // the same registry bytes at any worker count).
  if (StatsRegistry *Registry = Opt.Registry) {
    const std::string &Prefix = Opt.Prefix;
    Registry->counter(Prefix + "events") += Result.Events;
    Registry->counter(Prefix + "alloc_events") += Result.AllocEvents;
    Registry->counter(Prefix + "free_events") += Result.FreeEvents;
    Registry->counter(Prefix + "remote_frees") += Result.RemoteFrees;
    Registry->counter(Prefix + "rounds") += Rounds;
    Registry->counter(Prefix + "tenants") += TenantCount;
    Registry->counter(Prefix + "shards") += ShardCount;
    Registry->counter(Prefix + "slice_events") += Slice;
    raisePeak(Registry->gauge(Prefix + "heap_bytes"), Result.HeapBytes);
    raisePeak(Registry->gauge(Prefix + "reserved_bytes"),
              Result.ReservedBytes);
    raisePeak(Registry->gauge(Prefix + "shard_events_max"),
              Result.ShardEventsMax);
    // Relative overload of the hottest shard vs the coolest, in parts per
    // million.  Derived from single-writer per-shard event counts, so it
    // is deterministic — but it is a *scheduling* property, and ReportDiff
    // classifies "imbalance" keys as timing-class (not gated).
    uint64_t ImbalancePpm =
        Result.ShardEventsMax == 0
            ? 0
            : (Result.ShardEventsMax - Result.ShardEventsMin) * 1000000 /
                  Result.ShardEventsMax;
    raisePeak(Registry->gauge(Prefix + "shard_imbalance_ppm"), ImbalancePpm);

    uint64_t Clock = 0;
    for (unsigned Tenant = 0; Tenant < TenantCount; ++Tenant)
      Clock += TS.tenantStats(Tenant).AllocBytes;
    for (unsigned Shard = 0; Shard < ShardCount; ++Shard) {
      std::string SPrefix = shardPrefix(Prefix, Shard);
      Set.exportShard(Shard, *Registry, SPrefix);
      Registry->counter(SPrefix + "events") += ShardEvents[Shard];
      Registry->counter(SPrefix + "drained_remote_frees") +=
          ShardDrained[Shard];
      FragmentationProbe Probe(Opt.ProbeStrideBytes);
      sampleShardSpans(Set, Shard, Clock, Probe);
      Probe.exportTelemetry(*Registry, SPrefix);
      if (Latency[Shard])
        Latency[Shard]->exportTelemetry(*Registry, SPrefix);
    }
    if (Opt.ExportTenants) {
      for (unsigned Tenant = 0; Tenant < TenantCount; ++Tenant) {
        const TenantServeStats &Stats = TS.tenantStats(Tenant);
        std::string TPrefix = tenantPrefix(Prefix, Tenant);
        Registry->counter(TPrefix + "allocs") += Stats.Allocs;
        Registry->counter(TPrefix + "frees") += Stats.Frees;
        Registry->counter(TPrefix + "alloc_bytes") += Stats.AllocBytes;
        Registry->counter(TPrefix + "remote_frees") += Stats.RemoteFrees;
        Registry->counter(TPrefix + "predicted_short") +=
            Stats.PredictedShort;
        raisePeak(Registry->gauge(TPrefix + "peak_live_bytes"),
                  Stats.PeakLiveBytes);
        raisePeak(Registry->gauge(TPrefix + "live_bytes"), Stats.LiveBytes);
      }
    }
  }
  return Result;
}

} // namespace

ServeResult lifepred::runServe(TenantSet &Tenants,
                               const ServeRunOptions &Options) {
  const ServeConfig &Cfg = Tenants.config();
  SharedBackingStore::Config Backing;
  switch (Options.Family) {
  case ServeFamily::FirstFit: {
    SimShardSet<FirstFitAllocator> Set(Backing, FirstFitAllocator::Config(), Cfg.Shards);
    return runServeImpl(Tenants, Set, Options);
  }
  case ServeFamily::Bsd: {
    SimShardSet<BsdAllocator> Set(Backing, BsdAllocator::Config(), Cfg.Shards);
    return runServeImpl(Tenants, Set, Options);
  }
  case ServeFamily::Cas: {
    CasShardSet Set(Backing, CasHeapShard::Config(), Cfg.Shards);
    return runServeImpl(Tenants, Set, Options);
  }
  case ServeFamily::Arena: {
    SimShardSet<ArenaAllocator> Set(Backing, ArenaAllocator::Config(), Cfg.Shards);
    return runServeImpl(Tenants, Set, Options);
  }
  }
  assert(false && "unknown serving family");
  return ServeResult();
}
