//===- locality/LocalityExperiment.cpp - Miss-rate comparison --------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "locality/LocalityExperiment.h"

#include "alloc/ArenaAllocator.h"
#include "alloc/FirstFitAllocator.h"
#include "trace/TraceReplayer.h"

#include <algorithm>
#include <queue>
#include <utility>
#include <vector>

using namespace lifepred;

namespace {

/// A scheduled reference: (byte clock, object id, access index).
struct Access {
  uint64_t Clock;
  uint64_t Id;
  uint32_t Index;
  bool operator>(const Access &O) const { return Clock > O.Clock; }
};

/// Replays a trace through an allocator and synthesizes the reference
/// stream into a memory-hierarchy sink (CacheSim or PageSim — anything
/// with an access(uint64_t) method).  Each object's references are spread
/// evenly over its lifetime, so accesses to short- and long-lived objects
/// interleave the way a running program's would — that interleaving is
/// what the arena's address segregation improves.
template <typename SinkT>
class LocalityConsumer : public TraceConsumer {
public:
  using AllocFn = uint64_t (*)(void *, uint32_t, bool);
  using FreeFn = void (*)(void *, uint64_t);

  LocalityConsumer(SinkT &Cache, size_t ObjectCount, uint32_t MaxRefs,
                   void *Allocator, AllocFn Alloc, FreeFn Free,
                   const std::vector<bool> &Predicted)
      : Cache(Cache), MaxRefs(MaxRefs), Allocator(Allocator), Alloc(Alloc),
        Free(Free), Predicted(Predicted) {
    Addresses.resize(ObjectCount);
    Sizes.resize(ObjectCount);
    Freed.resize(ObjectCount, 0);
  }

  void onAlloc(uint64_t Id, const AllocRecord &Record,
               uint64_t Clock) override {
    drainAccesses(Clock);
    uint64_t Addr = Alloc(Allocator, Record.Size, Predicted[Id]);
    Addresses[Id] = Addr;
    Sizes[Id] = Record.Size;
    Cache.access(Addr); // The allocation itself touches the object.

    // Spread the object's references evenly across its lifetime (objects
    // that outlive the trace spread over a fixed window).
    uint32_t Count = std::min(std::max(Record.Refs, 1u), MaxRefs);
    uint64_t Span = Record.Lifetime == NeverFreed
                        ? 4 * 1000 * 1000
                        : std::max<uint64_t>(Record.Lifetime, 1);
    for (uint32_t K = 1; K <= Count; ++K)
      Scheduled.push({Clock + Span * K / (Count + 1), Id, K});
  }

  void onFree(uint64_t Id, const AllocRecord &, uint64_t Clock) override {
    drainAccesses(Clock);
    Cache.access(Addresses[Id]); // The free touches the object once.
    Freed[Id] = 1;
    Free(Allocator, Addresses[Id]);
  }

  void onEnd(uint64_t Clock) override { drainAccesses(Clock + 1); }

private:
  void drainAccesses(uint64_t UpTo) {
    while (!Scheduled.empty() && Scheduled.top().Clock < UpTo) {
      Access A = Scheduled.top();
      Scheduled.pop();
      if (Freed[A.Id])
        continue; // The object died before this reference came due.
      // Stride through the object's cache lines (zero-size objects still
      // occupy one addressable byte).
      uint64_t Offset = (static_cast<uint64_t>(A.Index) * 32) %
                        std::max(Sizes[A.Id], 1u);
      Cache.access(Addresses[A.Id] + Offset);
    }
  }

  SinkT &Cache;
  uint32_t MaxRefs;
  void *Allocator;
  AllocFn Alloc;
  FreeFn Free;
  const std::vector<bool> &Predicted;
  std::vector<uint64_t> Addresses;
  std::vector<uint32_t> Sizes;
  std::priority_queue<Access, std::vector<Access>, std::greater<Access>>
      Scheduled;
  std::vector<char> Freed;
};

std::vector<bool> predictAll(const AllocationTrace &Trace,
                             const SiteDatabase &DB) {
  const SiteKeyPolicy &Policy = DB.policy();
  std::vector<uint64_t> ChainParts(Trace.chainCount());
  for (uint32_t I = 0; I < Trace.chainCount(); ++I)
    ChainParts[I] = chainKeyPart(Policy, Trace.chain(I));
  std::vector<bool> Predicted(Trace.size());
  for (size_t I = 0; I < Trace.size(); ++I) {
    const AllocRecord &Record = Trace.records()[I];
    Predicted[I] = DB.contains(
        siteKeyForRecord(Policy, ChainParts[Record.ChainIndex], Record));
  }
  return Predicted;
}

/// Runs the first-fit and arena streams into fresh sinks built by
/// \p MakeSink; returns (first-fit sink, arena sink).
template <typename SinkT, typename MakeSinkT>
std::pair<SinkT, SinkT> runBothStreams(const AllocationTrace &Trace,
                                       const SiteDatabase &DB,
                                       uint32_t MaxRefs,
                                       MakeSinkT MakeSink) {
  std::vector<bool> Predicted = predictAll(Trace, DB);
  SinkT FirstFitSink = MakeSink();
  {
    FirstFitAllocator FF;
    LocalityConsumer<SinkT> Consumer(
        FirstFitSink, Trace.size(), MaxRefs, &FF,
        [](void *A, uint32_t Size, bool) {
          return static_cast<FirstFitAllocator *>(A)->allocate(Size);
        },
        [](void *A, uint64_t Addr) {
          static_cast<FirstFitAllocator *>(A)->free(Addr);
        },
        Predicted);
    replayTrace(Trace, Consumer);
  }
  SinkT ArenaSink = MakeSink();
  {
    ArenaAllocator Arena;
    LocalityConsumer<SinkT> Consumer(
        ArenaSink, Trace.size(), MaxRefs, &Arena,
        [](void *A, uint32_t Size, bool IsShort) {
          return static_cast<ArenaAllocator *>(A)->allocate(
              Size, IsShort ? 0 : ArenaAllocator::GeneralBand);
        },
        [](void *A, uint64_t Addr) {
          static_cast<ArenaAllocator *>(A)->free(Addr);
        },
        Predicted);
    replayTrace(Trace, Consumer);
  }
  return {std::move(FirstFitSink), std::move(ArenaSink)};
}

} // namespace

LocalityResult lifepred::compareLocality(const AllocationTrace &Trace,
                                         const SiteDatabase &DB,
                                         const LocalityOptions &Options) {
  auto [FF, Arena] = runBothStreams<CacheSim>(
      Trace, DB, Options.MaxRefsPerObject,
      [&Options] { return CacheSim(Options.Cache); });
  LocalityResult Result;
  Result.FirstFitMissPercent = FF.missRatePercent();
  Result.ArenaMissPercent = Arena.missRatePercent();
  Result.Accesses = FF.accesses();
  return Result;
}

PagingResult lifepred::comparePaging(const AllocationTrace &Trace,
                                     const SiteDatabase &DB,
                                     const PagingOptions &Options) {
  auto [FF, Arena] = runBothStreams<PageSim>(
      Trace, DB, Options.MaxRefsPerObject,
      [&Options] { return PageSim(Options.Memory); });
  PagingResult Result;
  Result.FirstFitFaultPercent = FF.faultRatePercent();
  Result.ArenaFaultPercent = Arena.faultRatePercent();
  Result.Accesses = FF.accesses();
  return Result;
}
