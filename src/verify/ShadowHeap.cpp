//===- verify/ShadowHeap.cpp - Lockstep allocator reference models ---------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "verify/ShadowHeap.h"

#include "support/MathExtras.h"

#include <algorithm>

using namespace lifepred;

//===----------------------------------------------------------------------===//
// LiveSpanSet
//===----------------------------------------------------------------------===//

void LiveSpanSet::insert(ViolationLog &Log, uint64_t Op, uint64_t Addr,
                         uint32_t Size) {
  uint64_t End = Addr + std::max<uint64_t>(Size, 1);
  auto Next = Spans.upper_bound(Addr);
  if (Next != Spans.begin()) {
    auto Prev = std::prev(Next);
    if (Prev->second > Addr)
      Log.add(Op, "live-disjointness",
              "new span [" + std::to_string(Addr) + ", " +
                  std::to_string(End) + ") overlaps live span [" +
                  std::to_string(Prev->first) + ", " +
                  std::to_string(Prev->second) + ")");
  }
  if (Next != Spans.end() && Next->first < End)
    Log.add(Op, "live-disjointness",
            "new span [" + std::to_string(Addr) + ", " + std::to_string(End) +
                ") overlaps live span [" + std::to_string(Next->first) +
                ", " + std::to_string(Next->second) + ")");
  Spans[Addr] = End;
}

bool LiveSpanSet::erase(ViolationLog &Log, uint64_t Op, uint64_t Addr) {
  auto It = Spans.find(Addr);
  if (It == Spans.end()) {
    Log.add(Op, "free-of-dead",
            "free of address " + std::to_string(Addr) +
                " which is not a live object");
    return false;
  }
  Spans.erase(It);
  return true;
}

//===----------------------------------------------------------------------===//
// ShadowFirstFit
//===----------------------------------------------------------------------===//

ShadowFirstFit::ShadowFirstFit(const FirstFitAllocator *Observed,
                               ViolationLog &Log,
                               FirstFitAllocator::Config ReplicaConfig,
                               uint64_t AuditStride)
    : Observed(Observed), Log(Log), Replica(ReplicaConfig),
      AuditStride(AuditStride) {}

void ShadowFirstFit::crossCheck() {
  if (!Observed || Diverged)
    return;
  if (Observed->liveBytes() != Replica.liveBytes())
    Log.add(Op, "byte-conservation",
            "observed liveBytes " + std::to_string(Observed->liveBytes()) +
                " != model " + std::to_string(Replica.liveBytes()));
  if (Observed->heapBytes() != Replica.heapBytes())
    Log.add(Op, "heap-conservation",
            "observed heapBytes " + std::to_string(Observed->heapBytes()) +
                " != model " + std::to_string(Replica.heapBytes()));
  if (Observed->freeBlockCount() != Replica.freeBlockCount())
    Log.add(Op, "free-accounting",
            "observed free blocks " +
                std::to_string(Observed->freeBlockCount()) + " != model " +
                std::to_string(Replica.freeBlockCount()));
  if (AuditStride && Op % AuditStride == 0) {
    std::string Error;
    if (!Observed->auditInvariants(Error))
      Log.add(Op, "self-audit", Error);
  }
}

void ShadowFirstFit::onAlloc(uint32_t Size, uint64_t Addr) {
  Spans.insert(Log, Op, Addr, Size);
  Payloads[Addr] = Size;
  if (!Diverged) {
    uint64_t Want = Replica.allocate(Size);
    if (Want != Addr) {
      Log.add(Op, "placement-conformance",
              "alloc of " + std::to_string(Size) + " bytes placed at " +
                  std::to_string(Addr) + " but the policy model placed it " +
                  "at " + std::to_string(Want));
      Diverged = true;
    }
  }
  crossCheck();
  ++Op;
}

void ShadowFirstFit::onFree(uint64_t Addr) {
  bool Known = Spans.erase(Log, Op, Addr);
  Payloads.erase(Addr);
  if (!Diverged && Known)
    Replica.free(Addr);
  crossCheck();
  ++Op;
}

void ShadowFirstFit::finish() {
  if (Observed && !Diverged) {
    const FirstFitAllocator::Counters &Got = Observed->counters();
    const FirstFitAllocator::Counters &Want = Replica.counters();
    const FirstFitAllocator::Config &Cfg = Observed->config();
    // Under BestFitBins the flat store probes bins instead of scanning the
    // list, so the inspection counters legitimately differ from the
    // scanning model; everything else must match exactly.
    bool SkipSearch =
        Cfg.Policy == FitPolicy::BestFit && Cfg.BestFitBins;
    bool CountersMatch =
        Got.Allocs == Want.Allocs && Got.Frees == Want.Frees &&
        Got.Splits == Want.Splits && Got.Coalesces == Want.Coalesces &&
        Got.Grows == Want.Grows &&
        (SkipSearch || Got.SearchSteps == Want.SearchSteps);
    if (!CountersMatch)
      Log.add(Op, "counter-conformance",
              "first-fit counters diverge from the reference model");
    if (Observed->maxHeapBytes() != Replica.maxHeapBytes())
      Log.add(Op, "heap-peak",
              "observed maxHeapBytes " +
                  std::to_string(Observed->maxHeapBytes()) + " != model " +
                  std::to_string(Replica.maxHeapBytes()));
  }
  if (Observed) {
    std::string Error;
    if (!Observed->auditInvariants(Error))
      Log.add(Op, "self-audit", Error);
  }
}

//===----------------------------------------------------------------------===//
// ShadowBsd
//===----------------------------------------------------------------------===//

ShadowBsd::ShadowBsd(const BsdAllocator &Observed, ViolationLog &Log,
                     uint64_t AuditStride)
    : Observed(&Observed), Log(Log), Cfg(Observed.config()),
      HeapEnd(Cfg.BaseAddress), AuditStride(AuditStride) {
  if (Cfg.FreeList == BsdAllocator::FreeListKind::Bitmap)
    OrderedBuckets.resize(40);
  else
    Buckets.resize(40);
}

unsigned ShadowBsd::bucketFor(uint32_t Size) const {
  uint64_t Need = Size + Cfg.HeaderBytes;
  if (Need < Cfg.MinBlockBytes)
    Need = Cfg.MinBlockBytes;
  return log2Ceil(Need);
}

uint64_t ShadowBsd::modelAllocate(uint32_t Size) {
  ++Model.Allocs;
  unsigned Bucket = bucketFor(Size);
  Model.BucketBits += Bucket;
  if (Cfg.FreeList == BsdAllocator::FreeListKind::Bitmap) {
    // Lowest-free-address policy, modelled with an ordered set rather
    // than a bitmap: the production and shadow structures share nothing.
    std::set<uint64_t> &Parked = OrderedBuckets[Bucket];
    if (Parked.empty()) {
      ++Model.PageRefills;
      uint64_t BlockBytes = uint64_t(1) << Bucket;
      uint64_t Extent =
          BlockBytes >= Cfg.PageBytes ? BlockBytes : Cfg.PageBytes;
      uint64_t Page = HeapEnd;
      HeapEnd += Extent;
      MaxHeap = std::max(MaxHeap, HeapEnd - Cfg.BaseAddress);
      for (uint64_t Offset = 0; Offset < Extent; Offset += BlockBytes)
        Parked.insert(Page + Offset);
    }
    uint64_t Addr = *Parked.begin();
    Parked.erase(Parked.begin());
    LiveBytesModel += Size;
    return Addr;
  }
  std::vector<uint64_t> &FreeList = Buckets[Bucket];
  if (FreeList.empty()) {
    ++Model.PageRefills;
    uint64_t BlockBytes = uint64_t(1) << Bucket;
    uint64_t Extent = BlockBytes >= Cfg.PageBytes ? BlockBytes : Cfg.PageBytes;
    uint64_t Page = HeapEnd;
    HeapEnd += Extent;
    MaxHeap = std::max(MaxHeap, HeapEnd - Cfg.BaseAddress);
    for (uint64_t Offset = Extent; Offset >= BlockBytes; Offset -= BlockBytes)
      FreeList.push_back(Page + Offset - BlockBytes);
  }
  uint64_t Addr = FreeList.back();
  FreeList.pop_back();
  LiveBytesModel += Size;
  return Addr;
}

void ShadowBsd::crossCheck() {
  if (Diverged)
    return;
  if (Observed->liveBytes() != LiveBytesModel)
    Log.add(Op, "byte-conservation",
            "observed liveBytes " + std::to_string(Observed->liveBytes()) +
                " != model " + std::to_string(LiveBytesModel));
  if (Observed->heapBytes() != HeapEnd - Cfg.BaseAddress)
    Log.add(Op, "heap-conservation",
            "observed heapBytes " + std::to_string(Observed->heapBytes()) +
                " != model " + std::to_string(HeapEnd - Cfg.BaseAddress));
  size_t Parked = 0;
  for (const std::vector<uint64_t> &FreeList : Buckets)
    Parked += FreeList.size();
  for (const std::set<uint64_t> &Ordered : OrderedBuckets)
    Parked += Ordered.size();
  if (Observed->freeBlockCount() != Parked)
    Log.add(Op, "free-accounting",
            "observed free blocks " +
                std::to_string(Observed->freeBlockCount()) + " != model " +
                std::to_string(Parked));
  if (AuditStride && Op % AuditStride == 0) {
    std::string Error;
    if (!Observed->auditInvariants(Error))
      Log.add(Op, "self-audit", Error);
  }
}

void ShadowBsd::onAlloc(uint32_t Size, uint64_t Addr) {
  Spans.insert(Log, Op, Addr, Size);
  Payloads[Addr] = Size;
  if (!Diverged) {
    uint64_t Want = modelAllocate(Size);
    if (Want != Addr) {
      Log.add(Op, "placement-conformance",
              "alloc of " + std::to_string(Size) + " bytes placed at " +
                  std::to_string(Addr) +
                  " but the Kingsley model placed it at " +
                  std::to_string(Want));
      Diverged = true;
    }
  }
  crossCheck();
  ++Op;
}

void ShadowBsd::onFree(uint64_t Addr) {
  bool Known = Spans.erase(Log, Op, Addr);
  auto It = Payloads.find(Addr);
  if (!Diverged && Known && It != Payloads.end()) {
    ++Model.Frees;
    LiveBytesModel -= It->second;
    if (Cfg.FreeList == BsdAllocator::FreeListKind::Bitmap)
      OrderedBuckets[bucketFor(It->second)].insert(Addr);
    else
      Buckets[bucketFor(It->second)].push_back(Addr);
  }
  if (It != Payloads.end())
    Payloads.erase(It);
  crossCheck();
  ++Op;
}

void ShadowBsd::finish() {
  if (!Diverged) {
    if (!(Observed->counters() == Model))
      Log.add(Op, "counter-conformance",
              "BSD counters diverge from the reference model");
    if (Observed->maxHeapBytes() != MaxHeap)
      Log.add(Op, "heap-peak",
              "observed maxHeapBytes " +
                  std::to_string(Observed->maxHeapBytes()) + " != model " +
                  std::to_string(MaxHeap));
  }
  std::string Error;
  if (!Observed->auditInvariants(Error))
    Log.add(Op, "self-audit", Error);
}

//===----------------------------------------------------------------------===//
// ShadowArena
//===----------------------------------------------------------------------===//

ShadowArena::ShadowArena(const ArenaAllocator &Observed, ViolationLog &Log,
                         uint64_t AuditStride)
    : Observed(&Observed), Log(Log), Cfg(Observed.config()),
      Band(Cfg.Bands.front()), GeneralReplica(Cfg.General),
      AuditStride(AuditStride) {
  Arenas.resize(Band.ArenaCount);
}

uint64_t ShadowArena::bump(uint32_t Size, uint64_t Need) {
  ModelArena &A = Arenas[Current];
  uint64_t Addr = Cfg.ArenaBase + Current * arenaBytes() + A.AllocPtr;
  A.AllocPtr += Need;
  ++A.LiveCount;
  ++Model.ArenaAllocs;
  Model.ArenaBytes += Size;
  ArenaLive += Size;
  MaxArenaLive = std::max(MaxArenaLive, ArenaLive);
  return Addr;
}

uint64_t ShadowArena::modelAllocate(uint32_t Size, bool Predicted) {
  if (!Predicted) {
    ++Model.GeneralAllocs;
    ++Model.UnpredictedAllocs;
    Model.GeneralBytes += Size;
    return GeneralReplica.allocate(Size);
  }
  uint64_t Need = alignTo(Size == 0 ? 1 : Size, 8);
  if (Need > arenaBytes()) {
    ++Model.GeneralAllocs;
    ++Model.OversizeAllocs;
    Model.GeneralBytes += Size;
    return GeneralReplica.allocate(Size);
  }
  if (Arenas[Current].AllocPtr + Need <= arenaBytes())
    return bump(Size, Need);
  for (unsigned I = 0; I < Band.ArenaCount; ++I) {
    ++Model.ScanSteps;
    if (Arenas[I].LiveCount == 0) {
      ++Model.Resets;
      Arenas[I].AllocPtr = 0;
      ++Arenas[I].Generation;
      Current = I;
      return bump(Size, Need);
    }
  }
  ++Model.GeneralAllocs;
  ++Model.FallbackAllocs;
  Model.GeneralBytes += Size;
  return GeneralReplica.allocate(Size);
}

void ShadowArena::crossCheck() {
  if (Diverged)
    return;
  if (Observed->arenaLiveBytes() != ArenaLive)
    Log.add(Op, "byte-conservation",
            "observed arenaLiveBytes " +
                std::to_string(Observed->arenaLiveBytes()) + " != model " +
                std::to_string(ArenaLive));
  if (Observed->liveBytes() != ArenaLive + GeneralReplica.liveBytes())
    Log.add(Op, "byte-conservation",
            "observed liveBytes " + std::to_string(Observed->liveBytes()) +
                " != model " +
                std::to_string(ArenaLive + GeneralReplica.liveBytes()));
  if (AuditStride && Op % AuditStride == 0) {
    for (unsigned I = 0; I < Band.ArenaCount; ++I) {
      if (Observed->arenaLiveCount(0, I) != Arenas[I].LiveCount)
        Log.add(Op, "arena-live-count",
                "arena " + std::to_string(I) + " live count " +
                    std::to_string(Observed->arenaLiveCount(0, I)) +
                    " != model " + std::to_string(Arenas[I].LiveCount));
      if (Observed->arenaGeneration(0, I) != Arenas[I].Generation)
        Log.add(Op, "arena-reset",
                "arena " + std::to_string(I) + " generation " +
                    std::to_string(Observed->arenaGeneration(0, I)) +
                    " != model " + std::to_string(Arenas[I].Generation));
    }
    std::string Error;
    if (!Observed->auditInvariants(Error))
      Log.add(Op, "self-audit", Error);
  }
}

void ShadowArena::onAlloc(uint32_t Size, bool PredictedShortLived,
                          uint64_t Addr) {
  Spans.insert(Log, Op, Addr, Size);
  if (!Diverged) {
    uint64_t Want = modelAllocate(Size, PredictedShortLived);
    bool WantArena = isArenaAddress(Want);
    bool GotArena = isArenaAddress(Addr);
    if (WantArena != GotArena) {
      Log.add(Op, "routing-conformance",
              std::string("alloc of ") + std::to_string(Size) + " bytes (" +
                  (PredictedShortLived ? "predicted short" :
                                         "predicted long") +
                  ") routed to the " + (GotArena ? "arena area" :
                                                  "general heap") +
                  " but the model routed it to the " +
                  (WantArena ? "arena area" : "general heap"));
      Diverged = true;
    } else if (Want != Addr) {
      Log.add(Op, "placement-conformance",
              "alloc of " + std::to_string(Size) + " bytes placed at " +
                  std::to_string(Addr) + " but the model placed it at " +
                  std::to_string(Want));
      Diverged = true;
    }
    if (!Diverged) {
      if (GotArena)
        ArenaPayloads[Addr] = Size;
      else
        GeneralPayloads[Addr] = Size;
    }
  }
  crossCheck();
  ++Op;
}

void ShadowArena::onFree(uint64_t Addr) {
  bool Known = Spans.erase(Log, Op, Addr);
  if (!Diverged && Known) {
    if (isArenaAddress(Addr)) {
      ++Model.ArenaFrees;
      unsigned Index =
          static_cast<unsigned>((Addr - Cfg.ArenaBase) / arenaBytes());
      if (Arenas[Index].LiveCount == 0) {
        Log.add(Op, "arena-live-count",
                "model live count underflow in arena " +
                    std::to_string(Index));
        Diverged = true;
      } else {
        --Arenas[Index].LiveCount;
        auto It = ArenaPayloads.find(Addr);
        if (It != ArenaPayloads.end()) {
          ArenaLive -= It->second;
          ArenaPayloads.erase(It);
        }
      }
    } else {
      ++Model.GeneralFrees;
      auto It = GeneralPayloads.find(Addr);
      if (It != GeneralPayloads.end()) {
        GeneralReplica.free(Addr);
        GeneralPayloads.erase(It);
      }
    }
  }
  crossCheck();
  ++Op;
}

void ShadowArena::finish() {
  if (!Diverged) {
    if (!(Observed->counters() == Model))
      Log.add(Op, "counter-conformance",
              "arena counters diverge from the reference model");
    const FirstFitAllocator::Config &GCfg = Cfg.General;
    bool SkipGeneral = GCfg.Policy == FitPolicy::BestFit && GCfg.BestFitBins;
    if (!SkipGeneral &&
        !(Observed->general().counters() == GeneralReplica.counters()))
      Log.add(Op, "counter-conformance",
              "general-heap counters diverge from the reference model");
    if (Observed->maxArenaLiveBytes() != MaxArenaLive)
      Log.add(Op, "arena-peak",
              "observed maxArenaLiveBytes " +
                  std::to_string(Observed->maxArenaLiveBytes()) +
                  " != model " + std::to_string(MaxArenaLive));
    if (Observed->general().maxHeapBytes() != GeneralReplica.maxHeapBytes())
      Log.add(Op, "heap-peak",
              "observed general maxHeapBytes " +
                  std::to_string(Observed->general().maxHeapBytes()) +
                  " != model " +
                  std::to_string(GeneralReplica.maxHeapBytes()));
  }
  std::string Error;
  if (!Observed->auditInvariants(Error))
    Log.add(Op, "self-audit", Error);
}

//===----------------------------------------------------------------------===//
// ShadowMultiArena
//===----------------------------------------------------------------------===//

ShadowMultiArena::ShadowMultiArena(const ArenaAllocator &Observed,
                                   ViolationLog &Log, uint64_t AuditStride)
    : Observed(&Observed), Log(Log),
      GeneralReplica(Observed.config().General), AuditStride(AuditStride) {
  uint64_t Base = Observed.config().ArenaBase;
  for (const ArenaAllocator::BandConfig &BandCfg :
       Observed.config().Bands) {
    ModelBand Band;
    Band.Cfg = BandCfg;
    Band.Base = Base;
    Band.Arenas.resize(BandCfg.ArenaCount);
    Base += BandCfg.AreaBytes;
    Bands.push_back(std::move(Band));
  }
}

uint8_t ShadowMultiArena::bandForAddress(uint64_t Addr) const {
  for (size_t I = 0; I < Bands.size(); ++I)
    if (Addr >= Bands[I].Base && Addr < Bands[I].Base + Bands[I].Cfg.AreaBytes)
      return static_cast<uint8_t>(I);
  return ArenaAllocator::GeneralBand;
}

uint64_t ShadowMultiArena::bump(ModelBand &Band, uint32_t Size,
                                uint64_t Need) {
  ModelArena &A = Band.Arenas[Band.Current];
  uint64_t Addr = Band.Base + Band.Current * Band.arenaBytes() + A.AllocPtr;
  A.AllocPtr += Need;
  ++A.LiveCount;
  ++Band.Stats.Allocs;
  Band.Stats.Bytes += Size;
  ArenaLive += Size;
  MaxArenaLive = std::max(MaxArenaLive, ArenaLive);
  return Addr;
}

uint64_t ShadowMultiArena::modelAllocate(uint32_t Size, uint8_t BandIndex) {
  if (BandIndex < Bands.size()) {
    ModelBand &Band = Bands[BandIndex];
    uint64_t Need = alignTo(Size == 0 ? 1 : Size, 8);
    if (Need <= Band.arenaBytes()) {
      if (Band.Arenas[Band.Current].AllocPtr + Need <= Band.arenaBytes())
        return bump(Band, Size, Need);
      for (unsigned I = 0; I < Band.Cfg.ArenaCount; ++I) {
        ++Band.Stats.ScanSteps;
        if (Band.Arenas[I].LiveCount == 0) {
          ++Band.Stats.Resets;
          Band.Arenas[I].AllocPtr = 0;
          ++Band.Arenas[I].Generation;
          Band.Current = I;
          return bump(Band, Size, Need);
        }
      }
    }
    ++Band.Stats.Fallbacks;
  }
  ++ModelGeneralAllocs;
  ModelGeneralBytes += Size;
  return GeneralReplica.allocate(Size);
}

void ShadowMultiArena::crossCheck() {
  if (Diverged)
    return;
  if (Observed->arenaLiveBytes() != ArenaLive)
    Log.add(Op, "byte-conservation",
            "observed arenaLiveBytes " +
                std::to_string(Observed->arenaLiveBytes()) + " != model " +
                std::to_string(ArenaLive));
  if (Observed->liveBytes() != ArenaLive + GeneralReplica.liveBytes())
    Log.add(Op, "byte-conservation",
            "observed liveBytes " + std::to_string(Observed->liveBytes()) +
                " != model " +
                std::to_string(ArenaLive + GeneralReplica.liveBytes()));
  if (AuditStride && Op % AuditStride == 0) {
    for (size_t B = 0; B < Bands.size(); ++B)
      for (unsigned I = 0; I < Bands[B].Cfg.ArenaCount; ++I)
        if (Observed->arenaGeneration(static_cast<uint8_t>(B), I) !=
            Bands[B].Arenas[I].Generation)
          Log.add(Op, "arena-reset",
                  "band " + std::to_string(B) + " arena " +
                      std::to_string(I) + " generation disagrees with the " +
                      "model");
    std::string Error;
    if (!Observed->auditInvariants(Error))
      Log.add(Op, "self-audit", Error);
  }
}

void ShadowMultiArena::onAlloc(uint32_t Size, uint8_t Band, uint64_t Addr) {
  Spans.insert(Log, Op, Addr, Size);
  if (!Diverged) {
    uint64_t Want = modelAllocate(Size, Band);
    uint8_t WantBand = bandForAddress(Want);
    uint8_t GotBand = bandForAddress(Addr);
    if (WantBand != GotBand) {
      Log.add(Op, "routing-conformance",
              "alloc of " + std::to_string(Size) + " bytes for band " +
                  std::to_string(Band) + " routed to band " +
                  std::to_string(GotBand) + " but the model routed it to " +
                  "band " + std::to_string(WantBand));
      Diverged = true;
    } else if (Want != Addr) {
      Log.add(Op, "placement-conformance",
              "alloc of " + std::to_string(Size) + " bytes placed at " +
                  std::to_string(Addr) + " but the model placed it at " +
                  std::to_string(Want));
      Diverged = true;
    }
    if (!Diverged) {
      if (GotBand != ArenaAllocator::GeneralBand)
        ArenaPayloads[Addr] = Size;
      else
        GeneralPayloads[Addr] = Size;
    }
  }
  crossCheck();
  ++Op;
}

void ShadowMultiArena::onFree(uint64_t Addr) {
  bool Known = Spans.erase(Log, Op, Addr);
  if (!Diverged && Known) {
    uint8_t Band = bandForAddress(Addr);
    if (Band != ArenaAllocator::GeneralBand) {
      ModelBand &State = Bands[Band];
      ++State.Stats.Frees;
      unsigned Index =
          static_cast<unsigned>((Addr - State.Base) / State.arenaBytes());
      if (State.Arenas[Index].LiveCount == 0) {
        Log.add(Op, "arena-live-count",
                "model live count underflow in band " + std::to_string(Band) +
                    " arena " + std::to_string(Index));
        Diverged = true;
      } else {
        --State.Arenas[Index].LiveCount;
        auto It = ArenaPayloads.find(Addr);
        if (It != ArenaPayloads.end()) {
          ArenaLive -= It->second;
          ArenaPayloads.erase(It);
        }
      }
    } else {
      auto It = GeneralPayloads.find(Addr);
      if (It != GeneralPayloads.end()) {
        GeneralReplica.free(Addr);
        GeneralPayloads.erase(It);
      }
    }
  }
  crossCheck();
  ++Op;
}

void ShadowMultiArena::finish() {
  if (!Diverged) {
    for (size_t B = 0; B < Bands.size(); ++B) {
      if (!(Observed->bandCounters(B) == Bands[B].Stats))
        Log.add(Op, "counter-conformance",
                "band " + std::to_string(B) +
                    " counters diverge from the reference model");
    }
    ArenaAllocator::Counters Routed = Observed->counters();
    if (Routed.GeneralAllocs != ModelGeneralAllocs ||
        Routed.GeneralBytes != ModelGeneralBytes)
      Log.add(Op, "counter-conformance",
              "general routing totals diverge from the reference model");
    const FirstFitAllocator::Config &GCfg = Observed->config().General;
    bool SkipGeneral = GCfg.Policy == FitPolicy::BestFit && GCfg.BestFitBins;
    if (!SkipGeneral &&
        !(Observed->general().counters() == GeneralReplica.counters()))
      Log.add(Op, "counter-conformance",
              "general-heap counters diverge from the reference model");
    if (Observed->maxArenaLiveBytes() != MaxArenaLive)
      Log.add(Op, "arena-peak",
              "observed maxArenaLiveBytes " +
                  std::to_string(Observed->maxArenaLiveBytes()) +
                  " != model " + std::to_string(MaxArenaLive));
  }
  std::string Error;
  if (!Observed->auditInvariants(Error))
    Log.add(Op, "self-audit", Error);
}
