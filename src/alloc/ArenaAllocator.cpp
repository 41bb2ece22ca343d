//===- alloc/ArenaAllocator.cpp - Lifetime-predicting arenas ---------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "alloc/ArenaAllocator.h"

#include "support/MathExtras.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/StatsRegistry.h"

#include <bit>
#include <cassert>

using namespace lifepred;

ArenaAllocator::ArenaAllocator() : ArenaAllocator(Config()) {}

ArenaAllocator::ArenaAllocator(Config C)
    : Cfg(std::move(C)), General(Cfg.General) {
  if (Cfg.Bands.empty())
    Cfg.Bands.push_back(BandConfig());
  assert(Cfg.Bands.size() <= GeneralBand &&
         "band indices must stay below GeneralBand");
  uint64_t Base = Cfg.ArenaBase;
  for (const BandConfig &Band : Cfg.Bands) {
    assert(Band.ArenaCount > 0 && Band.AreaBytes % Band.ArenaCount == 0 &&
           "band area must divide evenly");
    assert(isPowerOf2(Band.AreaBytes / Band.ArenaCount) &&
           "arena size must be a power of two");
    BandState State;
    State.Base = Base;
    State.End = Base + Band.AreaBytes;
    State.ArenaShift = std::countr_zero(Band.AreaBytes / Band.ArenaCount);
    State.Arenas.resize(Band.ArenaCount);
    Base = State.End;
    BandStates.push_back(std::move(State));
  }
  AreaBytes = Base - Cfg.ArenaBase;
  assert(Base <= Cfg.General.BaseAddress &&
         "arena area must not overlap the general heap");
}

uint64_t ArenaAllocator::bumpAllocate(BandState &Band, uint32_t Size,
                                      uint64_t Need) {
  Arena &A = Band.Arenas[Band.Current];
  uint64_t Addr =
      Band.Base + (uint64_t(Band.Current) << Band.ArenaShift) + A.AllocPtr;
  A.AllocPtr += Need;
  ++A.LiveCount;
  ++Band.Stats.Allocs;
  Band.Stats.Bytes += Size;
  ArenaPayload.insert(Addr, Size);
  ArenaLiveBytes += Size;
  raisePeak(MaxArenaLiveBytes, ArenaLiveBytes);
  return Addr;
}

uint64_t ArenaAllocator::generalAllocate(uint32_t Size, uint64_t &Reason) {
  ++Reason;
  GeneralBytes += Size;
  return General.allocate(Size);
}

uint64_t ArenaAllocator::allocate(uint32_t Size, LifetimeClass BandIndex) {
  if (BandIndex >= BandStates.size())
    return generalAllocate(Size, UnpredictedAllocs);

  BandState &Band = BandStates[BandIndex];
  // Objects have no per-object overhead in an arena; only 8-byte alignment.
  // Zero-size requests still consume one granule: a zero-width bump would
  // hand out the same address twice and corrupt the live count / payload
  // map (found by the trace fuzzer).
  uint64_t Need = alignTo(Size == 0 ? 1 : Size, 8);
  if (Need > Band.arenaBytes()) {
    // Predicted short-lived but cannot ever fit an arena (GHOST's 6 KB
    // objects) — general heap.
    ++Band.Stats.Fallbacks;
    return generalAllocate(Size, OversizeAllocs);
  }

  if (Band.Arenas[Band.Current].AllocPtr + Need <= Band.arenaBytes())
    return bumpAllocate(Band, Size, Need);

  // Scan every arena for one with no live objects; reset and reuse it.
  for (unsigned I = 0; I < Band.Arenas.size(); ++I) {
    Arena &A = Band.Arenas[I];
    ++Band.Stats.ScanSteps;
    if (A.LiveCount == 0) {
      ++Band.Stats.Resets;
      A.AllocPtr = 0;
      ++A.Generation;
      if (Lifecycle)
        Lifecycle->onArenaReset(BandIndex, I, A.Generation);
      Band.Current = I;
      return bumpAllocate(Band, Size, Need);
    }
    if (Lifecycle)
      Lifecycle->onArenaPinned(BandIndex, I, A.Generation, A.LiveCount);
  }

  // Every arena is pinned by live objects: degenerate to the general
  // allocator (the paper's CFRAC pollution case).
  ++Band.Stats.Fallbacks;
  return generalAllocate(Size, FullAllocs);
}

void ArenaAllocator::free(uint64_t Address) {
  if (!isArenaAddress(Address)) {
    General.free(Address);
    return;
  }
  BandState &Band = BandStates[bandIndexFor(Address)];
  ++Band.Stats.Frees;
  Arena &A = Band.Arenas[(Address - Band.Base) >> Band.ArenaShift];
  assert(A.LiveCount > 0 && "arena live count underflow");
  --A.LiveCount;
  ArenaLiveBytes -= ArenaPayload.erase(Address);
}

ArenaAllocator::Counters ArenaAllocator::counters() const {
  Counters C;
  for (const BandState &Band : BandStates) {
    C.ArenaAllocs += Band.Stats.Allocs;
    C.ArenaBytes += Band.Stats.Bytes;
    C.ScanSteps += Band.Stats.ScanSteps;
    C.Resets += Band.Stats.Resets;
    C.ArenaFrees += Band.Stats.Frees;
  }
  C.GeneralAllocs = General.counters().Allocs;
  C.GeneralBytes = GeneralBytes;
  C.UnpredictedAllocs = UnpredictedAllocs;
  C.OversizeAllocs = OversizeAllocs;
  C.FallbackAllocs = FullAllocs;
  C.GeneralFrees = General.counters().Frees;
  return C;
}

//===----------------------------------------------------------------------===//
// Invariant audit (verify layer).
//===----------------------------------------------------------------------===//

bool ArenaAllocator::auditInvariants(std::string &Error) const {
  auto Fail = [&Error](std::string Message) {
    Error = std::move(Message);
    return false;
  };
  auto ArenaName = [](size_t Band, size_t Index) {
    return "band " + std::to_string(Band) + " arena " + std::to_string(Index);
  };

  // Band areas are laid out contiguously and never overlap the general
  // heap.
  uint64_t Base = Cfg.ArenaBase;
  for (size_t B = 0; B < BandStates.size(); ++B) {
    const BandState &Band = BandStates[B];
    if (Band.Base != Base ||
        Band.End != Base + Band.arenaBytes() * Band.Arenas.size())
      return Fail("band " + std::to_string(B) + " area not contiguous");
    Base = Band.End;
    if (Band.Current >= Band.Arenas.size())
      return Fail("band " + std::to_string(B) +
                  " current arena index out of range");
    for (size_t I = 0; I < Band.Arenas.size(); ++I) {
      if (Band.Arenas[I].AllocPtr > Band.arenaBytes())
        return Fail(ArenaName(B, I) + " bump pointer past the arena end");
      if (Band.Arenas[I].AllocPtr % 8 != 0)
        return Fail(ArenaName(B, I) + " bump pointer unaligned");
    }
  }
  if (Base != Cfg.ArenaBase + AreaBytes || Base > Cfg.General.BaseAddress)
    return Fail("arena area overlaps the general heap");

  // The payload map and the per-arena live counts must describe the same
  // population — the soundness condition for batch reset (LiveCount == 0
  // really means no live object remains in the arena).
  std::vector<std::vector<uint32_t>> Counts;
  for (const BandState &Band : BandStates)
    Counts.emplace_back(Band.Arenas.size(), 0);
  uint64_t Live = 0;
  std::string PayloadError;
  ArenaPayload.forEach([&](uint64_t Addr, uint32_t Payload) {
    if (!PayloadError.empty())
      return;
    if (!isArenaAddress(Addr)) {
      PayloadError = "payload map entry outside the arena area at " +
                     std::to_string(Addr);
      return;
    }
    LifetimeClass B = bandIndexFor(Addr);
    const BandState &Band = BandStates[B];
    unsigned Index = arenaIndexFor(B, Addr);
    uint64_t Offset = Addr - Band.Base - Index * Band.arenaBytes();
    if (Offset >= Band.Arenas[Index].AllocPtr)
      PayloadError =
          "live object above the bump pointer in " + ArenaName(B, Index);
    else if (Offset + Payload > Band.arenaBytes())
      PayloadError = "live object overflows " + ArenaName(B, Index);
    ++Counts[B][Index];
    Live += Payload;
  });
  if (!PayloadError.empty())
    return Fail(std::move(PayloadError));
  for (size_t B = 0; B < BandStates.size(); ++B)
    for (size_t I = 0; I < BandStates[B].Arenas.size(); ++I)
      if (Counts[B][I] != BandStates[B].Arenas[I].LiveCount)
        return Fail(ArenaName(B, I) + " live count " +
                    std::to_string(BandStates[B].Arenas[I].LiveCount) +
                    " disagrees with payload map population " +
                    std::to_string(Counts[B][I]));
  if (Live != ArenaLiveBytes)
    return Fail("arena payload sums to " + std::to_string(Live) +
                " but ArenaLiveBytes is " + std::to_string(ArenaLiveBytes));
  if (MaxArenaLiveBytes < ArenaLiveBytes)
    return Fail("MaxArenaLiveBytes below current arena live bytes");

  return General.auditInvariants(Error);
}

//===----------------------------------------------------------------------===//
// Telemetry
//===----------------------------------------------------------------------===//

void ArenaAllocator::attachTelemetry(StatsRegistry &Registry,
                                     const std::string &Prefix) {
  General.attachTelemetry(Registry, Prefix + "general.");
}

void ArenaAllocator::exportTelemetry(StatsRegistry &Registry,
                                     const std::string &Prefix,
                                     CounterKeys Keys) const {
  const Counters C = counters();
  if (Keys == CounterKeys::Flat) {
    Registry.counter(Prefix + "arena_allocs") += C.ArenaAllocs;
    Registry.counter(Prefix + "arena_bytes") += C.ArenaBytes;
    Registry.counter(Prefix + "unpredicted_allocs") += C.UnpredictedAllocs;
    Registry.counter(Prefix + "oversize_allocs") += C.OversizeAllocs;
    Registry.counter(Prefix + "fallback_allocs") += C.FallbackAllocs;
    Registry.counter(Prefix + "scan_steps") += C.ScanSteps;
    Registry.counter(Prefix + "resets") += C.Resets;
    Registry.counter(Prefix + "arena_frees") += C.ArenaFrees;
    Registry.counter(Prefix + "general_frees") += C.GeneralFrees;
  } else {
    for (size_t B = 0; B < BandStates.size(); ++B) {
      const BandCounters &Band = BandStates[B].Stats;
      std::string BandPrefix = Prefix + "band" + std::to_string(B) + ".";
      Registry.counter(BandPrefix + "allocs") += Band.Allocs;
      Registry.counter(BandPrefix + "bytes") += Band.Bytes;
      Registry.counter(BandPrefix + "frees") += Band.Frees;
      Registry.counter(BandPrefix + "scan_steps") += Band.ScanSteps;
      Registry.counter(BandPrefix + "resets") += Band.Resets;
      Registry.counter(BandPrefix + "fallbacks") += Band.Fallbacks;
    }
  }
  Registry.counter(Prefix + "general_allocs") += C.GeneralAllocs;
  Registry.counter(Prefix + "general_bytes") += C.GeneralBytes;
  raisePeak(Registry.gauge(Prefix + "max_arena_live_bytes"),
            MaxArenaLiveBytes);
  raisePeak(Registry.gauge(Prefix + "max_heap_bytes"), maxHeapBytes());
  General.exportTelemetry(Registry, Prefix + "general.");
}

void ArenaAllocator::forEachFreeSpan(const SpanVisitor &Visit) const {
  General.forEachFreeSpan(Visit);
  // Each arena's unconsumed bump tail is allocatable space the area holds
  // but no object covers — the arena analogue of a free block.
  for (const BandState &Band : BandStates)
    for (size_t I = 0; I < Band.Arenas.size(); ++I) {
      uint64_t Tail = Band.arenaBytes() - Band.Arenas[I].AllocPtr;
      if (Tail != 0)
        Visit(Band.Base + I * Band.arenaBytes() + Band.Arenas[I].AllocPtr,
              Tail);
    }
}

void ArenaAllocator::forEachLiveSpan(const SpanVisitor &Visit) const {
  General.forEachLiveSpan(Visit);
  ArenaPayload.forEach(Visit);
}
