//===- alloc/MultiArenaAllocator.cpp - Banded arena areas ------------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "alloc/MultiArenaAllocator.h"

#include "support/MathExtras.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/StatsRegistry.h"

#include <bit>
#include <cassert>

using namespace lifepred;

MultiArenaAllocator::MultiArenaAllocator()
    : MultiArenaAllocator(Config()) {}

MultiArenaAllocator::MultiArenaAllocator(Config C)
    : Cfg(std::move(C)), General(Cfg.General) {
  if (Cfg.Bands.empty())
    Cfg.Bands.push_back(BandConfig());
  // Lay the band areas out contiguously below the general heap.
  uint64_t Base = 1 << 20;
  for (const BandConfig &BandCfg : Cfg.Bands) {
    assert(BandCfg.ArenaCount > 0 &&
           BandCfg.AreaBytes % BandCfg.ArenaCount == 0 &&
           "band area must divide evenly");
    assert(isPowerOf2(BandCfg.AreaBytes / BandCfg.ArenaCount) &&
           "band arena size must be a power of two");
    BandState State;
    State.Cfg = BandCfg;
    State.Base = Base;
    State.ArenaShift =
        std::countr_zero(BandCfg.AreaBytes / BandCfg.ArenaCount);
    State.Arenas.resize(BandCfg.ArenaCount);
    Base += BandCfg.AreaBytes;
    BandStates.push_back(std::move(State));
  }
  assert(Base <= Cfg.General.BaseAddress &&
         "band areas must not overlap the general heap");
}

uint64_t MultiArenaAllocator::bumpAllocate(BandState &Band, uint32_t Size,
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

uint64_t MultiArenaAllocator::allocate(uint32_t Size, uint8_t BandIndex) {
  if (BandIndex < BandStates.size()) {
    BandState &Band = BandStates[BandIndex];
    // Zero-size requests consume one granule so no two objects ever share
    // a bump address (see ArenaAllocator::allocate).
    uint64_t Need = alignTo(Size == 0 ? 1 : Size, 8);
    if (Need <= Band.arenaBytes()) {
      Arena &Current = Band.Arenas[Band.Current];
      if (Current.AllocPtr + Need <= Band.arenaBytes())
        return bumpAllocate(Band, Size, Need);
      for (unsigned I = 0; I < Band.Cfg.ArenaCount; ++I) {
        ++Band.Stats.ScanSteps;
        if (Band.Arenas[I].LiveCount == 0) {
          ++Band.Stats.Resets;
          Band.Arenas[I].AllocPtr = 0;
          ++Band.Arenas[I].Generation;
          if (Lifecycle)
            Lifecycle->onArenaReset(BandIndex, I, Band.Arenas[I].Generation);
          Band.Current = I;
          return bumpAllocate(Band, Size, Need);
        }
        if (Lifecycle)
          Lifecycle->onArenaPinned(BandIndex, I, Band.Arenas[I].Generation,
                                   Band.Arenas[I].LiveCount);
      }
    }
    ++Band.Stats.Fallbacks;
  }
  ++GeneralAllocs;
  GeneralBytes += Size;
  return General.allocate(Size);
}

void MultiArenaAllocator::free(uint64_t Address) {
  for (BandState &Band : BandStates) {
    if (Address < Band.Base || Address >= Band.Base + Band.Cfg.AreaBytes)
      continue;
    ++Band.Stats.Frees;
    Arena &A = Band.Arenas[(Address - Band.Base) >> Band.ArenaShift];
    assert(A.LiveCount > 0 && "arena live count underflow");
    --A.LiveCount;
    ArenaLiveBytes -= ArenaPayload.erase(Address);
    return;
  }
  General.free(Address);
}

uint64_t MultiArenaAllocator::heapBytes() const {
  uint64_t Total = General.heapBytes();
  for (const BandState &Band : BandStates)
    Total += Band.Cfg.AreaBytes;
  return Total;
}

uint64_t MultiArenaAllocator::maxHeapBytes() const {
  uint64_t Total = General.maxHeapBytes();
  for (const BandState &Band : BandStates)
    Total += Band.Cfg.AreaBytes;
  return Total;
}

uint64_t MultiArenaAllocator::liveBytes() const {
  return ArenaLiveBytes + General.liveBytes();
}

//===----------------------------------------------------------------------===//
// Invariant audit (verify layer).
//===----------------------------------------------------------------------===//

bool MultiArenaAllocator::auditInvariants(std::string &Error) const {
  auto Fail = [&Error](std::string Message) {
    Error = std::move(Message);
    return false;
  };

  // Band areas are laid out contiguously and never overlap the general
  // heap.
  uint64_t Base = 1 << 20;
  for (size_t I = 0; I < BandStates.size(); ++I) {
    const BandState &Band = BandStates[I];
    if (Band.Base != Base)
      return Fail("band " + std::to_string(I) + " area not contiguous");
    Base += Band.Cfg.AreaBytes;
    if (Band.Current >= Band.Cfg.ArenaCount)
      return Fail("band " + std::to_string(I) +
                  " current arena index out of range");
    for (unsigned A = 0; A < Band.Cfg.ArenaCount; ++A) {
      if (Band.Arenas[A].AllocPtr > Band.arenaBytes())
        return Fail("band " + std::to_string(I) + " arena " +
                    std::to_string(A) + " bump pointer past the arena end");
      if (Band.Arenas[A].AllocPtr % 8 != 0)
        return Fail("band " + std::to_string(I) + " arena " +
                    std::to_string(A) + " bump pointer unaligned");
    }
  }
  if (Base > Cfg.General.BaseAddress)
    return Fail("band areas overlap the general heap");

  // Payload map vs per-arena live counts, attributed by address range.
  std::vector<std::vector<uint32_t>> Counts;
  for (const BandState &Band : BandStates)
    Counts.emplace_back(Band.Cfg.ArenaCount, 0);
  uint64_t Live = 0;
  std::string PayloadError;
  ArenaPayload.forEach([&](uint64_t Addr, uint32_t Payload) {
    if (!PayloadError.empty())
      return;
    uint8_t Band = bandForAddress(Addr);
    if (Band == GeneralBand) {
      PayloadError = "payload map entry outside every band area at " +
                     std::to_string(Addr);
      return;
    }
    const BandState &State = BandStates[Band];
    unsigned Index = arenaIndexFor(Band, Addr);
    uint64_t Offset = Addr - State.Base - Index * State.arenaBytes();
    if (Offset >= State.Arenas[Index].AllocPtr)
      PayloadError = "live object above the bump pointer in band " +
                     std::to_string(Band) + " arena " + std::to_string(Index);
    else if (Offset + Payload > State.arenaBytes())
      PayloadError = "live object overflows band " + std::to_string(Band) +
                     " arena " + std::to_string(Index);
    ++Counts[Band][Index];
    Live += Payload;
  });
  if (!PayloadError.empty())
    return Fail(std::move(PayloadError));
  for (size_t I = 0; I < BandStates.size(); ++I)
    for (unsigned A = 0; A < BandStates[I].Cfg.ArenaCount; ++A)
      if (Counts[I][A] != BandStates[I].Arenas[A].LiveCount)
        return Fail("band " + std::to_string(I) + " arena " +
                    std::to_string(A) + " live count disagrees with the " +
                    "payload map population");
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

void MultiArenaAllocator::attachTelemetry(StatsRegistry &Registry,
                                          const std::string &Prefix) {
  General.attachTelemetry(Registry, Prefix + "general.");
}

void MultiArenaAllocator::exportTelemetry(StatsRegistry &Registry,
                                          const std::string &Prefix) const {
  for (size_t I = 0; I < BandStates.size(); ++I) {
    const BandCounters &C = BandStates[I].Stats;
    std::string BandPrefix = Prefix + "band" + std::to_string(I) + ".";
    Registry.counter(BandPrefix + "allocs") += C.Allocs;
    Registry.counter(BandPrefix + "bytes") += C.Bytes;
    Registry.counter(BandPrefix + "frees") += C.Frees;
    Registry.counter(BandPrefix + "scan_steps") += C.ScanSteps;
    Registry.counter(BandPrefix + "resets") += C.Resets;
    Registry.counter(BandPrefix + "fallbacks") += C.Fallbacks;
  }
  Registry.counter(Prefix + "general_allocs") += GeneralAllocs;
  Registry.counter(Prefix + "general_bytes") += GeneralBytes;
  raisePeak(Registry.gauge(Prefix + "max_arena_live_bytes"),
            MaxArenaLiveBytes);
  raisePeak(Registry.gauge(Prefix + "max_heap_bytes"), maxHeapBytes());
  General.exportTelemetry(Registry, Prefix + "general.");
}

void MultiArenaAllocator::forEachFreeSpan(const SpanVisitor &Visit) const {
  General.forEachFreeSpan(Visit);
  for (const BandState &Band : BandStates)
    for (unsigned I = 0; I < Band.Cfg.ArenaCount; ++I) {
      uint64_t Tail = Band.arenaBytes() - Band.Arenas[I].AllocPtr;
      if (Tail != 0)
        Visit(Band.Base + I * Band.arenaBytes() + Band.Arenas[I].AllocPtr,
              Tail);
    }
}

void MultiArenaAllocator::forEachLiveSpan(const SpanVisitor &Visit) const {
  General.forEachLiveSpan(Visit);
  ArenaPayload.forEach(Visit);
}
