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

ArenaAllocator::ArenaAllocator(Config Config)
    : Cfg(Config), General(Config.General) {
  assert(Cfg.ArenaCount > 0 && Cfg.AreaBytes % Cfg.ArenaCount == 0 &&
         "arena area must divide evenly");
  assert(isPowerOf2(Cfg.AreaBytes / Cfg.ArenaCount) &&
         "arena size must be a power of two");
  ArenaShift = std::countr_zero(Cfg.AreaBytes / Cfg.ArenaCount);
  assert(Cfg.ArenaBase + Cfg.AreaBytes <= Cfg.General.BaseAddress &&
         "arena area must not overlap the general heap");
  Arenas.resize(Cfg.ArenaCount);
}

bool ArenaAllocator::fitsCurrentArena(uint64_t Need) const {
  return Arenas[Current].AllocPtr + Need <= arenaBytes();
}

uint64_t ArenaAllocator::bumpAllocate(uint32_t Size, uint64_t Need) {
  Arena &A = Arenas[Current];
  uint64_t Addr =
      Cfg.ArenaBase + (uint64_t(Current) << ArenaShift) + A.AllocPtr;
  A.AllocPtr += Need;
  ++A.LiveCount;
  ++Stats.ArenaAllocs;
  Stats.ArenaBytes += Size;
  ArenaPayload.insert(Addr, Size);
  ArenaLiveBytes += Size;
  raisePeak(MaxArenaLiveBytes, ArenaLiveBytes);
  return Addr;
}

uint64_t ArenaAllocator::allocate(uint32_t Size, bool PredictedShortLived) {
  if (!PredictedShortLived) {
    ++Stats.GeneralAllocs;
    ++Stats.UnpredictedAllocs;
    Stats.GeneralBytes += Size;
    return General.allocate(Size);
  }

  // Objects have no per-object overhead in an arena; only 8-byte alignment.
  // Zero-size requests still consume one granule: a zero-width bump would
  // hand out the same address twice and corrupt the live count / payload
  // map (found by the trace fuzzer).
  uint64_t Need = alignTo(Size == 0 ? 1 : Size, 8);
  if (Need > arenaBytes()) {
    // Predicted short-lived but cannot ever fit an arena (GHOST's 6 KB
    // objects) — general heap.
    ++Stats.GeneralAllocs;
    ++Stats.OversizeAllocs;
    Stats.GeneralBytes += Size;
    return General.allocate(Size);
  }

  if (fitsCurrentArena(Need))
    return bumpAllocate(Size, Need);

  // Scan every arena for one with no live objects; reset and reuse it.
  for (unsigned I = 0; I < Cfg.ArenaCount; ++I) {
    ++Stats.ScanSteps;
    if (Arenas[I].LiveCount == 0) {
      ++Stats.Resets;
      Arenas[I].AllocPtr = 0;
      ++Arenas[I].Generation;
      if (Lifecycle)
        Lifecycle->onArenaReset(0, I, Arenas[I].Generation);
      Current = I;
      return bumpAllocate(Size, Need);
    }
    if (Lifecycle)
      Lifecycle->onArenaPinned(0, I, Arenas[I].Generation,
                               Arenas[I].LiveCount);
  }

  // Every arena is pinned by live objects: degenerate to the general
  // allocator (the paper's CFRAC pollution case).
  ++Stats.GeneralAllocs;
  ++Stats.FallbackAllocs;
  Stats.GeneralBytes += Size;
  return General.allocate(Size);
}

void ArenaAllocator::free(uint64_t Address) {
  if (Address >= Cfg.ArenaBase &&
      Address < Cfg.ArenaBase + Cfg.AreaBytes) {
    ++Stats.ArenaFrees;
    Arena &A = Arenas[arenaIndexFor(Address)];
    assert(A.LiveCount > 0 && "arena live count underflow");
    --A.LiveCount;
    ArenaLiveBytes -= ArenaPayload.erase(Address);
    return;
  }
  ++Stats.GeneralFrees;
  General.free(Address);
}

//===----------------------------------------------------------------------===//
// Invariant audit (verify layer).
//===----------------------------------------------------------------------===//

bool ArenaAllocator::auditInvariants(std::string &Error) const {
  auto Fail = [&Error](std::string Message) {
    Error = std::move(Message);
    return false;
  };

  if (Current >= Cfg.ArenaCount)
    return Fail("current arena index out of range");
  for (unsigned I = 0; I < Cfg.ArenaCount; ++I) {
    if (Arenas[I].AllocPtr > arenaBytes())
      return Fail("arena " + std::to_string(I) +
                  " bump pointer past the arena end");
    if (Arenas[I].AllocPtr % 8 != 0)
      return Fail("arena " + std::to_string(I) + " bump pointer unaligned");
  }

  // The payload map and the per-arena live counts must describe the same
  // population — the soundness condition for batch reset (LiveCount == 0
  // really means no live object remains in the arena).
  std::vector<uint32_t> Counts(Cfg.ArenaCount, 0);
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
    unsigned Index = arenaIndexFor(Addr);
    uint64_t Offset = Addr - Cfg.ArenaBase - Index * arenaBytes();
    if (Offset >= Arenas[Index].AllocPtr)
      PayloadError = "live object above the bump pointer in arena " +
                     std::to_string(Index);
    else if (Offset + Payload > arenaBytes())
      PayloadError = "live object overflows arena " + std::to_string(Index);
    ++Counts[Index];
    Live += Payload;
  });
  if (!PayloadError.empty())
    return Fail(std::move(PayloadError));
  for (unsigned I = 0; I < Cfg.ArenaCount; ++I)
    if (Counts[I] != Arenas[I].LiveCount)
      return Fail("arena " + std::to_string(I) + " live count " +
                  std::to_string(Arenas[I].LiveCount) +
                  " disagrees with payload map population " +
                  std::to_string(Counts[I]));
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
                                     const std::string &Prefix) const {
  Registry.counter(Prefix + "arena_allocs") += Stats.ArenaAllocs;
  Registry.counter(Prefix + "arena_bytes") += Stats.ArenaBytes;
  Registry.counter(Prefix + "general_allocs") += Stats.GeneralAllocs;
  Registry.counter(Prefix + "general_bytes") += Stats.GeneralBytes;
  Registry.counter(Prefix + "unpredicted_allocs") += Stats.UnpredictedAllocs;
  Registry.counter(Prefix + "oversize_allocs") += Stats.OversizeAllocs;
  Registry.counter(Prefix + "fallback_allocs") += Stats.FallbackAllocs;
  Registry.counter(Prefix + "scan_steps") += Stats.ScanSteps;
  Registry.counter(Prefix + "resets") += Stats.Resets;
  Registry.counter(Prefix + "arena_frees") += Stats.ArenaFrees;
  Registry.counter(Prefix + "general_frees") += Stats.GeneralFrees;
  raisePeak(Registry.gauge(Prefix + "max_arena_live_bytes"),
            MaxArenaLiveBytes);
  raisePeak(Registry.gauge(Prefix + "max_heap_bytes"), maxHeapBytes());
  General.exportTelemetry(Registry, Prefix + "general.");
}

void ArenaAllocator::forEachFreeSpan(const SpanVisitor &Visit) const {
  General.forEachFreeSpan(Visit);
  // Each arena's unconsumed bump tail is allocatable space the area holds
  // but no object covers — the arena analogue of a free block.
  for (unsigned I = 0; I < Cfg.ArenaCount; ++I) {
    uint64_t Tail = arenaBytes() - Arenas[I].AllocPtr;
    if (Tail != 0)
      Visit(Cfg.ArenaBase + I * arenaBytes() + Arenas[I].AllocPtr, Tail);
  }
}

void ArenaAllocator::forEachLiveSpan(const SpanVisitor &Visit) const {
  General.forEachLiveSpan(Visit);
  ArenaPayload.forEach(Visit);
}
