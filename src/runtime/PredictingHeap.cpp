//===- runtime/PredictingHeap.cpp - Real predicting allocator --------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/PredictingHeap.h"

#include "callchain/ShadowStack.h"
#include "support/Assert.h"
#include "support/MathExtras.h"
#include "telemetry/StatsRegistry.h"

#include <bit>
#include <new>
#include <stdexcept>

using namespace lifepred;

PredictingHeap::PredictingHeap(SiteDatabase Database)
    : PredictingHeap(std::move(Database), Config()) {}

PredictingHeap::PredictingHeap(SiteDatabase Database, Config Config)
    : Database(std::move(Database)), Cfg(Config) {
  // Checked in every build: a zero ArenaCount would divide by zero below,
  // and a non-power-of-two arena size would make ArenaShift misplace frees.
  if (Cfg.ArenaCount == 0 || Cfg.AreaBytes % Cfg.ArenaCount != 0)
    throw std::invalid_argument(
        "PredictingHeap::Config: ArenaCount must be non-zero and divide "
        "AreaBytes evenly");
  if (!isPowerOf2(Cfg.Alignment))
    throw std::invalid_argument(
        "PredictingHeap::Config: Alignment must be a power of two");
  if (!isPowerOf2(Cfg.AreaBytes / Cfg.ArenaCount))
    throw std::invalid_argument(
        "PredictingHeap::Config: arena size (AreaBytes / ArenaCount) must be "
        "a power of two");
  ArenaShift = std::countr_zero(Cfg.AreaBytes / Cfg.ArenaCount);
  Area = std::make_unique<unsigned char[]>(Cfg.AreaBytes);
  Arenas.resize(Cfg.ArenaCount);
}

PredictingHeap::~PredictingHeap() = default;

bool PredictingHeap::isArenaPointer(const void *Ptr) const {
  const auto *P = static_cast<const unsigned char *>(Ptr);
  return P >= Area.get() && P < Area.get() + Cfg.AreaBytes;
}

void *PredictingHeap::bump(size_t Need, size_t Size) {
  Arena &A = Arenas[Current];
  void *Ptr = Area.get() + (size_t(Current) << ArenaShift) + A.AllocPtr;
  A.AllocPtr += Need;
  ++A.LiveCount;
  ++Counters.ArenaAllocs;
  Counters.ArenaBytes += Size;
  return Ptr;
}

void *PredictingHeap::allocateImpl(size_t Size, bool Predicted) {
  // Zero-size requests consume one granule so every returned pointer is
  // distinct (malloc(0) semantics; a zero-width bump would hand out the
  // same arena pointer twice).  Alignment is a power of two, so rounding
  // up is a mask rather than a division.
  size_t Need =
      ((Size == 0 ? 1 : Size) + Cfg.Alignment - 1) & ~(Cfg.Alignment - 1);
  if (Predicted && Need <= arenaBytes()) {
    if (Arenas[Current].AllocPtr + Need <= arenaBytes())
      return bump(Need, Size);
    for (unsigned I = 0; I < Cfg.ArenaCount; ++I) {
      if (Arenas[I].LiveCount == 0) {
        ++Counters.Resets;
        Arenas[I].AllocPtr = 0;
        Current = I;
        return bump(Need, Size);
      }
    }
    ++Counters.Fallbacks;
  }

  ++Counters.GeneralAllocs;
  Counters.GeneralBytes += Size;
  return ::operator new(Size < 1 ? 1 : Size);
}

void *PredictingHeap::allocate(size_t Size) {
  // The key comes straight from the calling thread's shadow stack; for
  // lastN it is hashed in place, so this path never allocates.  The
  // database is immutable after construction, so the probe needs no lock.
  const SiteKeyPolicy &Policy = Database.policy();
  bool Predicted = Database.contains(siteKeyFromChainPart(
      Policy, ShadowStack::current().chainKeyPart(Policy),
      static_cast<uint32_t>(Size)));

  std::unique_lock<std::mutex> Guard(Lock, std::defer_lock);
  if (Cfg.ThreadSafe)
    Guard.lock();
  return allocateImpl(Size, Predicted);
}

void PredictingHeap::deallocate(void *Ptr) {
  if (!Ptr)
    return;
  if (isArenaPointer(Ptr)) {
    auto Offset = static_cast<size_t>(static_cast<unsigned char *>(Ptr) -
                                      Area.get());
    std::unique_lock<std::mutex> Guard(Lock, std::defer_lock);
    if (Cfg.ThreadSafe)
      Guard.lock();
    Arena &A = Arenas[Offset >> ArenaShift];
    if (A.LiveCount == 0) [[unlikely]]
      LIFEPRED_UNREACHABLE("PredictingHeap::deallocate: arena double free "
                           "(live count already zero)");
    --A.LiveCount;
    return;
  }
  ::operator delete(Ptr);
}

bool PredictingHeap::auditInvariants(std::string &Error) const {
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
    if (Arenas[I].AllocPtr % Cfg.Alignment != 0)
      return Fail("arena " + std::to_string(I) + " bump pointer unaligned");
  }
  return true;
}

void PredictingHeap::exportTelemetry(StatsRegistry &Registry,
                                     const std::string &Prefix) const {
  Registry.counter(Prefix + "arena_allocs") += Counters.ArenaAllocs;
  Registry.counter(Prefix + "general_allocs") += Counters.GeneralAllocs;
  Registry.counter(Prefix + "arena_bytes") += Counters.ArenaBytes;
  Registry.counter(Prefix + "general_bytes") += Counters.GeneralBytes;
  Registry.counter(Prefix + "resets") += Counters.Resets;
  Registry.counter(Prefix + "fallbacks") += Counters.Fallbacks;
}
