//===- runtime/PredictingHeap.cpp - Real predicting allocator --------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/PredictingHeap.h"

#include "callchain/ShadowStack.h"
#include "runtime/OnlinePredictor.h"
#include "support/MathExtras.h"
#include "telemetry/DriftObservatory.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/StatsRegistry.h"

#include <bit>
#include <cassert>
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
        ++Arenas[I].Generation;
        if (Recorder)
          Recorder->onArenaReset(AuditPlacement::DefaultBand, I,
                                 Arenas[I].Generation);
        Current = I;
        return bump(Need, Size);
      }
      if (Recorder)
        Recorder->onArenaPinned(AuditPlacement::DefaultBand, I,
                                Arenas[I].Generation, Arenas[I].LiveCount);
    }
    ++Counters.Fallbacks;
  }

  ++Counters.GeneralAllocs;
  Counters.GeneralBytes += Size;
  return ::operator new(Size < 1 ? 1 : Size);
}

void PredictingHeap::recordBirth(const void *Ptr, size_t Size, bool Predicted,
                                 uint32_t Site) {
  uint64_t Id = NextId++;
  LiveIds[Ptr] = Id;
  if (DriftLog)
    DriftLog->recordAlloc(Id, ByteClock, Site, static_cast<uint32_t>(Size),
                          Predicted);
  if (!Recorder)
    return;
  AuditPlacement Placement;
  if (isArenaPointer(Ptr)) {
    auto Offset =
        static_cast<size_t>(static_cast<const unsigned char *>(Ptr) -
                            Area.get());
    Placement.ArenaIndex = static_cast<uint32_t>(Offset >> ArenaShift);
    Placement.Generation = Arenas[Placement.ArenaIndex].Generation;
  }
  Recorder->recordAlloc(Id, ByteClock, Site, static_cast<uint32_t>(Size),
                        Predicted, Database.threshold(), Placement);
}

void *PredictingHeap::allocate(size_t Size) {
  // The key comes straight from the calling thread's shadow stack; for
  // lastN it is hashed in place, so this path never allocates.
  const SiteKeyPolicy &Policy = Database.policy();
  SiteKey Key = siteKeyFromChainPart(
      Policy, ShadowStack::current().chainKeyPart(Policy),
      static_cast<uint32_t>(Size));

  std::unique_lock<std::mutex> Guard(Lock, std::defer_lock);
  if (Cfg.ThreadSafe)
    Guard.lock();

  if (!Online && !Recorder && !DriftLog)
    return allocateImpl(Size, Database.contains(Key));

  // Instrumented path: the byte clock advances by the payload before the
  // allocation (matching the simulator's "clock after alloc" convention),
  // so pin/reset callbacks fired from the reset scan carry this event's
  // clock, and the online predictor's retrain windows close on exactly
  // the clocks a replay of the same run would close them on.
  ByteClock += Size;
  bool Predicted;
  if (Online) {
    Online->advanceClock(ByteClock);
    Predicted = Online->routeShort(Key);
  } else {
    Predicted = Database.contains(Key);
  }
  if (Recorder)
    Recorder->beginEvent(ByteClock);
  void *Ptr = allocateImpl(Size, Predicted);
  if (Online)
    OnlineLive[Ptr] = OnlineBirth{Key, ByteClock, Predicted};
  if (Recorder || DriftLog)
    recordBirth(Ptr, Size, Predicted, static_cast<uint32_t>(Key));
  return Ptr;
}

void PredictingHeap::attachRecorder(FlightRecorder *NewRecorder) {
  std::unique_lock<std::mutex> Guard(Lock, std::defer_lock);
  if (Cfg.ThreadSafe)
    Guard.lock();
  Recorder = NewRecorder;
  if (Recorder)
    Recorder->setArenaGeometry(AuditPlacement::DefaultBand, arenaBytes());
}

void PredictingHeap::attachDriftLog(DriftSampleLog *Log) {
  std::unique_lock<std::mutex> Guard(Lock, std::defer_lock);
  if (Cfg.ThreadSafe)
    Guard.lock();
  DriftLog = Log;
}

void PredictingHeap::attachOnline(OnlinePredictor *Predictor) {
  std::unique_lock<std::mutex> Guard(Lock, std::defer_lock);
  if (Cfg.ThreadSafe)
    Guard.lock();
  Online = Predictor;
}

uint32_t PredictingHeap::routeEpoch() const {
  std::unique_lock<std::mutex> Guard(Lock, std::defer_lock);
  if (Cfg.ThreadSafe)
    Guard.lock();
  return Online ? Online->epoch() : 0;
}

void PredictingHeap::finishRecording() {
  std::unique_lock<std::mutex> Guard(Lock, std::defer_lock);
  if (Cfg.ThreadSafe)
    Guard.lock();
  if (Recorder)
    Recorder->finish(ByteClock);
  if (DriftLog)
    DriftLog->finish(ByteClock);
  if (Online)
    Online->finish(ByteClock);
  LiveIds.clear();
  OnlineLive.clear();
}

void PredictingHeap::deallocate(void *Ptr) {
  if (!Ptr)
    return;
  std::unique_lock<std::mutex> Guard(Lock, std::defer_lock);
  if (Cfg.ThreadSafe)
    Guard.lock();
  if (Recorder || DriftLog) {
    auto It = LiveIds.find(Ptr);
    if (It != LiveIds.end()) {
      if (Recorder)
        Recorder->recordFree(It->second, ByteClock);
      if (DriftLog)
        DriftLog->recordFree(It->second, ByteClock);
      LiveIds.erase(It);
    }
  }
  if (Online) {
    auto It = OnlineLive.find(Ptr);
    if (It != OnlineLive.end()) {
      // Lifetime in bytes allocated since birth — the paper's definition —
      // fed back under the route the object was actually placed with.
      Online->observeDeath(It->second.Site, It->second.RoutedShort,
                           ByteClock - It->second.BirthClock);
      OnlineLive.erase(It);
    }
  }
  if (isArenaPointer(Ptr)) {
    auto Offset = static_cast<size_t>(static_cast<unsigned char *>(Ptr) -
                                      Area.get());
    Arena &A = Arenas[Offset >> ArenaShift];
    assert(A.LiveCount > 0 && "arena live count underflow");
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

  // With a recorder attached, LiveIds names every live object; each
  // recorded arena pointer must lie below its arena's bump pointer and the
  // per-arena population must not exceed the live count (batch-reset
  // soundness for the real heap).
  std::vector<uint32_t> Counts(Cfg.ArenaCount, 0);
  for (const auto &[Ptr, Id] : LiveIds) {
    if (!isArenaPointer(Ptr))
      continue;
    auto Offset = static_cast<size_t>(
        static_cast<const unsigned char *>(Ptr) - Area.get());
    unsigned Index = static_cast<unsigned>(Offset >> ArenaShift);
    if (Offset - Index * arenaBytes() >= Arenas[Index].AllocPtr)
      return Fail("recorded live object above the bump pointer in arena " +
                  std::to_string(Index));
    ++Counts[Index];
  }
  for (unsigned I = 0; I < Cfg.ArenaCount; ++I)
    if (Counts[I] > Arenas[I].LiveCount)
      return Fail("arena " + std::to_string(I) +
                  " holds more recorded live objects than its live count");
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
