//===- verify/TraceFuzzer.cpp - Generative trace fuzzing -------------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "verify/TraceFuzzer.h"

#include "support/Random.h"
#include "trace/TraceBinaryIO.h"

#include <algorithm>
#include <iterator>
#include <sstream>

using namespace lifepred;

const char *lifepred::profileName(FuzzProfile Profile) {
  switch (Profile) {
  case FuzzProfile::Uniform:
    return "uniform";
  case FuzzProfile::SizeSpike:
    return "sizespike";
  case FuzzProfile::DeathCollision:
    return "deathcollision";
  case FuzzProfile::Fragmentation:
    return "fragmentation";
  case FuzzProfile::SiteChurn:
    return "sitechurn";
  case FuzzProfile::Oversize:
    return "oversize";
  case FuzzProfile::Immortal:
    return "immortal";
  case FuzzProfile::Burst:
    return "burst";
  case FuzzProfile::Mixed:
    return "mixed";
  case FuzzProfile::GrandChallenge:
    return "grandchallenge";
  }
  return "unknown";
}

std::vector<FuzzProfile> lifepred::allProfiles() {
  return {FuzzProfile::Uniform,        FuzzProfile::SizeSpike,
          FuzzProfile::DeathCollision, FuzzProfile::Fragmentation,
          FuzzProfile::SiteChurn,      FuzzProfile::Oversize,
          FuzzProfile::Immortal,       FuzzProfile::Burst,
          FuzzProfile::Mixed,          FuzzProfile::GrandChallenge};
}

std::optional<FuzzProfile> lifepred::profileByName(const std::string &Name) {
  for (FuzzProfile Profile : allProfiles())
    if (Name == profileName(Profile))
      return Profile;
  return std::nullopt;
}

namespace {

/// A pool of pre-interned chains for profiles that reuse sites (reuse is
/// what makes training select them).
std::vector<uint32_t> makeChainPool(AllocationTrace &Trace, Rng &Rand,
                                    size_t Count, unsigned MaxDepth) {
  std::vector<uint32_t> Pool;
  Pool.reserve(Count);
  for (size_t I = 0; I < Count; ++I) {
    CallChain Chain;
    unsigned Depth = 1 + static_cast<unsigned>(Rand.nextBelow(MaxDepth));
    for (unsigned D = 0; D < Depth; ++D)
      Chain.push(static_cast<uint32_t>(Rand.nextBelow(5000)));
    Pool.push_back(Trace.internChain(Chain));
  }
  return Pool;
}

/// Appends a record and advances the running post-alloc byte clock.
void emit(AllocationTrace &Trace, uint64_t &Clock, uint32_t Size,
          uint64_t Lifetime, uint32_t ChainIndex) {
  Clock += Size;
  AllocRecord Record;
  Record.Size = Size;
  Record.Lifetime = Lifetime;
  Record.ChainIndex = ChainIndex;
  Trace.append(Record);
}

void genUniform(AllocationTrace &Trace, Rng &Rand, size_t Objects) {
  std::vector<uint32_t> Pool = makeChainPool(Trace, Rand, 32, 8);
  uint64_t Clock = 0;
  for (size_t I = 0; I < Objects; ++I) {
    uint32_t Size = 1 + static_cast<uint32_t>(Rand.nextBelow(512));
    uint64_t Lifetime = Rand.nextBool(0.05)
                            ? NeverFreed
                            : Rand.nextBelow(64 * 1024);
    emit(Trace, Clock, Size, Lifetime,
         Pool[Rand.nextBelow(Pool.size())]);
  }
}

void genSizeSpike(AllocationTrace &Trace, Rng &Rand, size_t Objects) {
  std::vector<uint32_t> Pool = makeChainPool(Trace, Rand, 16, 4);
  uint64_t Clock = 0;
  for (size_t I = 0; I < Objects; ++I) {
    uint32_t Size;
    if (Rand.nextBool(0.02))
      Size = 0; // malloc(0): the zero-width bump hazard.
    else if (Rand.nextBool(0.03))
      Size = 16 * 1024 + static_cast<uint32_t>(Rand.nextBelow(100 * 1024));
    else
      Size = 8 + static_cast<uint32_t>(Rand.nextBelow(56));
    uint64_t Lifetime = Rand.nextBelow(16 * 1024);
    emit(Trace, Clock, Size, Lifetime, Pool[Rand.nextBelow(Pool.size())]);
  }
}

void genDeathCollision(AllocationTrace &Trace, Rng &Rand, size_t Objects) {
  std::vector<uint32_t> Pool = makeChainPool(Trace, Rand, 8, 4);
  uint64_t Clock = 0;
  size_t Emitted = 0;
  while (Emitted < Objects) {
    // A cohort of up to 64 objects engineered to die at one byte clock,
    // stressing the free-burst paths (mass coalescing, arena batch reset,
    // tie-breaking in the death priority queue).
    size_t Cohort = std::min<size_t>(2 + Rand.nextBelow(63),
                                     Objects - Emitted);
    uint64_t Target =
        Clock + 4096 + Rand.nextBelow(32 * 1024); // shared death clock
    for (size_t I = 0; I < Cohort; ++I) {
      uint32_t Size = 8 + static_cast<uint32_t>(Rand.nextBelow(120));
      uint64_t After = Clock + Size;
      uint64_t Lifetime = Target > After ? Target - After : 0;
      emit(Trace, Clock, Size, Lifetime, Pool[Rand.nextBelow(Pool.size())]);
    }
    Emitted += Cohort;
  }
}

void genFragmentation(AllocationTrace &Trace, Rng &Rand, size_t Objects) {
  static const uint32_t Boundary[] = {8, 16, 24, 4088, 4096, 8184, 8192};
  std::vector<uint32_t> Pool = makeChainPool(Trace, Rand, 8, 3);
  uint64_t Clock = 0;
  for (size_t I = 0; I < Objects; ++I) {
    uint32_t Size = Boundary[Rand.nextBelow(std::size(Boundary))];
    // Alternate short and long lifetimes so freed holes are pinned apart
    // by survivors — the split/coalesce worst case for boundary tags.
    uint64_t Lifetime = (I % 2 == 0) ? Rand.nextBelow(2048)
                                     : 128 * 1024 + Rand.nextBelow(128 * 1024);
    emit(Trace, Clock, Size, Lifetime, Pool[Rand.nextBelow(Pool.size())]);
  }
}

void genSiteChurn(AllocationTrace &Trace, Rng &Rand, size_t Objects) {
  uint64_t Clock = 0;
  for (size_t I = 0; I < Objects; ++I) {
    // Nearly every record brings a fresh deep chain (some with repeated
    // frames, exercising recursion pruning in the profiler).
    CallChain Chain;
    unsigned Depth = 1 + static_cast<unsigned>(Rand.nextBelow(64));
    uint32_t Fn = static_cast<uint32_t>(Rand.nextBelow(5000));
    for (unsigned D = 0; D < Depth; ++D) {
      Chain.push(Fn);
      if (!Rand.nextBool(0.3))
        Fn = static_cast<uint32_t>(Rand.nextBelow(5000));
    }
    uint32_t Size = 1 + static_cast<uint32_t>(Rand.nextBelow(256));
    emit(Trace, Clock, Size, Rand.nextBelow(32 * 1024),
         Trace.internChain(Chain));
  }
}

void genOversize(AllocationTrace &Trace, Rng &Rand, size_t Objects) {
  std::vector<uint32_t> Pool = makeChainPool(Trace, Rand, 8, 4);
  uint64_t Clock = 0;
  for (size_t I = 0; I < Objects; ++I) {
    // Consistently short-lived (so training predicts them short) but
    // mostly bigger than a 4 KB arena — the oversize routing path.
    uint32_t Size = 3000 + static_cast<uint32_t>(Rand.nextBelow(9000));
    emit(Trace, Clock, Size, Rand.nextBelow(8 * 1024),
         Pool[Rand.nextBelow(Pool.size())]);
  }
}

void genImmortal(AllocationTrace &Trace, Rng &Rand, size_t Objects) {
  std::vector<uint32_t> Pool = makeChainPool(Trace, Rand, 16, 6);
  uint64_t Clock = 0;
  for (size_t I = 0; I < Objects; ++I) {
    uint32_t Size = 1 + static_cast<uint32_t>(Rand.nextBelow(384));
    uint64_t Lifetime =
        Rand.nextBool(0.25) ? NeverFreed : Rand.nextBelow(24 * 1024);
    emit(Trace, Clock, Size, Lifetime, Pool[Rand.nextBelow(Pool.size())]);
  }
}

void genBurst(AllocationTrace &Trace, Rng &Rand, size_t Objects) {
  std::vector<uint32_t> ShortPool = makeChainPool(Trace, Rand, 4, 3);
  std::vector<uint32_t> LongPool = makeChainPool(Trace, Rand, 4, 3);
  uint64_t Clock = 0;
  size_t Emitted = 0;
  while (Emitted < Objects) {
    // A burst of tiny short-lived objects (arena recycling), then a few
    // long-lived stragglers from distinct sites that pin whatever arena
    // they land in — the paper's CFRAC pollution case.
    size_t BurstLen = std::min<size_t>(16 + Rand.nextBelow(48),
                                       Objects - Emitted);
    for (size_t I = 0; I < BurstLen; ++I)
      emit(Trace, Clock, 8 + static_cast<uint32_t>(Rand.nextBelow(56)),
           Rand.nextBelow(2048), ShortPool[Rand.nextBelow(ShortPool.size())]);
    Emitted += BurstLen;
    if (Emitted < Objects) {
      emit(Trace, Clock, 32 + static_cast<uint32_t>(Rand.nextBelow(64)),
           256 * 1024 + Rand.nextBelow(256 * 1024),
           LongPool[Rand.nextBelow(LongPool.size())]);
      ++Emitted;
    }
  }
}

void genGrandChallenge(AllocationTrace &Trace, Rng &Rand, size_t Objects) {
  // The billion-event bench's workload, kept deliberately self-contained:
  // every lifetime is bounded, so the live set (and hence the schedule
  // writer's slot space) stays O(1) in the object count and no object is
  // live across the seam between consecutive segments.  Sizes sweep the
  // whole Kingsley bucket spectrum — mostly sub-128 B churn, a mid band,
  // and rare page-scale spikes — so a replay touches many classes.
  std::vector<uint32_t> Pool = makeChainPool(Trace, Rand, 64, 6);
  uint64_t Clock = 0;
  for (size_t I = 0; I < Objects; ++I) {
    uint32_t Size;
    uint64_t Draw = Rand.nextBelow(100);
    if (Draw < 70)
      Size = 8 + static_cast<uint32_t>(Rand.nextBelow(120));
    else if (Draw < 95)
      Size = 128 + static_cast<uint32_t>(Rand.nextBelow(896));
    else
      Size = 4096 + static_cast<uint32_t>(Rand.nextBelow(60 * 1024));
    emit(Trace, Clock, Size, Rand.nextBelow(256 * 1024),
         Pool[Rand.nextBelow(Pool.size())]);
  }
}

void generateInto(AllocationTrace &Trace, FuzzProfile Profile, Rng &Rand,
                  size_t Objects);

void genMixed(AllocationTrace &Trace, Rng &Rand, size_t Objects) {
  // Concatenated sub-traces re-interned into one chain table; lifetimes
  // from an early segment routinely cross into later segments.
  static const FuzzProfile Parts[] = {
      FuzzProfile::Uniform, FuzzProfile::Fragmentation,
      FuzzProfile::DeathCollision, FuzzProfile::Burst,
      FuzzProfile::SizeSpike};
  size_t PerPart = std::max<size_t>(Objects / std::size(Parts), 1);
  for (FuzzProfile Part : Parts) {
    Rng Sub = Rand.fork();
    generateInto(Trace, Part, Sub, PerPart);
  }
}

void generateInto(AllocationTrace &Trace, FuzzProfile Profile, Rng &Rand,
                  size_t Objects) {
  switch (Profile) {
  case FuzzProfile::Uniform:
    return genUniform(Trace, Rand, Objects);
  case FuzzProfile::SizeSpike:
    return genSizeSpike(Trace, Rand, Objects);
  case FuzzProfile::DeathCollision:
    return genDeathCollision(Trace, Rand, Objects);
  case FuzzProfile::Fragmentation:
    return genFragmentation(Trace, Rand, Objects);
  case FuzzProfile::SiteChurn:
    return genSiteChurn(Trace, Rand, Objects);
  case FuzzProfile::Oversize:
    return genOversize(Trace, Rand, Objects);
  case FuzzProfile::Immortal:
    return genImmortal(Trace, Rand, Objects);
  case FuzzProfile::Burst:
    return genBurst(Trace, Rand, Objects);
  case FuzzProfile::Mixed:
    return genMixed(Trace, Rand, Objects);
  case FuzzProfile::GrandChallenge:
    return genGrandChallenge(Trace, Rand, Objects);
  }
}

} // namespace

AllocationTrace lifepred::generateFuzzTrace(FuzzProfile Profile,
                                            uint64_t Seed, size_t Objects) {
  // Mix the profile into the seed so "--profile all --seed N" draws
  // distinct streams per profile.
  Rng Rand(Seed ^ (0x9e37'79b9'7f4a'7c15ULL *
                   (static_cast<uint64_t>(Profile) + 1)));
  AllocationTrace Trace;
  Trace.reserveRecords(Objects);
  generateInto(Trace, Profile, Rand, Objects);
  return Trace;
}

ShadowReport lifepred::runFuzzCase(FuzzProfile Profile, uint64_t Seed,
                                   size_t Objects) {
  AllocationTrace Trace = generateFuzzTrace(Profile, Seed, Objects);
  return shadowCheckAll(Trace);
}

//===----------------------------------------------------------------------===//
// Binary round-trip fuzzing
//===----------------------------------------------------------------------===//

namespace {

bool tracesEqual(const AllocationTrace &A, const AllocationTrace &B) {
  if (A.size() != B.size() || A.chainCount() != B.chainCount() ||
      A.totalBytes() != B.totalBytes() || A.nonHeapRefs() != B.nonHeapRefs())
    return false;
  for (size_t I = 0; I < A.size(); ++I) {
    const AllocRecord &RA = A.records()[I];
    const AllocRecord &RB = B.records()[I];
    if (RA.Lifetime != RB.Lifetime || RA.Size != RB.Size ||
        RA.ChainIndex != RB.ChainIndex || RA.Refs != RB.Refs ||
        RA.TypeId != RB.TypeId)
      return false;
  }
  for (uint32_t I = 0; I < A.chainCount(); ++I)
    if (!(A.chain(I) == B.chain(I)))
      return false;
  return true;
}

/// Feeds \p Bytes to the reader; any returned trace must validate.
bool checkMutant(const std::string &Bytes, std::string &Error,
                 BinaryFuzzStats *Stats) {
  std::istringstream IS(Bytes);
  std::optional<AllocationTrace> Read = readTraceBinary(IS);
  if (Stats) {
    ++Stats->Cases;
    ++(Read ? Stats->Accepted : Stats->Rejected);
  }
  if (!Read)
    return true;
  std::string Why;
  if (!validateTrace(*Read, Why)) {
    Error = "reader accepted a corrupt trace that fails validation: " + Why;
    return false;
  }
  return true;
}

} // namespace

bool lifepred::fuzzBinaryRoundTrip(uint64_t Seed, size_t Cases,
                                   std::string &Error,
                                   BinaryFuzzStats *Stats) {
  Rng Rand(Seed ^ 0xb17f'11b5ULL);
  for (size_t Case = 0; Case < Cases; ++Case) {
    AllocationTrace Trace =
        generateFuzzTrace(FuzzProfile::Uniform, Rand.next(), 64);
    std::ostringstream OS;
    writeTraceBinary(Trace, OS);
    std::string Bytes = OS.str();

    // Pristine bytes must round-trip value-identically.
    std::istringstream IS(Bytes);
    std::optional<AllocationTrace> Read = readTraceBinary(IS);
    if (!Read || !tracesEqual(Trace, *Read)) {
      Error = "pristine round-trip failed at case " + std::to_string(Case);
      return false;
    }

    // Truncation at every region of the stream, including inside the
    // header.
    for (int I = 0; I < 4; ++I) {
      std::string Cut = Bytes.substr(0, Rand.nextBelow(Bytes.size() + 1));
      if (!checkMutant(Cut, Error, Stats))
        return false;
    }

    // Single-bit flips.
    for (int I = 0; I < 8; ++I) {
      std::string Flipped = Bytes;
      size_t Byte = Rand.nextBelow(Flipped.size());
      Flipped[Byte] = static_cast<char>(
          Flipped[Byte] ^ (1u << Rand.nextBelow(8)));
      if (!checkMutant(Flipped, Error, Stats))
        return false;
    }

    // Absurd counts spliced into the fixed-width header fields just after
    // the magic — claims of millions of chains/records backed by a few
    // hundred bytes (the reserve-clamp and bounds paths).
    for (int I = 0; I < 4; ++I) {
      std::string Spliced = Bytes;
      size_t Offset = 8 + Rand.nextBelow(16);
      for (size_t B = 0; B < 4 && Offset + B < Spliced.size(); ++B)
        Spliced[Offset + B] = static_cast<char>(0xff);
      if (!checkMutant(Spliced, Error, Stats))
        return false;
    }

    // Trailing garbage must not disturb what was already parsed.
    std::string Long = Bytes;
    for (int I = 0; I < 32; ++I)
      Long.push_back(static_cast<char>(Rand.nextBelow(256)));
    std::istringstream LongIS(Long);
    std::optional<AllocationTrace> LongRead = readTraceBinary(LongIS);
    if (Stats) {
      ++Stats->Cases;
      ++(LongRead ? Stats->Accepted : Stats->Rejected);
    }
    if (!LongRead || !tracesEqual(Trace, *LongRead)) {
      Error = "trailing garbage changed the parse at case " +
              std::to_string(Case);
      return false;
    }
  }
  return true;
}
