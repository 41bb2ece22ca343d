//===- tests/verify_test.cpp - Shadow heap / fuzzer / shrinker tests -------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Trainer.h"
#include "support/Random.h"
#include "verify/ShadowHeap.h"
#include "verify/ShadowSim.h"
#include "verify/Shrinker.h"
#include "verify/TraceFuzzer.h"

#include "gtest/gtest.h"

using namespace lifepred;

namespace {

/// A small trace with mixed sizes and lifetimes for direct shadow tests.
AllocationTrace smallTrace() { return generateFuzzTrace(FuzzProfile::Uniform, 42, 64); }

} // namespace

//===----------------------------------------------------------------------===//
// LiveSpanSet
//===----------------------------------------------------------------------===//

TEST(LiveSpanSetTest, DetectsOverlap) {
  ViolationLog Log;
  LiveSpanSet Spans;
  Spans.insert(Log, 0, 1000, 64);
  Spans.insert(Log, 1, 1100, 64); // Disjoint.
  EXPECT_TRUE(Log.clean());
  Spans.insert(Log, 2, 1032, 8); // Inside [1000, 1064).
  EXPECT_EQ(Log.total(), 1u);
  EXPECT_EQ(Log.violations()[0].Invariant, "live-disjointness");
}

TEST(LiveSpanSetTest, ZeroSizeSpansStillCollide) {
  ViolationLog Log;
  LiveSpanSet Spans;
  Spans.insert(Log, 0, 500, 0);
  Spans.insert(Log, 1, 500, 0); // Same bump address: must be flagged.
  EXPECT_EQ(Log.total(), 1u);
}

TEST(LiveSpanSetTest, FreeOfDeadAddress) {
  ViolationLog Log;
  LiveSpanSet Spans;
  Spans.insert(Log, 0, 1000, 16);
  EXPECT_TRUE(Spans.erase(Log, 1, 1000));
  EXPECT_FALSE(Spans.erase(Log, 2, 1000)); // Double free.
  EXPECT_EQ(Log.total(), 1u);
  EXPECT_EQ(Log.violations()[0].Invariant, "free-of-dead");
}

//===----------------------------------------------------------------------===//
// Shadow conformance on clean allocators
//===----------------------------------------------------------------------===//

TEST(ShadowFirstFitTest, CleanRunHasNoViolations) {
  for (FitPolicy Policy :
       {FitPolicy::RovingFirstFit, FitPolicy::AddressOrderedFirstFit,
        FitPolicy::BestFit}) {
    FirstFitAllocator::Config Cfg;
    Cfg.Policy = Policy;
    FirstFitAllocator Alloc(Cfg);
    ViolationLog Log;
    ShadowFirstFit Shadow(Alloc, Log, /*AuditStride=*/8);
    Rng R(7);
    std::vector<uint64_t> Live;
    for (int I = 0; I < 400; ++I) {
      if (Live.empty() || R.nextBool(0.6)) {
        uint32_t Size = static_cast<uint32_t>(R.nextInRange(1, 512));
        uint64_t Addr = Alloc.allocate(Size);
        Shadow.onAlloc(Size, Addr);
        Live.push_back(Addr);
      } else {
        size_t Pick = R.nextBelow(Live.size());
        uint64_t Addr = Live[Pick];
        Live.erase(Live.begin() + Pick);
        Alloc.free(Addr);
        Shadow.onFree(Addr);
      }
    }
    for (uint64_t Addr : Live) {
      Alloc.free(Addr);
      Shadow.onFree(Addr);
    }
    Shadow.finish();
    EXPECT_TRUE(Log.clean()) << "policy " << static_cast<int>(Policy)
                             << ": " << Log.total() << " violations; first: "
                             << (Log.violations().empty()
                                     ? ""
                                     : Log.violations()[0].Detail);
  }
}

TEST(ShadowBsdTest, CleanRunHasNoViolations) {
  BsdAllocator Alloc;
  ViolationLog Log;
  ShadowBsd Shadow(Alloc, Log, /*AuditStride=*/8);
  Rng R(9);
  std::vector<std::pair<uint64_t, uint32_t>> Live;
  for (int I = 0; I < 400; ++I) {
    if (Live.empty() || R.nextBool(0.6)) {
      uint32_t Size = static_cast<uint32_t>(R.nextInRange(1, 4096));
      uint64_t Addr = Alloc.allocate(Size);
      Shadow.onAlloc(Size, Addr);
      Live.push_back({Addr, Size});
    } else {
      size_t Pick = R.nextBelow(Live.size());
      uint64_t Addr = Live[Pick].first;
      Live.erase(Live.begin() + Pick);
      Alloc.free(Addr);
      Shadow.onFree(Addr);
    }
  }
  Shadow.finish();
  EXPECT_TRUE(Log.clean()) << Log.total() << " violations";
}

TEST(ShadowArenaTest, CleanRunHasNoViolations) {
  ArenaAllocator Alloc;
  ViolationLog Log;
  ShadowArena Shadow(Alloc, Log, /*AuditStride=*/8);
  Rng R(11);
  std::vector<uint64_t> Live;
  for (int I = 0; I < 600; ++I) {
    if (Live.empty() || R.nextBool(0.65)) {
      uint32_t Size = static_cast<uint32_t>(R.nextInRange(1, 900));
      bool Predicted = R.nextBool(0.5);
      uint64_t Addr =
          Alloc.allocate(Size, Predicted ? 0 : ArenaAllocator::GeneralBand);
      Shadow.onAlloc(Size, Predicted, Addr);
      Live.push_back(Addr);
    } else {
      size_t Pick = R.nextBelow(Live.size());
      uint64_t Addr = Live[Pick];
      Live.erase(Live.begin() + Pick);
      Alloc.free(Addr);
      Shadow.onFree(Addr);
    }
  }
  Shadow.finish();
  EXPECT_TRUE(Log.clean())
      << Log.total() << " violations; first: "
      << (Log.violations().empty() ? "" : Log.violations()[0].Detail);
}

TEST(ShadowMultiArenaTest, CleanRunHasNoViolations) {
  ArenaAllocator::Config Cfg;
  Cfg.Bands.resize(2);
  ArenaAllocator Alloc(Cfg);
  uint8_t BandCount = 2;
  ViolationLog Log;
  ShadowMultiArena Shadow(Alloc, Log, /*AuditStride=*/8);
  Rng R(13);
  std::vector<uint64_t> Live;
  for (int I = 0; I < 600; ++I) {
    if (Live.empty() || R.nextBool(0.65)) {
      uint32_t Size = static_cast<uint32_t>(R.nextInRange(1, 900));
      uint8_t Band = R.nextBool(0.3)
                         ? ArenaAllocator::GeneralBand
                         : static_cast<uint8_t>(R.nextBelow(BandCount));
      uint64_t Addr = Alloc.allocate(Size, Band);
      Shadow.onAlloc(Size, Band, Addr);
      Live.push_back(Addr);
    } else {
      size_t Pick = R.nextBelow(Live.size());
      uint64_t Addr = Live[Pick];
      Live.erase(Live.begin() + Pick);
      Alloc.free(Addr);
      Shadow.onFree(Addr);
    }
  }
  Shadow.finish();
  EXPECT_TRUE(Log.clean())
      << Log.total() << " violations; first: "
      << (Log.violations().empty() ? "" : Log.violations()[0].Detail);
}

//===----------------------------------------------------------------------===//
// Mutation tests: a deliberately wrong stream must be caught
//===----------------------------------------------------------------------===//

TEST(ShadowMutationTest, MismatchedPolicyIsCaught) {
  // Observed allocator places best-fit; the replica expects roving first
  // fit.  On a workload with fragmentation the placements diverge and the
  // shadow must notice.
  FirstFitAllocator::Config BestCfg;
  BestCfg.Policy = FitPolicy::BestFit;
  FirstFitAllocator Alloc(BestCfg);
  FirstFitAllocator::Config ReplicaCfg; // Roving first fit.
  ViolationLog Log;
  ShadowFirstFit Shadow(nullptr, Log, ReplicaCfg);
  Rng R(17);
  std::vector<uint64_t> Live;
  for (int I = 0; I < 300 && Log.clean(); ++I) {
    if (Live.empty() || R.nextBool(0.5)) {
      uint32_t Size = static_cast<uint32_t>(R.nextInRange(1, 700));
      uint64_t Addr = Alloc.allocate(Size);
      Shadow.onAlloc(Size, Addr);
      Live.push_back(Addr);
    } else {
      size_t Pick = R.nextBelow(Live.size());
      uint64_t Addr = Live[Pick];
      Live.erase(Live.begin() + Pick);
      Alloc.free(Addr);
      Shadow.onFree(Addr);
    }
  }
  EXPECT_FALSE(Log.clean());
  EXPECT_EQ(Log.violations()[0].Invariant, "placement-conformance");
}

TEST(ShadowMutationTest, ShiftedAddressStreamIsCaught) {
  // Same allocator both sides, but the reported addresses are off by 8:
  // placement conformance must fire on the first allocation.
  FirstFitAllocator Alloc;
  ViolationLog Log;
  ShadowFirstFit Shadow(nullptr, Log, FirstFitAllocator::Config{});
  uint64_t Addr = Alloc.allocate(64);
  Shadow.onAlloc(64, Addr + 8);
  EXPECT_FALSE(Log.clean());
  EXPECT_EQ(Log.violations()[0].Invariant, "placement-conformance");
}

TEST(ShadowMutationTest, BsdWrongBucketAddressIsCaught) {
  BsdAllocator Alloc;
  ViolationLog Log;
  ShadowBsd Shadow(Alloc, Log);
  uint64_t Addr = Alloc.allocate(100);
  Shadow.onAlloc(100, Addr ^ 0x40);
  EXPECT_FALSE(Log.clean());
}

TEST(ShadowMutationTest, FlippedPredictionBitIsCaught) {
  // The allocator routes with the true prediction; the shadow replays the
  // opposite bit.  A short-lived prediction lands in the arena area while
  // the model expects the general heap (or vice versa): routing
  // conformance must fire.
  ArenaAllocator Alloc;
  ViolationLog Log;
  ShadowArena Shadow(Alloc, Log);
  uint64_t Addr = Alloc.allocate(64, /*Band=*/0);
  Shadow.onAlloc(64, /*PredictedShortLived=*/false, Addr);
  EXPECT_FALSE(Log.clean());
  EXPECT_EQ(Log.violations()[0].Invariant, "routing-conformance");
}

TEST(ShadowMutationTest, LostFreeIsCaught) {
  // The allocator frees but the shadow never hears about it; the byte
  // accounting cross-check must diverge on the next operation.
  FirstFitAllocator Alloc;
  ViolationLog Log;
  ShadowFirstFit Shadow(Alloc, Log, /*AuditStride=*/1);
  uint64_t A = Alloc.allocate(64);
  Shadow.onAlloc(64, A);
  Alloc.free(A); // Not forwarded to the shadow.
  uint64_t B = Alloc.allocate(32);
  Shadow.onAlloc(32, B);
  Shadow.finish();
  EXPECT_FALSE(Log.clean());
}

//===----------------------------------------------------------------------===//
// Shadow-checked replays and the fuzzer
//===----------------------------------------------------------------------===//

TEST(ShadowSimTest, AllProfilesCleanOnBothPaths) {
  for (FuzzProfile Profile : allProfiles()) {
    ShadowReport Report = runFuzzCase(Profile, /*Seed=*/1, /*Objects=*/200);
    EXPECT_TRUE(Report.clean())
        << profileName(Profile) << ": " << Report.summary()
        << (Report.Violations.empty()
                ? ""
                : "; first: " + Report.Violations[0].Detail);
    EXPECT_GT(Report.Events, 0u);
    EXPECT_GT(Report.Checks, 0u);
  }
}

TEST(ShadowSimTest, GeneratedTracesAreDeterministic) {
  AllocationTrace A = generateFuzzTrace(FuzzProfile::Mixed, 99, 150);
  AllocationTrace B = generateFuzzTrace(FuzzProfile::Mixed, 99, 150);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A.records()[I].Size, B.records()[I].Size);
    EXPECT_EQ(A.records()[I].Lifetime, B.records()[I].Lifetime);
    EXPECT_EQ(A.records()[I].ChainIndex, B.records()[I].ChainIndex);
  }
  AllocationTrace C = generateFuzzTrace(FuzzProfile::Mixed, 100, 150);
  bool Differs = A.size() != C.size();
  for (size_t I = 0; !Differs && I < A.size(); ++I)
    Differs = A.records()[I].Size != C.records()[I].Size ||
              A.records()[I].Lifetime != C.records()[I].Lifetime;
  EXPECT_TRUE(Differs);
}

TEST(ShadowSimTest, ValidateTraceRejectsBadChainIndex) {
  AllocationTrace T;
  uint32_t Chain = T.internChain(CallChain{1});
  T.append({100, 64, Chain, 1});
  std::string Error;
  EXPECT_TRUE(validateTrace(T, Error));
  T.append({100, 64, Chain + 5, 1}); // Out of range.
  EXPECT_FALSE(validateTrace(T, Error));
  EXPECT_FALSE(Error.empty());
}

TEST(ShadowSimTest, DiffReplayPathsCleanOnGeneratedTrace) {
  ShadowReport Report = diffReplayPaths(smallTrace());
  EXPECT_TRUE(Report.clean()) << Report.summary();
}

TEST(ShadowSimTest, ShadowCheckAllCleanOnGeneratedTrace) {
  ShadowReport Report = shadowCheckAll(smallTrace());
  EXPECT_TRUE(Report.clean())
      << Report.summary()
      << (Report.Violations.empty() ? ""
                                    : "; first: " + Report.Violations[0].Detail);
  // All four families on both paths plus extra fit policies and the
  // schedule differential.
  EXPECT_GE(Report.Checks, 13u);
}

TEST(TraceFuzzerTest, ProfileNamesRoundTrip) {
  for (FuzzProfile Profile : allProfiles()) {
    std::optional<FuzzProfile> Back = profileByName(profileName(Profile));
    ASSERT_TRUE(Back.has_value()) << profileName(Profile);
    EXPECT_EQ(*Back, Profile);
  }
  EXPECT_FALSE(profileByName("nonsense").has_value());
}

TEST(TraceFuzzerTest, BinaryRoundTripFuzzHoldsUp) {
  std::string Error;
  BinaryFuzzStats Stats;
  EXPECT_TRUE(fuzzBinaryRoundTrip(/*Seed=*/5, /*Cases=*/4, Error, &Stats))
      << Error;
  EXPECT_GT(Stats.Cases, 0u);
}

//===----------------------------------------------------------------------===//
// Shrinker
//===----------------------------------------------------------------------===//

TEST(ShrinkerTest, CloneSubsetKeepsOnlyUsedChains) {
  AllocationTrace T;
  uint32_t C0 = T.internChain(CallChain{1, 2});
  uint32_t C1 = T.internChain(CallChain{3});
  T.append({10, 8, C0, 1});
  T.append({20, 16, C1, 1});
  T.append({30, 24, C0, 1});
  AllocationTrace Sub = cloneTraceSubset(T, {0, 2});
  EXPECT_EQ(Sub.size(), 2u);
  EXPECT_EQ(Sub.chainCount(), 1u); // Only C0 survives.
  EXPECT_EQ(Sub.records()[0].Size, 8u);
  EXPECT_EQ(Sub.records()[1].Size, 24u);
}

TEST(ShrinkerTest, ReducesToSingleCulpritRecord) {
  // The "bug" fires iff the trace contains a 4096-byte object.  Bury one
  // culprit in noise; the shrinker must isolate it.
  AllocationTrace Seed;
  Rng R(23);
  uint32_t Chain = Seed.internChain(CallChain{1});
  for (int I = 0; I < 120; ++I) {
    uint32_t Size = I == 57 ? 4096 : static_cast<uint32_t>(R.nextInRange(8, 64));
    Seed.append({static_cast<uint64_t>(R.nextInRange(10, 1000)), Size, Chain,
                 0});
  }
  auto HasCulprit = [](const AllocationTrace &T) {
    for (const AllocRecord &Rec : T.records())
      if (Rec.Size == 4096)
        return true;
    return false;
  };
  ShrinkStats Stats;
  AllocationTrace Minimal = shrinkTrace(Seed, HasCulprit, 2000, &Stats);
  ASSERT_EQ(Minimal.size(), 1u);
  EXPECT_EQ(Minimal.records()[0].Size, 4096u);
  // Field simplification canonicalizes everything the predicate ignores.
  EXPECT_EQ(Minimal.records()[0].Lifetime, 0u);
  EXPECT_GT(Stats.Reductions, 0u);
  EXPECT_LE(Stats.Probes, 2000u);
}

TEST(ShrinkerTest, DeterministicAcrossRuns) {
  AllocationTrace Seed = generateFuzzTrace(FuzzProfile::Uniform, 31, 100);
  auto Fails = [](const AllocationTrace &T) { return T.size() >= 3; };
  AllocationTrace A = shrinkTrace(Seed, Fails);
  AllocationTrace B = shrinkTrace(Seed, Fails);
  ASSERT_EQ(A.size(), B.size());
  EXPECT_EQ(A.size(), 3u);
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A.records()[I].Size, B.records()[I].Size);
    EXPECT_EQ(A.records()[I].Lifetime, B.records()[I].Lifetime);
  }
}

TEST(ShrinkerTest, RespectsProbeBudget) {
  AllocationTrace Seed = generateFuzzTrace(FuzzProfile::Uniform, 37, 200);
  uint64_t Budget = 25;
  ShrinkStats Stats;
  shrinkTrace(Seed, [](const AllocationTrace &) { return true; }, Budget,
              &Stats);
  EXPECT_LE(Stats.Probes, Budget);
}
