//===- tests/differential_test.cpp - Cross-allocator property tests --------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
// Differential testing: random traces are replayed through every allocator
// and through the prediction pipeline under every key policy, checking the
// accounting identities that must hold regardless of configuration.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "sim/MultiArenaSimulator.h"
#include "sim/TraceSimulator.h"
#include "support/Random.h"
#include "trace/TraceStats.h"

#include "gtest/gtest.h"

#include <string>
#include <tuple>

using namespace lifepred;

namespace {

/// A random trace with several sites of varied lifetime behaviour.
AllocationTrace randomTrace(uint64_t Seed, size_t Objects) {
  Rng R(Seed);
  AllocationTrace T;
  struct Site {
    uint32_t Chain;
    uint32_t Size;
    uint64_t LifeLo, LifeHi;
    uint32_t Type;
  };
  std::vector<Site> Sites;
  unsigned SiteCount = 3 + static_cast<unsigned>(R.nextBelow(10));
  for (unsigned I = 0; I < SiteCount; ++I) {
    CallChain Chain;
    unsigned Depth = 1 + static_cast<unsigned>(R.nextBelow(6));
    for (unsigned D = 0; D < Depth; ++D)
      Chain.push(static_cast<FunctionId>(R.nextBelow(8)));
    uint64_t Lo = 1 + R.nextBelow(1000);
    uint64_t Hi = Lo + R.nextBelow(200000);
    Sites.push_back({T.internChain(Chain),
                     static_cast<uint32_t>(8 + R.nextBelow(6000)), Lo, Hi,
                     static_cast<uint32_t>(R.nextBelow(4))});
  }
  for (size_t I = 0; I < Objects; ++I) {
    const Site &S = Sites[R.nextBelow(Sites.size())];
    AllocRecord Record;
    Record.Size = S.Size;
    Record.ChainIndex = S.Chain;
    Record.TypeId = S.Type;
    Record.Refs = static_cast<uint32_t>(R.nextBelow(20));
    Record.Lifetime = R.nextBool(0.02)
                          ? NeverFreed
                          : static_cast<uint64_t>(R.nextInRange(
                                static_cast<int64_t>(S.LifeLo),
                                static_cast<int64_t>(S.LifeHi)));
    T.append(Record);
  }
  return T;
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(DifferentialTest, AllocatorsAgreeOnLiveBytesAndConservation) {
  AllocationTrace T = randomTrace(GetParam(), 15000);
  TraceStats Stats = computeTraceStats(T);

  SiteDatabase Empty(SiteKeyPolicy::completeChain(), 32768);
  CompiledTrace Compiled(T, Empty.policy());
  BaselineSimResult FF = simulateFirstFit(Compiled);
  BaselineSimResult Bsd = simulateBsd(Compiled);
  ArenaSimResult Arena = simulateArena(Compiled, Empty, 5.0);

  // Peak live payload is allocator-independent.
  EXPECT_EQ(FF.MaxLiveBytes, Stats.MaxLiveBytes);
  EXPECT_EQ(Bsd.MaxLiveBytes, Stats.MaxLiveBytes);
  EXPECT_EQ(Arena.MaxLiveBytes, Stats.MaxLiveBytes);

  // Every allocator's heap covers its live payload.
  EXPECT_GE(FF.MaxHeapBytes, FF.MaxLiveBytes);
  EXPECT_GE(Bsd.MaxHeapBytes, Bsd.MaxLiveBytes);
  EXPECT_GE(Arena.MaxHeapBytes, Arena.MaxLiveBytes);

  // Operation conservation: everything allocated is freed (the replayer
  // frees at trace end), except never-freed objects.
  EXPECT_EQ(FF.FirstFit.Allocs, Stats.TotalObjects);
  uint64_t NeverFreedCount = 0;
  for (const AllocRecord &R : T.records())
    if (R.Lifetime == NeverFreed)
      ++NeverFreedCount;
  EXPECT_EQ(FF.FirstFit.Frees, Stats.TotalObjects - NeverFreedCount);
}

TEST_P(DifferentialTest, PredictionAccountingIdentities) {
  AllocationTrace T = randomTrace(GetParam() ^ 0xabcd, 10000);
  for (SiteKeyPolicy Policy :
       {SiteKeyPolicy::completeChain(), SiteKeyPolicy::lastN(2),
        SiteKeyPolicy::sizeOnly(), SiteKeyPolicy::typeOnly(),
        SiteKeyPolicy::typeAndSize()}) {
    PipelineResult R = trainAndEvaluate(T, T, Policy);
    const PredictionReport &Report = R.Report;
    // Total bytes and objects match the trace.
    EXPECT_EQ(Report.TotalBytes, T.totalBytes());
    EXPECT_EQ(Report.TotalObjects, T.size());
    // Predicted splits into correct + error.
    EXPECT_LE(Report.PredictedShortBytes + Report.ErrorBytes,
              Report.TotalBytes);
    // Self prediction never errs.
    EXPECT_EQ(Report.ErrorBytes, 0u);
    // Correctly predicted bytes are a subset of actually short bytes.
    EXPECT_LE(Report.PredictedShortBytes, Report.ActualShortBytes);
    // Sites used cannot exceed the database.
    EXPECT_LE(Report.SitesUsed, R.Database.size());
    // The (chain, size) partition refines the size-only partition, and
    // refinement can only help under the all-short rule — so size-only
    // self prediction never beats the complete chain.  (Type partitions
    // are not refined by chains in general, so no such bound is asserted
    // for them.)
    if (Policy.Mode == SiteKeyMode::SizeOnly) {
      PipelineResult Full =
          trainAndEvaluate(T, T, SiteKeyPolicy::completeChain());
      EXPECT_LE(Report.PredictedShortBytes,
                Full.Report.PredictedShortBytes);
    }
  }
}

TEST_P(DifferentialTest, SingleBandMultiArenaMatchesArenaAllocator) {
  AllocationTrace T = randomTrace(GetParam() ^ 0x5151, 12000);
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  Profile P = profileTrace(T, Policy);
  SiteDatabase Binary = trainDatabase(P, Policy);
  ClassDatabase Banded = trainClassDatabase(P, Policy, {32 * 1024});

  CompiledTrace Compiled(T, Policy);
  ArenaSimResult A = simulateArena(Compiled, Binary, 5.0);
  MultiArenaSimResult M = simulateMultiArena(Compiled, Banded);

  // One band with the paper's geometry is the paper's allocator: the
  // placement decisions — and therefore heaps and counters — coincide.
  EXPECT_EQ(M.PerBand[0].Allocs, A.Arena.ArenaAllocs);
  EXPECT_EQ(M.PerBand[0].Bytes, A.Arena.ArenaBytes);
  EXPECT_EQ(M.GeneralAllocs, A.Arena.GeneralAllocs);
  EXPECT_EQ(M.MaxHeapBytes, A.MaxHeapBytes);
  EXPECT_EQ(M.General.SearchSteps, A.General.SearchSteps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u),
                         [](const ::testing::TestParamInfo<uint64_t> &Info) {
                           return "seed" + std::to_string(Info.param);
                         });
