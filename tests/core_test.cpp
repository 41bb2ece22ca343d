//===- tests/core_test.cpp - Lifetime-prediction core tests ----------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "core/PredictionEvaluator.h"
#include "core/Profiler.h"
#include "core/SiteDatabase.h"
#include "core/GeneratedAllocator.h"
#include "core/LifetimeClassifier.h"
#include "callchain/SiteKey.h"
#include "core/ThresholdSelector.h"
#include "core/Trainer.h"

#include "gtest/gtest.h"

#include <sstream>
#include <string>
#include <vector>

using namespace lifepred;

namespace {

/// Builds a trace with two sites: site A (chain {1,2}, size 16) allocating
/// only short-lived objects and site B (chain {1,3}, size 16) allocating a
/// long-lived one.
AllocationTrace twoSiteTrace() {
  AllocationTrace T;
  uint32_t A = T.internChain(CallChain{1, 2});
  uint32_t B = T.internChain(CallChain{1, 3});
  for (int I = 0; I < 10; ++I)
    T.append({100, 16, A, 2});
  T.append({100000, 16, B, 2});
  for (int I = 0; I < 5; ++I)
    T.append({200, 16, B, 2});
  // Pad the trace so the final objects' effective lifetimes are their
  // scheduled ones.
  for (int I = 0; I < 30; ++I)
    T.append({10, 4096, A, 1});
  return T;
}

} // namespace

TEST(SiteKeyTest, CompleteChainPrunesRecursion) {
  SiteKeyPolicy P = SiteKeyPolicy::completeChain();
  CallChain Recursive = {1, 2, 2, 2, 3};
  CallChain Flat = {1, 2, 3};
  EXPECT_EQ(siteKey(P, Recursive, 16), siteKey(P, Flat, 16));
}

TEST(SiteKeyTest, LastNDoesNotPrune) {
  SiteKeyPolicy P = SiteKeyPolicy::lastN(4);
  CallChain Recursive = {1, 2, 2, 2, 3};
  CallChain Flat = {1, 2, 3};
  EXPECT_NE(siteKey(P, Recursive, 16), siteKey(P, Flat, 16));
  // But chains agreeing on the last 4 callers coincide.
  CallChain LongA = {9, 9, 2, 2, 2, 3};
  EXPECT_EQ(siteKey(P, Recursive, 16), siteKey(P, LongA, 16));
}

TEST(SiteKeyTest, SizeRoundingMapsNearbySizes) {
  SiteKeyPolicy P = SiteKeyPolicy::completeChain(4);
  CallChain C = {1, 2};
  EXPECT_EQ(siteKey(P, C, 21), siteKey(P, C, 24));
  EXPECT_EQ(siteKey(P, C, 22), siteKey(P, C, 24));
  EXPECT_NE(siteKey(P, C, 24), siteKey(P, C, 25));
  EXPECT_NE(siteKey(P, C, 20), siteKey(P, C, 24));
}

TEST(SiteKeyTest, SizeOnlyIgnoresChain) {
  SiteKeyPolicy P = SiteKeyPolicy::sizeOnly();
  EXPECT_EQ(siteKey(P, CallChain{1, 2}, 16), siteKey(P, CallChain{7}, 16));
  EXPECT_NE(siteKey(P, CallChain{1, 2}, 16), siteKey(P, CallChain{1, 2}, 32));
}

TEST(SiteKeyTest, EncryptedUsesXorKey) {
  ChainEncryption Enc;
  Enc.setId(1, 0x1111);
  Enc.setId(2, 0x2222);
  SiteKeyPolicy P = SiteKeyPolicy::encrypted(Enc);
  // Commutative: the encrypted key cannot tell {1,2} from {2,1}.
  EXPECT_EQ(siteKey(P, CallChain{1, 2}, 16), siteKey(P, CallChain{2, 1}, 16));
}

TEST(EffectiveLifetimeTest, ClampsToExit) {
  AllocRecord R;
  R.Lifetime = 1000;
  EXPECT_EQ(effectiveLifetime(R, 100, 2000), 1000u);
  EXPECT_EQ(effectiveLifetime(R, 1500, 2000), 500u);
  R.Lifetime = NeverFreed;
  EXPECT_EQ(effectiveLifetime(R, 100, 2000), 1900u);
  EXPECT_EQ(effectiveLifetime(R, 2000, 2000), 1u); // Floor of one byte.
}

TEST(ProfilerTest, AggregatesPerSite) {
  AllocationTrace T = twoSiteTrace();
  Profile P = profileTrace(T, SiteKeyPolicy::completeChain());
  EXPECT_EQ(P.TotalObjects, T.size());
  EXPECT_EQ(P.TotalBytes, T.totalBytes());
  // Sites: A@16, B@16, A@4096.
  EXPECT_EQ(P.Sites.size(), 3u);

  SiteKey KeyA = siteKey(SiteKeyPolicy::completeChain(), CallChain{1, 2}, 16);
  ASSERT_TRUE(P.Sites.count(KeyA));
  EXPECT_EQ(P.Sites.at(KeyA).Objects, 10u);
  EXPECT_EQ(P.Sites.at(KeyA).Bytes, 160u);
  EXPECT_EQ(P.Sites.at(KeyA).MaxLifetime, 100u);

  SiteKey KeyB = siteKey(SiteKeyPolicy::completeChain(), CallChain{1, 3}, 16);
  ASSERT_TRUE(P.Sites.count(KeyB));
  EXPECT_EQ(P.Sites.at(KeyB).Objects, 6u);
  EXPECT_EQ(P.Sites.at(KeyB).MaxLifetime, 100000u);
}

TEST(TrainerTest, SelectsOnlyAllShortSites) {
  AllocationTrace T = twoSiteTrace();
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  Profile P = profileTrace(T, Policy);
  SiteDatabase DB = trainDatabase(P, Policy);
  // Site B has one 100000-byte-lived object: rejected.
  EXPECT_TRUE(DB.contains(siteKey(Policy, CallChain{1, 2}, 16)));
  EXPECT_FALSE(DB.contains(siteKey(Policy, CallChain{1, 3}, 16)));
  EXPECT_TRUE(DB.contains(siteKey(Policy, CallChain{1, 2}, 4096)));
  EXPECT_EQ(DB.size(), 2u);
}

TEST(TrainerTest, ThresholdIsStrict) {
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  AllocationTrace T;
  uint32_t C = T.internChain(CallChain{1});
  T.append({32768, 16, C, 0}); // Exactly the threshold: not short.
  for (int I = 0; I < 20; ++I)
    T.append({10, 4096, C, 0});
  Profile P = profileTrace(T, Policy);
  TrainingOptions Opt;
  Opt.Threshold = 32768;
  SiteDatabase DB = trainDatabase(P, Policy, Opt);
  EXPECT_FALSE(DB.contains(siteKey(Policy, CallChain{1}, 16)));
  Opt.Threshold = 32770;
  SiteDatabase DB2 = trainDatabase(P, Policy, Opt);
  EXPECT_TRUE(DB2.contains(siteKey(Policy, CallChain{1}, 16)));
}

TEST(TrainerTest, MinObjectsFiltersRareSites) {
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  AllocationTrace T;
  uint32_t Rare = T.internChain(CallChain{1});
  uint32_t Common = T.internChain(CallChain{2});
  T.append({10, 16, Rare, 0});
  for (int I = 0; I < 50; ++I)
    T.append({10, 16, Common, 0});
  for (int I = 0; I < 20; ++I)
    T.append({10, 4096, Common, 0});
  Profile P = profileTrace(T, Policy);
  TrainingOptions Opt;
  Opt.MinObjects = 5;
  SiteDatabase DB = trainDatabase(P, Policy, Opt);
  EXPECT_FALSE(DB.contains(siteKey(Policy, CallChain{1}, 16)));
  EXPECT_TRUE(DB.contains(siteKey(Policy, CallChain{2}, 16)));
}

TEST(EvaluatorTest, SelfPredictionHasZeroError) {
  // The paper's observation: training and testing on the same input can
  // never mispredict, because only all-short sites are selected.
  AllocationTrace T = twoSiteTrace();
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  PipelineResult R = trainAndEvaluate(T, T, Policy);
  EXPECT_EQ(R.Report.ErrorBytes, 0u);
  EXPECT_GT(R.Report.PredictedShortBytes, 0u);
}

TEST(EvaluatorTest, CountsSitesUsedOnlyWhenObserved) {
  AllocationTrace Train = twoSiteTrace();
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  Profile P = profileTrace(Train, Policy);
  SiteDatabase DB = trainDatabase(P, Policy);
  EXPECT_EQ(DB.size(), 2u);

  // A test trace exercising only one of the two trained sites.
  AllocationTrace Test;
  uint32_t A = Test.internChain(CallChain{1, 2});
  for (int I = 0; I < 5; ++I)
    Test.append({100, 16, A, 1});
  for (int I = 0; I < 20; ++I)
    Test.append({10, 64, Test.internChain(CallChain{9}), 1});
  PredictionReport Report = evaluatePrediction(Test, DB);
  EXPECT_EQ(Report.SitesUsed, 1u);
  EXPECT_EQ(Report.PredictedShortBytes, 80u);
}

TEST(EvaluatorTest, ErrorBytesCountPredictedLongLived) {
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  // Train: site all short.
  AllocationTrace Train;
  uint32_t C = Train.internChain(CallChain{1});
  for (int I = 0; I < 10; ++I)
    Train.append({10, 16, C, 0});
  for (int I = 0; I < 20; ++I)
    Train.append({10, 4096, Train.internChain(CallChain{2}), 0});
  SiteDatabase DB = trainDatabase(profileTrace(Train, Policy), Policy);

  // Test: same site now allocates a long-lived object.
  AllocationTrace Test;
  uint32_t C2 = Test.internChain(CallChain{1});
  Test.append({500000, 16, C2, 0});
  for (int I = 0; I < 200; ++I)
    Test.append({10, 4096, Test.internChain(CallChain{2}), 0});
  PredictionReport Report = evaluatePrediction(Test, DB);
  EXPECT_EQ(Report.ErrorBytes, 16u);
  // The padding site is also trained short-lived; its test objects are
  // short, so they count as correctly predicted bytes.
  EXPECT_EQ(Report.PredictedShortBytes, 200u * 4096u);
}

TEST(EvaluatorTest, NewRefPercentIncludesNonHeapRefs) {
  AllocationTrace T;
  uint32_t C = T.internChain(CallChain{1});
  for (int I = 0; I < 10; ++I)
    T.append({10, 16, C, 5}); // 50 heap refs to predicted objects.
  T.setNonHeapRefs(50);
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  PipelineResult R = trainAndEvaluate(T, T, Policy);
  EXPECT_DOUBLE_EQ(R.Report.newRefPercent(), 50.0);
}

TEST(SiteDatabaseTest, SaveLoadRoundTrip) {
  SiteKeyPolicy Policy = SiteKeyPolicy::lastN(4, 8);
  SiteDatabase DB(Policy, 16384);
  DB.insert(123456789);
  DB.insert(987654321);
  std::stringstream SS;
  DB.save(SS);
  auto Loaded = SiteDatabase::load(SS);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->size(), 2u);
  EXPECT_TRUE(Loaded->contains(123456789));
  EXPECT_TRUE(Loaded->contains(987654321));
  EXPECT_FALSE(Loaded->contains(5));
  EXPECT_EQ(Loaded->threshold(), 16384u);
  EXPECT_EQ(Loaded->policy().Mode, SiteKeyMode::LastN);
  EXPECT_EQ(Loaded->policy().Length, 4u);
  EXPECT_EQ(Loaded->policy().SizeRounding, 8u);
}

TEST(SiteDatabaseTest, LoadRejectsGarbage) {
  std::stringstream A("bogus\n");
  std::string Error;
  EXPECT_FALSE(SiteDatabase::load(A, &Error).has_value());
  EXPECT_NE(Error.find("not a site database"), std::string::npos) << Error;
  std::stringstream B("sitedb v2\nsite notanumber\n");
  EXPECT_FALSE(SiteDatabase::load(B).has_value());
  std::stringstream C("sitedb v2\npolicy martian 0 4\n");
  EXPECT_FALSE(SiteDatabase::load(C).has_value());
}

TEST(SiteDatabaseTest, LoadRejectsOtherVersionsByName) {
  // v1 keys came from the serial chain hash; loading them would silently
  // predict nothing, so the version is refused and named.
  std::stringstream V1("sitedb v1\npolicy lastn 4 4\nthreshold 4096\n"
                       "site 42\n");
  std::string Error;
  EXPECT_FALSE(SiteDatabase::load(V1, &Error).has_value());
  EXPECT_NE(Error.find("unsupported site database version 1"),
            std::string::npos)
      << Error;
  std::stringstream V3("sitedb v3\n");
  EXPECT_FALSE(SiteDatabase::load(V3, &Error).has_value());
  EXPECT_NE(Error.find("version 3"), std::string::npos) << Error;
}

TEST(SiteDatabaseTest, PredictShortLivedHelper) {
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  SiteDatabase DB(Policy, 32768);
  DB.insert(siteKey(Policy, CallChain{1, 2}, 16));
  EXPECT_TRUE(DB.predictShortLived(CallChain{1, 2}, 16));
  EXPECT_TRUE(DB.predictShortLived(CallChain{1, 2}, 14)); // Rounds to 16.
  EXPECT_FALSE(DB.predictShortLived(CallChain{1, 2}, 32));
  EXPECT_FALSE(DB.predictShortLived(CallChain{1, 3}, 16));
}

TEST(SiteDatabaseTest, EmptyDatabaseMisses) {
  SiteDatabase DB(SiteKeyPolicy::lastN(4), 32768);
  EXPECT_EQ(DB.size(), 0u);
  EXPECT_FALSE(DB.contains(0));
  EXPECT_FALSE(DB.contains(1));
  EXPECT_FALSE(DB.contains(~uint64_t(0)));
}

TEST(SiteDatabaseTest, KeyZeroIsAStoredKey) {
  // 0 is a legal hashCombine output; the table must not treat it as empty.
  SiteDatabase DB(SiteKeyPolicy::lastN(4), 32768);
  DB.insert(0);
  EXPECT_TRUE(DB.contains(0));
  EXPECT_FALSE(DB.contains(1));
  EXPECT_EQ(DB.size(), 1u);
  DB.insert(0);
  DB.insert(7);
  EXPECT_EQ(DB.size(), 2u);
  std::stringstream SS;
  DB.save(SS);
  auto Loaded = SiteDatabase::load(SS);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_TRUE(Loaded->contains(0));
  EXPECT_TRUE(Loaded->contains(7));
  EXPECT_EQ(Loaded->size(), 2u);
}

TEST(SiteDatabaseTest, KeysSharingLowBitsAreAllFound) {
  SiteDatabase DB(SiteKeyPolicy::lastN(4), 32768);
  std::vector<SiteKey> Keys;
  for (uint64_t I = 1; I <= 600; ++I) {
    Keys.push_back((I << 32) | 0x5);
    Keys.push_back(I << 52);
  }
  for (SiteKey Key : Keys)
    DB.insert(Key);
  EXPECT_EQ(DB.size(), Keys.size());
  for (SiteKey Key : Keys)
    EXPECT_TRUE(DB.contains(Key)) << Key;
  for (uint64_t I = 601; I <= 1200; ++I) {
    EXPECT_FALSE(DB.contains((I << 32) | 0x5));
    EXPECT_FALSE(DB.contains(I << 32));
  }
}

TEST(SiteDatabaseTest, GrowthKeepsEveryKey) {
  // 5000 keys cross the table's power-of-two resize points several times;
  // at every power-of-two count all keys so far are still found.
  SiteDatabase DB(SiteKeyPolicy::lastN(4), 32768);
  std::vector<SiteKey> Keys;
  constexpr uint64_t Seed = 1993;
  for (int I = 0; I < 5000; ++I) {
    Keys.push_back(hashCombine(Seed, static_cast<uint64_t>(I)));
    DB.insert(Keys.back());
    if ((Keys.size() & (Keys.size() - 1)) == 0) {
      for (SiteKey Key : Keys)
        ASSERT_TRUE(DB.contains(Key)) << "after " << Keys.size() << " keys";
    }
  }
  EXPECT_EQ(DB.size(), Keys.size());
  for (SiteKey Key : Keys)
    EXPECT_TRUE(DB.contains(Key));
  for (int I = 5000; I < 10000; ++I)
    EXPECT_FALSE(DB.contains(hashCombine(Seed, static_cast<uint64_t>(I))));
}

TEST(SiteDatabaseTest, DuplicateInsertsKeepSize) {
  SiteDatabase DB(SiteKeyPolicy::lastN(4), 32768);
  for (int Round = 0; Round < 3; ++Round)
    for (SiteKey Key = 1; Key <= 40; ++Key)
      DB.insert(Key * 1000003);
  EXPECT_EQ(DB.size(), 40u);
}

TEST(SiteDatabaseTest, SaveIsIndependentOfInsertionOrder) {
  std::vector<SiteKey> Keys = {0, 99, 3, ~uint64_t(0), 1ull << 40, 42, 7};
  SiteDatabase Forward(SiteKeyPolicy::lastN(4), 4096);
  SiteDatabase Backward(SiteKeyPolicy::lastN(4), 4096);
  for (SiteKey Key : Keys)
    Forward.insert(Key);
  for (auto It = Keys.rbegin(); It != Keys.rend(); ++It)
    Backward.insert(*It);
  std::stringstream A, B;
  Forward.save(A);
  Backward.save(B);
  EXPECT_EQ(A.str(), B.str());
  EXPECT_EQ(A.str(), "sitedb v2\npolicy lastn 4 4\nthreshold 4096\n"
                     "site 0\nsite 3\nsite 7\nsite 42\nsite 99\n"
                     "site 1099511627776\nsite 18446744073709551615\n");

  std::stringstream Again(A.str());
  auto Loaded = SiteDatabase::load(Again);
  ASSERT_TRUE(Loaded.has_value());
  std::stringstream C;
  Loaded->save(C);
  EXPECT_EQ(C.str(), A.str());
  for (SiteKey Key : Keys)
    EXPECT_TRUE(Loaded->contains(Key));
}

TEST(ThresholdSelectorTest, PicksKneeOfCoverageCurve) {
  // Three sites: lifetimes under 4 KB (60% of bytes), under 24 KB (30%),
  // and under 300 KB (10%).  Coverage saturates at 32 KB; the knee should
  // land there, not at the 512 KB candidate that also covers site three.
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  AllocationTrace T;
  uint32_t A = T.internChain(CallChain{1});
  uint32_t B = T.internChain(CallChain{2});
  uint32_t C = T.internChain(CallChain{3});
  uint32_t Pad = T.internChain(CallChain{4});
  for (int I = 0; I < 600; ++I)
    T.append({3000, 100, A, 0});
  for (int I = 0; I < 300; ++I)
    T.append({20000, 100, B, 0});
  for (int I = 0; I < 10; ++I)
    T.append({300000, 100, C, 0});
  // Long-lived padding keeps every lifetime effective without adding
  // qualifying bytes at any threshold.
  for (int I = 0; I < 200; ++I)
    T.append({NeverFreed, 4096, Pad, 0});
  Profile P = profileTrace(T, Policy);

  ThresholdSelection S = selectThreshold(P);
  EXPECT_EQ(S.Threshold, 32u * 1024);
  ASSERT_FALSE(S.Candidates.empty());
  // The candidate table is monotone in coverage.
  for (size_t I = 1; I < S.Candidates.size(); ++I)
    EXPECT_GE(S.Candidates[I].CoveragePercent,
              S.Candidates[I - 1].CoveragePercent);
}

TEST(ThresholdSelectorTest, ArenaCapExcludesLargeThresholds) {
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  AllocationTrace T;
  uint32_t A = T.internChain(CallChain{1});
  for (int I = 0; I < 100; ++I)
    T.append({100000, 100, A, 0});
  for (int I = 0; I < 100; ++I)
    T.append({10, 4096, A, 0});
  Profile P = profileTrace(T, Policy);

  ThresholdSelectorOptions Options;
  Options.MaxArenaBytes = 64 * 1024; // Candidates above 32 KB excluded.
  ThresholdSelection S = selectThreshold(P, Options);
  for (const ThresholdCandidate &C : S.Candidates)
    EXPECT_LE(C.ImpliedArenaBytes, 64u * 1024);
}

TEST(ThresholdSelectorTest, ExplicitCandidatesRespected) {
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  AllocationTrace T;
  uint32_t A = T.internChain(CallChain{1});
  for (int I = 0; I < 50; ++I)
    T.append({100, 16, A, 0});
  for (int I = 0; I < 50; ++I)
    T.append({10, 4096, A, 0});
  Profile P = profileTrace(T, Policy);

  ThresholdSelectorOptions Options;
  Options.Candidates = {1024, 4096};
  ThresholdSelection S = selectThreshold(P, Options);
  EXPECT_EQ(S.Candidates.size(), 2u);
  EXPECT_EQ(S.Threshold, 1024u);
}

TEST(SiteKeyTest, TypeOnlyIgnoresChainAndSize) {
  SiteKeyPolicy P = SiteKeyPolicy::typeOnly();
  AllocRecord A;
  A.Size = 16;
  A.TypeId = 7;
  AllocRecord B;
  B.Size = 64;
  B.TypeId = 7;
  AllocRecord C;
  C.Size = 16;
  C.TypeId = 8;
  EXPECT_EQ(siteKeyForRecord(P, 111, A), siteKeyForRecord(P, 222, B));
  EXPECT_NE(siteKeyForRecord(P, 111, A), siteKeyForRecord(P, 111, C));
}

TEST(SiteKeyTest, TypeAndSizeSeparatesSizesWithinType) {
  SiteKeyPolicy P = SiteKeyPolicy::typeAndSize();
  AllocRecord A;
  A.Size = 16;
  A.TypeId = 7;
  AllocRecord B;
  B.Size = 64;
  B.TypeId = 7;
  AllocRecord C;
  C.Size = 18; // Rounds to 20... same class as 17-20.
  C.TypeId = 7;
  AllocRecord D;
  D.Size = 17;
  D.TypeId = 7;
  EXPECT_NE(siteKeyForRecord(P, 0, A), siteKeyForRecord(P, 0, B));
  EXPECT_EQ(siteKeyForRecord(P, 0, C), siteKeyForRecord(P, 0, D));
}

TEST(SiteKeyTest, TypePoliciesRoundTripThroughDatabase) {
  SiteDatabase DB(SiteKeyPolicy::typeAndSize(8), 16384);
  DB.insert(42);
  std::stringstream SS;
  DB.save(SS);
  auto Loaded = SiteDatabase::load(SS);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->policy().Mode, SiteKeyMode::TypeAndSize);
  EXPECT_EQ(Loaded->policy().SizeRounding, 8u);
}

TEST(TypePredictionTest, SharedTypeMixesLifetimesButChainSeparates) {
  // Two sites allocate the same struct: one short-lived, one long-lived.
  // Type-based training must reject the type; chain-based training keeps
  // the short site.
  AllocationTrace T;
  uint32_t ShortChain = T.internChain(CallChain{1, 2});
  uint32_t LongChain = T.internChain(CallChain{1, 3});
  for (int I = 0; I < 50; ++I) {
    AllocRecord R;
    R.Lifetime = 100;
    R.Size = 24;
    R.ChainIndex = ShortChain;
    R.TypeId = 5;
    T.append(R);
  }
  {
    AllocRecord R;
    R.Lifetime = 900000;
    R.Size = 24;
    R.ChainIndex = LongChain;
    R.TypeId = 5;
    T.append(R);
  }
  for (int I = 0; I < 300; ++I) {
    AllocRecord R;
    R.Lifetime = 10;
    R.Size = 4096;
    R.ChainIndex = ShortChain;
    R.TypeId = 6;
    T.append(R);
  }

  PipelineResult ByType =
      trainAndEvaluate(T, T, SiteKeyPolicy::typeOnly());
  PipelineResult ByChain =
      trainAndEvaluate(T, T, SiteKeyPolicy::completeChain());
  // Type 5 is mixed -> rejected; type 6 qualifies.
  EXPECT_EQ(ByType.Database.size(), 1u);
  // Chains separate the short 24-byte site from the long one.
  EXPECT_GT(ByChain.Report.PredictedShortBytes,
            ByType.Report.PredictedShortBytes);
}

TEST(LifetimeClassifierTest, SitesLandInSmallestFittingBand) {
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  AllocationTrace T;
  uint32_t Fast = T.internChain(CallChain{1});
  uint32_t Medium = T.internChain(CallChain{2});
  uint32_t Slow = T.internChain(CallChain{3});
  for (int I = 0; I < 20; ++I)
    T.append({1000, 16, Fast, 0});
  for (int I = 0; I < 20; ++I)
    T.append({20000, 16, Medium, 0});
  for (int I = 0; I < 20; ++I)
    T.append({500000, 16, Slow, 0});
  for (int I = 0; I < 200; ++I)
    T.append({NeverFreed, 4096, T.internChain(CallChain{4}), 0});
  Profile P = profileTrace(T, Policy);

  ClassDatabase DB =
      trainClassDatabase(P, Policy, {4 * 1024, 32 * 1024});
  EXPECT_EQ(DB.classify(siteKey(Policy, CallChain{1}, 16)), 0);
  EXPECT_EQ(DB.classify(siteKey(Policy, CallChain{2}, 16)), 1);
  EXPECT_EQ(DB.classify(siteKey(Policy, CallChain{3}, 16)),
            UnclassifiedLifetime);
  EXPECT_EQ(DB.sitesInClass(0), 1u);
  EXPECT_EQ(DB.sitesInClass(1), 1u);
}

TEST(LifetimeClassifierTest, UnsortedThresholdsAreSorted) {
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  AllocationTrace T;
  uint32_t C = T.internChain(CallChain{1});
  for (int I = 0; I < 10; ++I)
    T.append({1000, 16, C, 0});
  for (int I = 0; I < 50; ++I)
    T.append({NeverFreed, 4096, T.internChain(CallChain{2}), 0});
  Profile P = profileTrace(T, Policy);
  ClassDatabase DB =
      trainClassDatabase(P, Policy, {32 * 1024, 4 * 1024});
  // Band 0 must be the 4 KB band after sorting.
  EXPECT_EQ(DB.thresholds().front(), 4u * 1024);
  EXPECT_EQ(DB.classify(siteKey(Policy, CallChain{1}, 16)), 0);
}

TEST(GeneratedAllocatorTest, HeaderContainsSortedKeysAndPredicate) {
  SiteKeyPolicy Policy = SiteKeyPolicy::lastN(4);
  SiteDatabase DB(Policy, 32768);
  DB.insert(900);
  DB.insert(100);
  DB.insert(500);
  std::stringstream OS;
  emitSiteDatabaseHeader(DB, OS);
  std::string Header = OS.str();
  EXPECT_NE(Header.find("inline constexpr uint64_t SiteKeyCount = 3"),
            std::string::npos);
  EXPECT_NE(Header.find("isPredictedShortLived"), std::string::npos);
  EXPECT_NE(Header.find("ShortLivedThreshold = 32768"), std::string::npos);
  // Keys are emitted sorted.
  size_t P100 = Header.find("100ull");
  size_t P500 = Header.find("500ull");
  size_t P900 = Header.find("900ull");
  ASSERT_NE(P100, std::string::npos);
  ASSERT_NE(P500, std::string::npos);
  ASSERT_NE(P900, std::string::npos);
  EXPECT_LT(P100, P500);
  EXPECT_LT(P500, P900);
  // The guard and namespace are configurable.
  EmitHeaderOptions Options;
  Options.Namespace = "my_profile";
  Options.Guard = "MY_GUARD_H";
  std::stringstream OS2;
  emitSiteDatabaseHeader(DB, OS2, Options);
  EXPECT_NE(OS2.str().find("namespace my_profile"), std::string::npos);
  EXPECT_NE(OS2.str().find("#ifndef MY_GUARD_H"), std::string::npos);
}

TEST(GeneratedAllocatorTest, EmptyDatabaseStillCompilesShape) {
  SiteDatabase DB(SiteKeyPolicy::completeChain(), 32768);
  std::stringstream OS;
  emitSiteDatabaseHeader(DB, OS);
  EXPECT_NE(OS.str().find("SiteKeyCount = 0"), std::string::npos);
  EXPECT_NE(OS.str().find("Placeholder"), std::string::npos);
}

TEST(ThresholdSelectorTest, EmptyProfileSelectsNothing) {
  Profile Empty;
  ThresholdSelection S = selectThreshold(Empty);
  for (const ThresholdCandidate &C : S.Candidates) {
    EXPECT_EQ(C.QualifyingSites, 0u);
    EXPECT_DOUBLE_EQ(C.CoveragePercent, 0.0);
  }
}

TEST(ProfilerTest, HistogramSummarizesSiteLifetimes) {
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  AllocationTrace T;
  uint32_t C = T.internChain(CallChain{1});
  for (int I = 1; I <= 100; ++I)
    T.append({static_cast<uint64_t>(I * 10), 16, C, 0});
  for (int I = 0; I < 50; ++I)
    T.append({NeverFreed, 4096, T.internChain(CallChain{2}), 0});
  Profile P = profileTrace(T, Policy);
  const SiteStats &Stats =
      P.Sites.at(siteKey(Policy, CallChain{1}, 16));
  EXPECT_EQ(Stats.Lifetimes.count(), 100u);
  EXPECT_DOUBLE_EQ(Stats.Lifetimes.min(), 10.0);
  EXPECT_DOUBLE_EQ(Stats.Lifetimes.max(), 1000.0);
  EXPECT_NEAR(Stats.Lifetimes.quantile(0.5), 500.0, 60.0);
}

TEST(ProfilerTest, RefsAccumulatePerSite) {
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  AllocationTrace T;
  uint32_t C = T.internChain(CallChain{1});
  T.append({10, 16, C, 7});
  T.append({10, 16, C, 3});
  Profile P = profileTrace(T, Policy);
  EXPECT_EQ(P.Sites.at(siteKey(Policy, CallChain{1}, 16)).Refs, 10u);
  EXPECT_EQ(P.TotalHeapRefs, 10u);
}
