//===- tests/support_test.cpp - Support library tests ----------------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"
#include "support/FlatAddressMap.h"
#include "support/Hashing.h"
#include "support/MathExtras.h"
#include "support/Random.h"
#include "support/TableFormatter.h"

#include "gtest/gtest.h"

#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <vector>

using namespace lifepred;

TEST(RngTest, DeterministicForSameSeed) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_LT(Same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng R(7);
  for (int I = 0; I < 10000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng R(9);
  for (uint64_t Bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int I = 0; I < 1000; ++I)
      EXPECT_LT(R.nextBelow(Bound), Bound);
  }
}

TEST(RngTest, NextBelowCoversSmallRange) {
  Rng R(11);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 1000; ++I)
    Seen.insert(R.nextBelow(5));
  EXPECT_EQ(Seen.size(), 5u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng R(13);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 5000; ++I) {
    int64_t V = R.nextInRange(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLo |= V == -3;
    SawHi |= V == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng R(17);
  double Sum = 0, SumSq = 0;
  const int N = 50000;
  for (int I = 0; I < N; ++I) {
    double G = R.nextGaussian();
    Sum += G;
    SumSq += G * G;
  }
  double Mean = Sum / N;
  double Var = SumSq / N - Mean * Mean;
  EXPECT_NEAR(Mean, 0.0, 0.03);
  EXPECT_NEAR(Var, 1.0, 0.05);
}

TEST(RngTest, WeightedSamplingMatchesWeights) {
  Rng R(19);
  std::vector<double> Weights = {1.0, 3.0, 6.0};
  std::vector<int> Counts(3, 0);
  const int N = 60000;
  for (int I = 0; I < N; ++I)
    ++Counts[R.nextWeighted(Weights)];
  EXPECT_NEAR(Counts[0] / double(N), 0.1, 0.01);
  EXPECT_NEAR(Counts[1] / double(N), 0.3, 0.015);
  EXPECT_NEAR(Counts[2] / double(N), 0.6, 0.015);
}

TEST(RngTest, ZeroWeightNeverSampled) {
  Rng R(23);
  std::vector<double> Weights = {0.0, 1.0, 0.0};
  for (int I = 0; I < 1000; ++I)
    EXPECT_EQ(R.nextWeighted(Weights), 1u);
}

TEST(RngTest, ForkedStreamsIndependent) {
  Rng A(31);
  Rng B = A.fork();
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_LT(Same, 2);
}

TEST(HashingTest, FnvMatchesKnownVector) {
  // FNV-1a of "a" is a published constant.
  EXPECT_EQ(hashBytes("a", 1), 0xaf63dc4c8601ec8cULL);
}

TEST(HashingTest, HashBytesDistinguishesContent) {
  EXPECT_NE(hashBytes("abc", 3), hashBytes("abd", 3));
  EXPECT_NE(hashBytes("abc", 3), hashBytes("ab", 2));
}

TEST(HashingTest, HashCombineOrderSensitive) {
  uint64_t A = hashCombine(hashCombine(FnvOffsetBasis, 1), 2);
  uint64_t B = hashCombine(hashCombine(FnvOffsetBasis, 2), 1);
  EXPECT_NE(A, B);
}

TEST(MathExtrasTest, PowerOfTwo) {
  EXPECT_FALSE(isPowerOf2(0));
  EXPECT_TRUE(isPowerOf2(1));
  EXPECT_TRUE(isPowerOf2(4096));
  EXPECT_FALSE(isPowerOf2(4097));
}

TEST(MathExtrasTest, AlignTo) {
  EXPECT_EQ(alignTo(0, 8), 0u);
  EXPECT_EQ(alignTo(1, 8), 8u);
  EXPECT_EQ(alignTo(8, 8), 8u);
  EXPECT_EQ(alignTo(9, 8), 16u);
  EXPECT_EQ(alignTo(13, 4), 16u);
}

TEST(MathExtrasTest, AlignDown) {
  EXPECT_EQ(alignDown(9, 8), 8u);
  EXPECT_EQ(alignDown(8, 8), 8u);
  EXPECT_EQ(alignDown(7, 8), 0u);
}

TEST(MathExtrasTest, Log2CeilAndNextPowerOf2) {
  EXPECT_EQ(log2Ceil(1), 0u);
  EXPECT_EQ(log2Ceil(2), 1u);
  EXPECT_EQ(log2Ceil(3), 2u);
  EXPECT_EQ(log2Ceil(4096), 12u);

  // The closed form agrees with the shift loop it replaced on every small
  // input, 0 included...
  auto LoopLog2Ceil = [](uint64_t Value) {
    unsigned Bits = 0;
    for (uint64_t Pow = 1; Pow < Value; Pow <<= 1)
      ++Bits;
    return Bits;
  };
  for (uint64_t Value = 0; Value <= (uint64_t(1) << 20); ++Value)
    ASSERT_EQ(log2Ceil(Value), LoopLog2Ceil(Value)) << "value " << Value;
  // ...is exact on both sides of every power of two...
  for (unsigned K = 1; K < 64; ++K) {
    const uint64_t Pow = uint64_t(1) << K;
    EXPECT_EQ(log2Ceil(Pow - 1), K == 1 ? 0u : K) << "2^" << K << " - 1";
    EXPECT_EQ(log2Ceil(Pow), K) << "2^" << K;
    EXPECT_EQ(log2Ceil(Pow + 1), K + 1) << "2^" << K << " + 1";
  }
  // ...and terminates above 2^63, where the loop's power overflowed to 0.
  EXPECT_EQ(log2Ceil((uint64_t(1) << 63) + 1), 64u);
  EXPECT_EQ(log2Ceil(~uint64_t(0)), 64u);

  EXPECT_EQ(nextPowerOf2(5), 8u);
  EXPECT_EQ(nextPowerOf2(8), 8u);
}

TEST(MathExtrasTest, Percent) {
  EXPECT_DOUBLE_EQ(percent(1, 4), 25.0);
  EXPECT_DOUBLE_EQ(percent(1, 0), 0.0);
}

TEST(TableFormatterTest, AlignsAndSeparatesThousands) {
  TableFormatter Table({"Name", "Value"});
  Table.beginRow();
  Table.addCell("row");
  Table.addInt(1234567);
  std::ostringstream OS;
  Table.print(OS);
  EXPECT_NE(OS.str().find("1,234,567"), std::string::npos);
  EXPECT_NE(OS.str().find("Name"), std::string::npos);
}

TEST(TableFormatterTest, NegativeNumbers) {
  EXPECT_EQ(TableFormatter::withThousands(-1234), "-1,234");
  EXPECT_EQ(TableFormatter::withThousands(0), "0");
}

TEST(CommandLineTest, ParsesFlagsAndPositional) {
  const char *Argv[] = {"prog", "--scale=0.5", "--verbose", "input.txt",
                        "--seed=42"};
  CommandLine Cl(5, Argv);
  EXPECT_TRUE(Cl.has("verbose"));
  EXPECT_FALSE(Cl.has("quiet"));
  EXPECT_DOUBLE_EQ(Cl.getDouble("scale", 1.0), 0.5);
  EXPECT_EQ(Cl.getInt("seed", 0), 42);
  ASSERT_EQ(Cl.positional().size(), 1u);
  EXPECT_EQ(Cl.positional()[0], "input.txt");
}

TEST(CommandLineTest, MalformedNumbersExitWithUsageError) {
  const char *Argv[] = {"prog", "--seed=abc", "--jobs=", "--scale=0.5x",
                        "--window=1x"};
  CommandLine Cl(5, Argv);
  EXPECT_EQ(Cl.getString("seed", ""), "abc");
  EXPECT_EQ(Cl.getInt("absent", 7), 7);
  EXPECT_EXIT(Cl.getInt("seed", 7), ::testing::ExitedWithCode(2),
              "error: --seed=abc: want a number");
  EXPECT_EXIT(Cl.getInt("jobs", 0), ::testing::ExitedWithCode(2),
              "error: --jobs=: want a number");
  EXPECT_EXIT(Cl.getInt("window", 0), ::testing::ExitedWithCode(2),
              "error: --window=1x: want a number");
  EXPECT_EXIT(Cl.getDouble("scale", 1.0), ::testing::ExitedWithCode(2),
              "error: --scale=0.5x: want a number");
}

//===----------------------------------------------------------------------===//
// FlatAddressMap
//===----------------------------------------------------------------------===//

namespace {

/// The map's home slot for \p Key in a table of 2^Bits slots (the same
/// Fibonacci multiply the map uses), so a test can build probe runs at
/// chosen positions.
size_t flatHome(uint64_t Key, unsigned Bits) {
  return static_cast<size_t>((Key * 0x9e3779b97f4a7c15ULL) >> (64 - Bits));
}

/// The first \p Count 16-aligned addresses at or above \p From whose home
/// slot in a 16-slot table is \p Home.
std::vector<uint64_t> keysWithHome(size_t Home, size_t Count,
                                   uint64_t From = uint64_t(1) << 20) {
  std::vector<uint64_t> Keys;
  for (uint64_t Key = From; Keys.size() < Count; Key += 16)
    if (flatHome(Key, 4) == Home)
      Keys.push_back(Key);
  return Keys;
}

/// Every entry of \p Map, as forEach() reports it, checking that no key is
/// visited twice.
std::map<uint64_t, uint32_t> flatEntries(const FlatAddressMap &Map) {
  std::map<uint64_t, uint32_t> Entries;
  Map.forEach([&](uint64_t Key, uint32_t Value) {
    EXPECT_TRUE(Entries.emplace(Key, Value).second) << "visited twice: "
                                                    << Key;
  });
  return Entries;
}

} // namespace

TEST(FlatAddressMapTest, MatchesUnorderedMapUnderClusteredChurn) {
  // Addresses as real heaps produce them: a few dense clusters of 8- and
  // 16-aligned blocks, inserted and freed in random order.
  const uint64_t Bases[] = {0, uint64_t(1) << 20, uint64_t(1) << 30,
                            uint64_t(1) << 41};
  Rng R(1993);
  FlatAddressMap Map;
  std::unordered_map<uint64_t, uint32_t> Oracle;
  std::vector<uint64_t> Keys; // Oracle's keys, for picking live victims.
  for (int Op = 0; Op < 200000; ++Op) {
    uint64_t Align = R.nextBool(0.5) ? 8 : 16;
    uint64_t Key = Bases[R.nextBelow(4)] + R.nextBelow(4096) * Align;
    switch (R.nextBelow(3)) {
    case 0: { // Insert (or overwrite).
      auto Value = static_cast<uint32_t>(R.next());
      if (Oracle.insert_or_assign(Key, Value).second)
        Keys.push_back(Key);
      Map.insert(Key, Value);
      break;
    }
    case 1: { // Erase a live key.
      if (Keys.empty())
        break;
      size_t Pick = R.nextBelow(Keys.size());
      uint64_t Victim = Keys[Pick];
      Keys[Pick] = Keys.back();
      Keys.pop_back();
      ASSERT_EQ(Map.erase(Victim), Oracle.at(Victim)) << "op " << Op;
      Oracle.erase(Victim);
      break;
    }
    default: { // Look up a key that may or may not be live.
      auto It = Oracle.find(Key);
      const uint32_t *Found = Map.find(Key);
      ASSERT_EQ(Found != nullptr, It != Oracle.end()) << "op " << Op;
      ASSERT_EQ(Map.contains(Key), It != Oracle.end());
      if (Found) {
        ASSERT_EQ(*Found, It->second);
      }
      break;
    }
    }
    ASSERT_EQ(Map.size(), Oracle.size()) << "op " << Op;
    ASSERT_LE(2 * Map.size(), Map.capacity());
  }
  std::map<uint64_t, uint32_t> Expected(Oracle.begin(), Oracle.end());
  EXPECT_EQ(flatEntries(Map), Expected);
}

TEST(FlatAddressMapTest, EraseRepairsARunThatWrapsPastTheEnd) {
  // Three keys homed at the last slot of a 16-slot table wrap to slots 0
  // and 1; a fourth key homed at slot 0 lands behind them in slot 2.
  std::vector<uint64_t> Last = keysWithHome(15, 3);
  uint64_t AtZero = keysWithHome(0, 1)[0];
  FlatAddressMap Map;
  for (uint64_t Key : Last)
    Map.insert(Key, static_cast<uint32_t>(Key >> 4));
  Map.insert(AtZero, 7);
  ASSERT_EQ(Map.capacity(), 16u);

  // Erasing the run's head must pull every survivor back across the end
  // of the table, or the wrapped keys become unreachable.
  EXPECT_EQ(Map.erase(Last[0]), static_cast<uint32_t>(Last[0] >> 4));
  EXPECT_FALSE(Map.contains(Last[0]));
  for (uint64_t Key : {Last[1], Last[2]}) {
    ASSERT_NE(Map.find(Key), nullptr);
    EXPECT_EQ(*Map.find(Key), static_cast<uint32_t>(Key >> 4));
  }
  ASSERT_NE(Map.find(AtZero), nullptr);
  EXPECT_EQ(*Map.find(AtZero), 7u);

  // Erasing the wrapped middle of the run must keep the key behind it.
  EXPECT_EQ(Map.erase(Last[2]), static_cast<uint32_t>(Last[2] >> 4));
  EXPECT_TRUE(Map.contains(Last[1]));
  EXPECT_TRUE(Map.contains(AtZero));
  EXPECT_EQ(Map.erase(AtZero), 7u);
  EXPECT_EQ(Map.erase(Last[1]), static_cast<uint32_t>(Last[1] >> 4));
  EXPECT_TRUE(Map.empty());
  EXPECT_TRUE(flatEntries(Map).empty());
  EXPECT_EQ(Map.capacity(), 16u);
}

TEST(FlatAddressMapTest, GrowsAcrossSeveralDoublings) {
  FlatAddressMap Map;
  EXPECT_EQ(Map.capacity(), 0u);
  std::vector<size_t> Capacities;
  for (uint64_t I = 0; I < 5000; ++I) {
    Map.insert((uint64_t(1) << 41) + 16 * I, static_cast<uint32_t>(I));
    if (Capacities.empty() || Capacities.back() != Map.capacity())
      Capacities.push_back(Map.capacity());
    ASSERT_LE(2 * Map.size(), Map.capacity());
  }
  // 16 -> 32 -> ... -> 16384: ten doublings, never more than half full.
  ASSERT_EQ(Capacities.size(), 11u);
  for (size_t I = 0; I < Capacities.size(); ++I)
    EXPECT_EQ(Capacities[I], size_t(16) << I);
  EXPECT_EQ(Map.size(), 5000u);
  for (uint64_t I = 0; I < 5000; ++I) {
    const uint32_t *Found = Map.find((uint64_t(1) << 41) + 16 * I);
    ASSERT_NE(Found, nullptr);
    EXPECT_EQ(*Found, I);
  }
}

TEST(FlatAddressMapTest, AddressZeroIsALegalKey) {
  FlatAddressMap Map;
  EXPECT_FALSE(Map.contains(0));
  EXPECT_EQ(Map.find(0), nullptr);
  Map.insert(0, 42);
  Map.insert(8, 43);
  EXPECT_TRUE(Map.contains(0));
  ASSERT_NE(Map.find(0), nullptr);
  EXPECT_EQ(*Map.find(0), 42u);
  Map.insert(0, 44); // Overwrites in place.
  EXPECT_EQ(Map.size(), 2u);
  EXPECT_EQ(Map.erase(0), 44u);
  EXPECT_FALSE(Map.contains(0));
  EXPECT_TRUE(Map.contains(8));
  EXPECT_EQ(Map.size(), 1u);
}

TEST(FlatAddressMapTest, ForEachVisitsEachLiveEntryOnce) {
  FlatAddressMap Map;
  std::map<uint64_t, uint32_t> Expected;
  for (uint64_t I = 0; I < 300; ++I) {
    uint64_t Key = (uint64_t(1) << 20) + 8 * I;
    Map.insert(Key, static_cast<uint32_t>(3 * I));
    Expected[Key] = static_cast<uint32_t>(3 * I);
  }
  for (uint64_t I = 0; I < 300; I += 3) {
    uint64_t Key = (uint64_t(1) << 20) + 8 * I;
    EXPECT_EQ(Map.erase(Key), Expected.at(Key));
    Expected.erase(Key);
  }
  EXPECT_EQ(flatEntries(Map), Expected);
}
