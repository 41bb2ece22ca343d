//===- tests/trace_test.cpp - Trace storage and replay tests ---------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "callchain/ChainEncryption.h"
#include "trace/AllocationTrace.h"
#include "trace/CompiledTrace.h"
#include "support/Random.h"
#include "trace/TraceBinaryIO.h"
#include "trace/TraceIO.h"
#include "trace/TraceReplayer.h"
#include "trace/TraceStats.h"
#include "verify/TraceFuzzer.h"

#include "gtest/gtest.h"

#include <cstring>
#include <sstream>
#include <vector>

using namespace lifepred;

namespace {

/// Records the replay event sequence for inspection.
class RecordingConsumer : public TraceConsumer {
public:
  struct Event {
    char Kind; // 'A', 'F', or 'E'
    uint64_t Id;
    uint64_t Clock;
  };

  void onAlloc(uint64_t Id, const AllocRecord &, uint64_t Clock) override {
    Events.push_back({'A', Id, Clock});
  }
  void onFree(uint64_t Id, const AllocRecord &, uint64_t Clock) override {
    Events.push_back({'F', Id, Clock});
  }
  void onEnd(uint64_t Clock) override { Events.push_back({'E', 0, Clock}); }

  std::vector<Event> Events;
};

AllocationTrace smallTrace() {
  AllocationTrace T;
  uint32_t Chain = T.internChain(CallChain{1, 2});
  // Object 0: 10 bytes, dies after 15 more bytes are allocated.
  T.append({15, 10, Chain, 3});
  // Object 1: 10 bytes, dies immediately-ish.
  T.append({5, 10, Chain, 1});
  // Object 2: 10 bytes, never freed.
  T.append({NeverFreed, 10, Chain, 2});
  return T;
}

} // namespace

TEST(AllocationTraceTest, InternChainDeduplicates) {
  AllocationTrace T;
  uint32_t A = T.internChain(CallChain{1, 2, 3});
  uint32_t B = T.internChain(CallChain{1, 2, 3});
  uint32_t C = T.internChain(CallChain{1, 2});
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_EQ(T.chainCount(), 2u);
  EXPECT_EQ(T.chain(A), (CallChain{1, 2, 3}));
}

TEST(AllocationTraceTest, TotalBytes) {
  AllocationTrace T = smallTrace();
  EXPECT_EQ(T.totalBytes(), 30u);
  EXPECT_EQ(T.size(), 3u);
}

TEST(TraceReplayerTest, EventOrderFollowsByteClock) {
  AllocationTrace T = smallTrace();
  RecordingConsumer C;
  replayTrace(T, C);

  // Expected: A0 (clock 10), A1 (clock 20).  Both objects die at clock
  // 25, which allocation 2 (clock 20 -> 30) crosses, so both frees fire
  // before it (ordered by (death clock, id): obj0 then obj1).
  ASSERT_EQ(C.Events.size(), 6u);
  EXPECT_EQ(C.Events[0].Kind, 'A');
  EXPECT_EQ(C.Events[0].Id, 0u);
  EXPECT_EQ(C.Events[0].Clock, 10u);
  EXPECT_EQ(C.Events[1].Kind, 'A');
  EXPECT_EQ(C.Events[1].Id, 1u);
  // Both deaths (clock 25) fire before the clock-30 allocation.
  EXPECT_EQ(C.Events[2].Kind, 'F');
  EXPECT_EQ(C.Events[3].Kind, 'F');
  EXPECT_EQ(C.Events[4].Kind, 'A');
  EXPECT_EQ(C.Events[4].Id, 2u);
  EXPECT_EQ(C.Events[5].Kind, 'E');
  EXPECT_EQ(C.Events[5].Clock, 30u);
}

TEST(TraceReplayerTest, NeverFreedObjectsGetNoFree) {
  AllocationTrace T;
  uint32_t Chain = T.internChain(CallChain{1});
  T.append({NeverFreed, 8, Chain, 0});
  RecordingConsumer C;
  replayTrace(T, C);
  ASSERT_EQ(C.Events.size(), 2u);
  EXPECT_EQ(C.Events[0].Kind, 'A');
  EXPECT_EQ(C.Events[1].Kind, 'E');
}

TEST(TraceReplayerTest, DeathsPastEndDrainBeforeEnd) {
  AllocationTrace T;
  uint32_t Chain = T.internChain(CallChain{1});
  T.append({1000000, 8, Chain, 0}); // Dies long after the trace ends.
  RecordingConsumer C;
  replayTrace(T, C);
  ASSERT_EQ(C.Events.size(), 3u);
  EXPECT_EQ(C.Events[1].Kind, 'F');
  EXPECT_EQ(C.Events[2].Kind, 'E');
}

TEST(TraceReplayerTest, EveryAllocFreedExactlyOnce) {
  AllocationTrace T;
  uint32_t Chain = T.internChain(CallChain{1});
  for (int I = 0; I < 100; ++I)
    T.append({static_cast<uint64_t>((I * 37) % 200 + 1), 16, Chain, 0});
  RecordingConsumer C;
  replayTrace(T, C);
  std::vector<int> Allocs(100, 0), Frees(100, 0);
  for (const auto &E : C.Events) {
    if (E.Kind == 'A')
      ++Allocs[E.Id];
    if (E.Kind == 'F')
      ++Frees[E.Id];
  }
  for (int I = 0; I < 100; ++I) {
    EXPECT_EQ(Allocs[I], 1);
    EXPECT_EQ(Frees[I], 1);
  }
}

TEST(TraceReplayerTest, FreeNeverPrecedesItsAlloc) {
  AllocationTrace T;
  uint32_t Chain = T.internChain(CallChain{1});
  for (int I = 0; I < 50; ++I)
    T.append({1, 16, Chain, 0}); // Every object dies almost immediately.
  RecordingConsumer C;
  replayTrace(T, C);
  std::vector<bool> Born(50, false);
  for (const auto &E : C.Events) {
    if (E.Kind == 'A')
      Born[E.Id] = true;
    if (E.Kind == 'F') {
      EXPECT_TRUE(Born[E.Id]);
    }
  }
}

TEST(CompiledTraceTest, RecordKeysEqualSiteKeyUnderEveryPolicy) {
  // A typed trace whose chains repeat functions (so pruning matters) and
  // include the empty chain: every compiled key must equal the reference
  // siteKey() of its record under all six policies.
  Rng R(19);
  AllocationTrace T;
  std::vector<uint32_t> Chains;
  for (int I = 0; I < 16; ++I) {
    CallChain Chain;
    unsigned Depth = static_cast<unsigned>(R.nextBelow(9));
    for (unsigned D = 0; D < Depth; ++D)
      Chain.push(static_cast<FunctionId>(R.nextBelow(6)));
    Chains.push_back(T.internChain(Chain));
  }
  for (int I = 0; I < 4000; ++I) {
    AllocRecord Record;
    Record.Lifetime = R.nextBelow(8000);
    Record.Size = static_cast<uint32_t>(R.nextBelow(300));
    Record.ChainIndex = Chains[R.nextBelow(Chains.size())];
    Record.TypeId = static_cast<uint32_t>(R.nextBelow(5));
    T.append(Record);
  }
  ChainEncryption Encryption;
  for (FunctionId F = 0; F < 6; ++F)
    Encryption.setId(F, static_cast<ChainKey>(0x0101 * (F + 3)));
  for (const SiteKeyPolicy &Policy :
       {SiteKeyPolicy::completeChain(), SiteKeyPolicy::lastN(4),
        SiteKeyPolicy::sizeOnly(8), SiteKeyPolicy::encrypted(Encryption),
        SiteKeyPolicy::typeOnly(), SiteKeyPolicy::typeAndSize()}) {
    CompiledTrace Compiled(T, Policy);
    ASSERT_TRUE(Compiled.hasKeys());
    ASSERT_EQ(Compiled.recordKeys().size(), T.size());
    for (uint32_t Id = 0; Id < T.size(); ++Id) {
      const AllocRecord &Record = T.records()[Id];
      ASSERT_EQ(Compiled.keyFor(Id),
                siteKey(Policy, T.chain(Record.ChainIndex), Record.Size,
                        Record.TypeId))
          << "mode " << static_cast<int>(Policy.Mode) << " record " << Id;
    }
  }
}

TEST(TraceStatsTest, PeaksAndTotals) {
  AllocationTrace T = smallTrace();
  T.setNonHeapRefs(6);
  TraceStats S = computeTraceStats(T);
  EXPECT_EQ(S.TotalObjects, 3u);
  EXPECT_EQ(S.TotalBytes, 30u);
  // Objects 0 and 1 are simultaneously live (both die at clock 25 while
  // object 2 arrives at 30): peak 2 objects, 20 bytes.
  EXPECT_EQ(S.MaxLiveObjects, 2u);
  EXPECT_EQ(S.MaxLiveBytes, 20u);
  EXPECT_EQ(S.HeapRefs, 6u);
  EXPECT_DOUBLE_EQ(S.heapRefPercent(), 50.0);
  EXPECT_EQ(S.DistinctChains, 1u);
}

TEST(TraceIOTest, RoundTrip) {
  AllocationTrace T = smallTrace();
  T.setNonHeapRefs(42);
  std::stringstream SS;
  writeTrace(T, SS);
  auto Read = readTrace(SS);
  ASSERT_TRUE(Read.has_value());
  EXPECT_EQ(Read->size(), T.size());
  EXPECT_EQ(Read->chainCount(), T.chainCount());
  EXPECT_EQ(Read->nonHeapRefs(), 42u);
  for (size_t I = 0; I < T.size(); ++I) {
    EXPECT_EQ(Read->records()[I].Size, T.records()[I].Size);
    EXPECT_EQ(Read->records()[I].Lifetime, T.records()[I].Lifetime);
    EXPECT_EQ(Read->records()[I].ChainIndex, T.records()[I].ChainIndex);
    EXPECT_EQ(Read->records()[I].Refs, T.records()[I].Refs);
  }
  EXPECT_EQ(Read->chain(0), T.chain(0));
}

TEST(TraceIOTest, RejectsMalformedInput) {
  {
    std::stringstream SS("not a trace\n");
    EXPECT_FALSE(readTrace(SS).has_value());
  }
  {
    std::stringstream SS("trace v1\nalloc 8 0 never 0\n"); // Chain missing.
    EXPECT_FALSE(readTrace(SS).has_value());
  }
  {
    std::stringstream SS("trace v1\nchain 0 1 2\nalloc 8 0 bogus 0\n");
    EXPECT_FALSE(readTrace(SS).has_value());
  }
  {
    std::stringstream SS("trace v1\nwhatisthis 3\n");
    EXPECT_FALSE(readTrace(SS).has_value());
  }
}

TEST(TraceIOTest, EmptyTraceRoundTrips) {
  AllocationTrace T;
  std::stringstream SS;
  writeTrace(T, SS);
  auto Read = readTrace(SS);
  ASSERT_TRUE(Read.has_value());
  EXPECT_EQ(Read->size(), 0u);
}

TEST(TraceIOTest, TypeIdRoundTrips) {
  AllocationTrace T;
  uint32_t Chain = T.internChain(CallChain{1});
  AllocRecord R;
  R.Lifetime = 100;
  R.Size = 16;
  R.ChainIndex = Chain;
  R.Refs = 2;
  R.TypeId = 77;
  T.append(R);
  R.TypeId = 0; // Untyped records serialize without the field.
  T.append(R);
  std::stringstream SS;
  writeTrace(T, SS);
  auto Read = readTrace(SS);
  ASSERT_TRUE(Read.has_value());
  EXPECT_EQ(Read->records()[0].TypeId, 77u);
  EXPECT_EQ(Read->records()[1].TypeId, 0u);
}

TEST(TraceBinaryIOTest, RoundTrip) {
  AllocationTrace T = smallTrace();
  T.setNonHeapRefs(99);
  {
    AllocRecord R;
    R.Lifetime = 12345;
    R.Size = 64;
    R.ChainIndex = T.internChain(CallChain{9, 8, 7});
    R.Refs = 3;
    R.TypeId = 42;
    T.append(R);
  }
  std::stringstream SS;
  writeTraceBinary(T, SS);
  auto Read = readTraceBinary(SS);
  ASSERT_TRUE(Read.has_value());
  EXPECT_EQ(Read->size(), T.size());
  EXPECT_EQ(Read->chainCount(), T.chainCount());
  EXPECT_EQ(Read->nonHeapRefs(), 99u);
  for (size_t I = 0; I < T.size(); ++I) {
    EXPECT_EQ(Read->records()[I].Lifetime, T.records()[I].Lifetime);
    EXPECT_EQ(Read->records()[I].Size, T.records()[I].Size);
    EXPECT_EQ(Read->records()[I].ChainIndex, T.records()[I].ChainIndex);
    EXPECT_EQ(Read->records()[I].Refs, T.records()[I].Refs);
    EXPECT_EQ(Read->records()[I].TypeId, T.records()[I].TypeId);
  }
  for (size_t I = 0; I < T.chainCount(); ++I)
    EXPECT_EQ(Read->chain(static_cast<uint32_t>(I)),
              T.chain(static_cast<uint32_t>(I)));
}

TEST(TraceBinaryIOTest, RejectsBadMagicAndTruncation) {
  {
    std::stringstream SS("not a binary trace");
    EXPECT_FALSE(readTraceBinary(SS).has_value());
  }
  {
    AllocationTrace T = smallTrace();
    std::stringstream SS;
    writeTraceBinary(T, SS);
    std::string Bytes = SS.str();
    for (size_t Cut :
         {size_t(4), size_t(12), Bytes.size() / 2, Bytes.size() - 3}) {
      std::stringstream Truncated(Bytes.substr(0, Cut));
      EXPECT_FALSE(readTraceBinary(Truncated).has_value())
          << "cut at " << Cut;
    }
  }
}

TEST(TraceBinaryIOTest, EmptyTraceRoundTrips) {
  AllocationTrace T;
  std::stringstream SS;
  writeTraceBinary(T, SS);
  auto Read = readTraceBinary(SS);
  ASSERT_TRUE(Read.has_value());
  EXPECT_EQ(Read->size(), 0u);
  EXPECT_EQ(Read->chainCount(), 0u);
}

TEST(TraceBinaryIOTest, BinarySmallerThanTextAtRealisticMagnitudes) {
  // Realistic traces carry multi-digit lifetimes and refs, where the
  // fixed 24-byte record beats its decimal rendering.
  AllocationTrace T;
  uint32_t Chain = T.internChain(CallChain{1, 2, 3});
  for (int I = 0; I < 1000; ++I) {
    AllocRecord R;
    R.Lifetime = 10000000 + static_cast<uint64_t>(I) * 1000;
    R.Size = 1048;
    R.ChainIndex = Chain;
    R.Refs = 15000;
    R.TypeId = 12;
    T.append(R);
  }
  std::stringstream Text, Binary;
  writeTrace(T, Text);
  writeTraceBinary(T, Binary);
  EXPECT_LT(Binary.str().size(), Text.str().size());
}

TEST(TraceBinaryIOTest, StructuredMutationRoundTrip) {
  // The verify-layer structured fuzzer: pristine round-trips must be
  // byte-faithful, and truncations, bit flips, header splices, and
  // trailing garbage must either parse into a structurally valid trace or
  // be rejected cleanly -- never crash.
  std::string Error;
  BinaryFuzzStats Stats;
  ASSERT_TRUE(fuzzBinaryRoundTrip(/*Seed=*/0xb17f11f, /*Cases=*/6, Error,
                                  &Stats))
      << Error;
  EXPECT_EQ(Stats.Cases, Stats.Accepted + Stats.Rejected);
  // Truncations of a valid stream must be rejected, so both buckets are
  // exercised.
  EXPECT_GT(Stats.Rejected, 0u);
}

TEST(TraceBinaryIOTest, FuzzRandomBytesNeverCrash) {
  Rng R(0xf022);
  for (int Trial = 0; Trial < 200; ++Trial) {
    std::string Bytes;
    size_t Len = R.nextBelow(200);
    for (size_t I = 0; I < Len; ++I)
      Bytes.push_back(static_cast<char>(R.nextBelow(256)));
    // Half the trials start with the valid magic to reach deeper parsing.
    if (Trial % 2 == 0 && Bytes.size() >= 8)
      std::memcpy(Bytes.data(), "LPTRACE1", 8);
    std::stringstream SS(Bytes);
    auto Result = readTraceBinary(SS); // Must not crash or hang.
    (void)Result;
  }
}
