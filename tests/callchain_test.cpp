//===- tests/callchain_test.cpp - Call-chain abstraction tests -------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "callchain/CallChain.h"
#include "callchain/ChainEncryption.h"
#include "callchain/FunctionRegistry.h"
#include "callchain/ShadowStack.h"
#include "support/Random.h"
#include "trace/AllocationTrace.h"
#include "workloads/Programs.h"
#include "workloads/WorkloadRunner.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

using namespace lifepred;

TEST(CallChainTest, PushPopDepth) {
  CallChain C;
  EXPECT_TRUE(C.empty());
  C.push(1);
  C.push(2);
  EXPECT_EQ(C.depth(), 2u);
  EXPECT_EQ(C.innermost(), 2u);
  C.pop();
  EXPECT_EQ(C.innermost(), 1u);
}

TEST(CallChainTest, LastNTakesInnermost) {
  CallChain C = {1, 2, 3, 4, 5};
  EXPECT_EQ(C.lastN(2), (CallChain{4, 5}));
  EXPECT_EQ(C.lastN(1), (CallChain{5}));
  EXPECT_EQ(C.lastN(5), C);
  EXPECT_EQ(C.lastN(99), C); // Longer than the chain: whole chain.
  EXPECT_EQ(C.lastN(0), CallChain{});
}

TEST(CallChainTest, PruningCollapsesSimpleCycle) {
  // main > eval > eval > eval > apply: the recursion collapses.
  CallChain C = {1, 2, 2, 2, 3};
  EXPECT_EQ(C.pruned(), (CallChain{1, 2, 3}));
}

TEST(CallChainTest, PruningCollapsesLongCycle) {
  // main > a > b > a > b > c: the a>b cycle collapses back to the first a.
  CallChain C = {1, 2, 3, 2, 3, 4};
  EXPECT_EQ(C.pruned(), (CallChain{1, 2, 3, 4}));
}

TEST(CallChainTest, PruningIsIdempotent) {
  Rng R(3);
  for (int Trial = 0; Trial < 200; ++Trial) {
    CallChain C;
    for (int I = 0; I < 12; ++I)
      C.push(static_cast<FunctionId>(R.nextBelow(5)));
    CallChain Once = C.pruned();
    EXPECT_EQ(Once.pruned(), Once);
  }
}

TEST(CallChainTest, PrunedChainHasNoRepeats) {
  Rng R(4);
  for (int Trial = 0; Trial < 200; ++Trial) {
    CallChain C;
    for (int I = 0; I < 16; ++I)
      C.push(static_cast<FunctionId>(R.nextBelow(6)));
    CallChain P = C.pruned();
    std::set<FunctionId> Seen(P.functions().begin(), P.functions().end());
    EXPECT_EQ(Seen.size(), P.depth());
  }
}

TEST(CallChainTest, PruningPreservesInnermostFunction) {
  Rng R(5);
  for (int Trial = 0; Trial < 200; ++Trial) {
    CallChain C;
    for (int I = 0; I < 10; ++I)
      C.push(static_cast<FunctionId>(R.nextBelow(4)));
    EXPECT_EQ(C.pruned().innermost(), C.innermost());
  }
}

TEST(CallChainTest, PruningNoOpWithoutCycles) {
  CallChain C = {1, 2, 3, 4};
  EXPECT_EQ(C.pruned(), C);
}

TEST(CallChainTest, HashDistinguishesOrderAndLength) {
  EXPECT_NE((CallChain{1, 2}).hash(), (CallChain{2, 1}).hash());
  EXPECT_NE((CallChain{1, 2}).hash(), (CallChain{1, 2, 2}).hash());
  EXPECT_NE((CallChain{1}).hash(), (CallChain{1, 1}).hash());
  EXPECT_EQ((CallChain{1, 2, 3}).hash(), (CallChain{1, 2, 3}).hash());
}

TEST(CallChainTest, HashCollisionsRareAcrossRandomChains) {
  Rng R(6);
  std::set<uint64_t> Hashes;
  std::set<std::vector<FunctionId>> Chains;
  for (int Trial = 0; Trial < 5000; ++Trial) {
    CallChain C;
    unsigned Depth = 1 + static_cast<unsigned>(R.nextBelow(8));
    for (unsigned I = 0; I < Depth; ++I)
      C.push(static_cast<FunctionId>(R.nextBelow(50)));
    Chains.insert(C.functions());
    Hashes.insert(C.hash());
  }
  EXPECT_EQ(Hashes.size(), Chains.size());
}

namespace {

/// Counts windows that share a hash with a different window: sorts
/// (hash, window) pairs, so repeated windows are not counted.
template <size_t N>
size_t countHashCollisions(
    std::vector<std::pair<uint64_t, std::array<FunctionId, N>>> Entries) {
  std::sort(Entries.begin(), Entries.end());
  size_t Collisions = 0;
  for (size_t I = 1; I < Entries.size(); ++I)
    if (Entries[I].first == Entries[I - 1].first &&
        Entries[I].second != Entries[I - 1].second)
      ++Collisions;
  return Collisions;
}

uint64_t hashWindow(const std::array<FunctionId, 4> &Window) {
  return hashFrames(Window.data(), Window.size());
}

} // namespace

TEST(CallChainHashTest, PermutationsOfAWindowNeverCollide) {
  for (std::array<FunctionId, 4> Window :
       {std::array<FunctionId, 4>{1, 2, 3, 4},
        std::array<FunctionId, 4>{0, 0x10000, 0xfffffffe, 0xffffffff},
        std::array<FunctionId, 4>{0x4005d0, 0x4005d8, 0x4005e0, 0x4005e8}}) {
    std::sort(Window.begin(), Window.end());
    std::set<uint64_t> Hashes;
    size_t Permutations = 0;
    do {
      Hashes.insert(hashWindow(Window));
      ++Permutations;
    } while (std::next_permutation(Window.begin(), Window.end()));
    EXPECT_EQ(Permutations, 24u);
    EXPECT_EQ(Hashes.size(), Permutations);
  }
}

TEST(CallChainHashTest, SingleFrameChangesNeverCollide) {
  // Every window that differs from a base in one position, by any id in
  // [0, 2^16) or the top 2^16 ids: 4 x 2^17 windows around each base.
  for (const std::array<FunctionId, 4> &Base :
       {std::array<FunctionId, 4>{10, 20, 30, 40},
        std::array<FunctionId, 4>{0xffffff00, 0x7fffffff, 0x80000000, 5}}) {
    std::vector<std::pair<uint64_t, std::array<FunctionId, 4>>> Entries;
    for (size_t Pos = 0; Pos < 4; ++Pos)
      for (uint32_t Low = 0; Low < (1u << 16); ++Low)
        for (FunctionId Id : {Low, UINT32_MAX - Low}) {
          std::array<FunctionId, 4> Window = Base;
          Window[Pos] = Id;
          Entries.emplace_back(hashWindow(Window), Window);
        }
    EXPECT_EQ(countHashCollisions(std::move(Entries)), 0u);
  }
}

TEST(CallChainHashTest, DepthIsPartOfTheHash) {
  // {} vs {0} vs {0,0} ...: equal ids, only the depth differs.  Likewise a
  // window and each of its prefixes and suffixes.
  std::set<uint64_t> Hashes;
  std::vector<FunctionId> Zeros;
  for (size_t Depth = 0; Depth <= 16; ++Depth, Zeros.push_back(0))
    Hashes.insert(hashFrames(Zeros.data(), Zeros.size()));
  EXPECT_EQ(Hashes.size(), 17u);
  EXPECT_NE(CallChain{}.hash(), CallChain{0}.hash());
  EXPECT_NE(CallChain{0}.hash(), (CallChain{0, 0}).hash());

  // Every contiguous sub-window of a chain with repeats: as many hashes as
  // distinct windows ({7, 0} occurs twice, the empty window seven times).
  std::vector<FunctionId> Chain = {7, 0, UINT32_MAX, 3, 7, 0};
  std::set<std::vector<FunctionId>> Windows;
  std::set<uint64_t> WindowHashes;
  for (size_t From = 0; From <= Chain.size(); ++From)
    for (size_t To = From; To <= Chain.size(); ++To) {
      Windows.emplace(Chain.begin() + From, Chain.begin() + To);
      WindowHashes.insert(hashFrames(Chain.data() + From, To - From));
    }
  EXPECT_EQ(WindowHashes.size(), Windows.size());
}

TEST(CallChainHashTest, IdsNearTheTopOfTheRangeNeverCollide) {
  // All 16^4 windows over the 16 largest ids (and, for contrast, the 16
  // smallest): carries out of id + c must not alias windows.
  for (FunctionId Base : {UINT32_MAX - 15, FunctionId(0)}) {
    std::vector<std::pair<uint64_t, std::array<FunctionId, 4>>> Entries;
    for (uint32_t Code = 0; Code < (1u << 16); ++Code) {
      std::array<FunctionId, 4> Window;
      for (size_t Pos = 0; Pos < 4; ++Pos)
        Window[Pos] = Base + ((Code >> (4 * Pos)) & 15);
      Entries.emplace_back(hashWindow(Window), Window);
    }
    EXPECT_EQ(countHashCollisions(std::move(Entries)), 0u);
  }
}

TEST(CallChainHashTest, LinearFoldCollisionsAreBrokenByTheFrameMix) {
  // Were each frame mixed linearly, two 2-frame windows would collide
  // whenever their id differences satisfy P * d0 + d1 == 0 (mod 2^64), P
  // the fold multiplier.  The continued fraction of P / 2^64 yields such
  // pairs with |d0|, |d1| < 2^32: real 32-bit windows.  The xorshift in the
  // frame mix must keep every one of them apart.
  const unsigned __int128 Modulus = static_cast<unsigned __int128>(1) << 64;
  unsigned __int128 Num = FrameFoldMultiplier, Den = Modulus;
  uint64_t PrevQ = 0, Q = 1; // Convergent denominators.
  size_t Checked = 0;
  // The first partial quotient of P / 2^64 is 0; skip it.
  std::swap(Num, Den);
  while (Den != 0) {
    auto Quotient = static_cast<uint64_t>(Num / Den);
    unsigned __int128 Rest = Num % Den;
    Num = Den;
    Den = Rest;
    unsigned __int128 NextQ =
        static_cast<unsigned __int128>(Quotient) * Q + PrevQ;
    if (NextQ >= (static_cast<unsigned __int128>(1) << 32))
      break;
    PrevQ = Q;
    Q = static_cast<uint64_t>(NextQ);
    // d0 = Q, d1 = -(P * Q mod 2^64), taken as the signed residue.
    auto D1 = -static_cast<int64_t>(FrameFoldMultiplier * Q);
    if (D1 <= -(int64_t(1) << 32) || D1 >= (int64_t(1) << 32))
      continue;
    for (FunctionId Base : {FunctionId(0), FunctionId(0x4005d0)}) {
      uint64_t Low = D1 < 0 ? uint64_t(-D1) : 0;
      if (Base + Q > UINT32_MAX || Low + Base + std::max<int64_t>(D1, 0) >
                                       UINT32_MAX)
        continue;
      std::array<FunctionId, 2> A = {Base, static_cast<FunctionId>(Low + Base)};
      std::array<FunctionId, 2> B = {static_cast<FunctionId>(Base + Q),
                                     static_cast<FunctionId>(Low + Base + D1)};
      EXPECT_NE(hashFrames(A.data(), 2), hashFrames(B.data(), 2))
          << "d0 = " << Q << ", d1 = " << D1;
      ++Checked;
    }
  }
  EXPECT_GT(Checked, 0u);
}

TEST(CallChainHashTest, MillionRandomWindowsNeverCollide) {
  // Full 32-bit ids, then ids in [0, 2^16): the narrow range is where a
  // linear frame mix has lattice collisions.
  for (uint64_t Range : {uint64_t(1) << 32, uint64_t(1) << 16}) {
    Rng R(0x4a5 + Range);
    std::vector<std::pair<uint64_t, std::array<FunctionId, 4>>> Entries;
    Entries.reserve(1000000);
    for (int I = 0; I < 1000000; ++I) {
      std::array<FunctionId, 4> Window;
      for (FunctionId &Id : Window)
        Id = static_cast<FunctionId>(R.nextBelow(Range));
      Entries.emplace_back(hashWindow(Window), Window);
    }
    EXPECT_EQ(countHashCollisions(std::move(Entries)), 0u)
        << "ids below " << Range;
  }
}

TEST(CallChainHashTest, PaperProgramKeysNeverCollide) {
  // The five programs at the CI gates' scale, train and test traces
  // together: every distinct lastN(1..7) window and pruned complete chain
  // gets its own chain part, and every distinct (window, rounded size)
  // pair its own site key.
  std::vector<SiteKeyPolicy> Policies = {SiteKeyPolicy::completeChain()};
  for (unsigned Length = 1; Length <= 7; ++Length)
    Policies.push_back(SiteKeyPolicy::lastN(Length));
  for (const ProgramModel &Model : allPrograms()) {
    FunctionRegistry Registry;
    std::vector<AllocationTrace> Traces;
    for (RunKind Kind : {RunKind::Train, RunKind::Test}) {
      RunOptions Options;
      Options.Kind = Kind;
      Options.Scale = 0.05;
      Traces.push_back(runWorkload(Model, Options, Registry));
    }
    // Each trace's distinct (chain index, size) pairs.
    std::vector<std::set<std::pair<uint32_t, uint32_t>>> Allocations;
    for (const AllocationTrace &Trace : Traces) {
      Allocations.emplace_back();
      for (const AllocRecord &Record : Trace.records())
        Allocations.back().emplace(Record.ChainIndex, Record.Size);
    }
    for (const SiteKeyPolicy &Policy : Policies) {
      std::set<std::vector<FunctionId>> Windows;
      std::set<uint64_t> ChainParts;
      std::set<std::pair<std::vector<FunctionId>, uint32_t>> Sites;
      std::set<SiteKey> Keys;
      for (size_t T = 0; T < Traces.size(); ++T)
        for (auto [ChainIndex, Size] : Allocations[T]) {
          const CallChain &Chain = Traces[T].chain(ChainIndex);
          std::vector<FunctionId> Window =
              Policy.Mode == SiteKeyMode::LastN
                  ? Chain.lastN(Policy.Length).functions()
                  : Chain.pruned().functions();
          Windows.insert(Window);
          ChainParts.insert(chainKeyPart(Policy, Chain));
          Sites.emplace(std::move(Window), roundSize(Policy, Size));
          Keys.insert(siteKey(Policy, Chain, Size));
        }
      EXPECT_EQ(ChainParts.size(), Windows.size())
          << Model.Name << " length " << Policy.Length;
      EXPECT_EQ(Keys.size(), Sites.size())
          << Model.Name << " length " << Policy.Length;
    }
  }
}

TEST(CallChainHashTest, SizeMixKeepsEncryptedKeysInjective) {
  // Two (16-bit key, 32-bit size) pairs collide only if the size products
  // differ in the low 16 bits alone: d * SizeMixMultiplier == e (mod 2^64)
  // for some size difference 0 < |d| < 2^32 and 0 < |e| < 2^16.  Solve for
  // d from every e with the multiplier's inverse.
  uint64_t Inverse = SizeMixMultiplier;
  for (int Step = 0; Step < 6; ++Step) // Newton: doubles the correct bits.
    Inverse *= 2 - SizeMixMultiplier * Inverse;
  ASSERT_EQ(Inverse * SizeMixMultiplier, 1u);
  for (int64_t E = 1; E < (1 << 16); ++E)
    for (uint64_t Signed : {uint64_t(E), uint64_t(-E)}) {
      auto D = static_cast<int64_t>(Signed * Inverse);
      ASSERT_TRUE(D >= (int64_t(1) << 32) || D <= -(int64_t(1) << 32))
          << "sizes " << D << " apart collide under e = " << E;
    }
}

TEST(FunctionRegistryTest, InternIsStableAndDense) {
  FunctionRegistry Reg;
  FunctionId A = Reg.intern("malloc");
  FunctionId B = Reg.intern("xmalloc");
  EXPECT_EQ(Reg.intern("malloc"), A);
  EXPECT_EQ(B, A + 1);
  EXPECT_EQ(Reg.name(A), "malloc");
  EXPECT_EQ(Reg.name(9999), "<unknown>");
  EXPECT_EQ(Reg.size(), 2u);
}

TEST(FunctionRegistryTest, ChainOfInternsPath) {
  FunctionRegistry Reg;
  CallChain C = Reg.chainOf({"main", "parse", "alloc"});
  EXPECT_EQ(C.depth(), 3u);
  EXPECT_EQ(Reg.name(C.functions()[0]), "main");
  EXPECT_EQ(Reg.name(C.innermost()), "alloc");
}

TEST(ChainEncryptionTest, KeyIsXorOfIds) {
  ChainEncryption Enc;
  Enc.setId(1, 0x00ff);
  Enc.setId(2, 0x0f0f);
  EXPECT_EQ(Enc.keyFor(CallChain{1, 2}), 0x00ff ^ 0x0f0f);
  EXPECT_EQ(Enc.keyFor(CallChain{2, 1}), Enc.keyFor(CallChain{1, 2}));
  EXPECT_EQ(Enc.keyFor(CallChain{}), 0);
}

TEST(ChainEncryptionTest, DuplicateFunctionsCancel) {
  // XOR's self-inverse property: recursion makes chains collide — exactly
  // the weakness the paper's id assignment mitigates.
  ChainEncryption Enc;
  Enc.setId(1, 0x1234);
  Enc.setId(2, 0x00aa);
  EXPECT_EQ(Enc.keyFor(CallChain{1, 1, 2}), Enc.keyFor(CallChain{2}));
}

TEST(ChainEncryptionTest, AssignmentAvoidsCollisionsOnRealisticChains) {
  Rng R(7);
  std::vector<CallChain> Chains;
  for (FunctionId Leaf = 0; Leaf < 60; ++Leaf)
    Chains.push_back(CallChain{100, 101, Leaf, 200});
  ChainEncryption Enc = ChainEncryption::assign(Chains, R, 16);
  EXPECT_EQ(Enc.countCollisions(Chains), 0u);
}

TEST(ChainEncryptionTest, CollisionCountingCountsBothSides) {
  ChainEncryption Enc;
  Enc.setId(1, 7);
  Enc.setId(2, 7);
  std::vector<CallChain> Chains = {CallChain{1}, CallChain{2}};
  EXPECT_EQ(Enc.countCollisions(Chains), 2u);
}

TEST(ShadowStackTest, CaptureMatchesPushes) {
  ShadowStack &S = ShadowStack::current();
  S.clear();
  S.push(10);
  S.push(20);
  S.push(30);
  EXPECT_EQ(S.capture(), (CallChain{10, 20, 30}));
  EXPECT_EQ(S.captureLastN(2), (CallChain{20, 30}));
  EXPECT_EQ(S.captureLastN(9), (CallChain{10, 20, 30}));
  S.clear();
}

TEST(ShadowStackTest, ScopedFrameUnwinds) {
  ShadowStack &S = ShadowStack::current();
  S.clear();
  {
    ScopedFrame F1(1);
    EXPECT_EQ(S.depth(), 1u);
    {
      ScopedFrame F2(2);
      EXPECT_EQ(S.depth(), 2u);
    }
    EXPECT_EQ(S.depth(), 1u);
  }
  EXPECT_EQ(S.depth(), 0u);
}

TEST(ShadowStackTest, IncrementalEncryptionKey) {
  ShadowStack &S = ShadowStack::current();
  S.clear();
  S.push(1, 0x0011);
  S.push(2, 0x0101);
  EXPECT_EQ(S.currentKey(), 0x0011 ^ 0x0101);
  S.pop();
  EXPECT_EQ(S.currentKey(), 0x0011);
  S.pop();
  EXPECT_EQ(S.currentKey(), 0);
}

TEST(ShadowStackTest, InPlaceKeyMatchesCapturedKey) {
  // Differential check of the allocation-path key against the reference
  // siteKey(Policy, capture(), Size) over random push/pop/allocate runs.
  // Function ids come from a small pool so recursion (repeated ids) is
  // common; the walk starts at depth 0 and often sits below N.
  ChainEncryption Enc;
  for (FunctionId F = 0; F < 6; ++F)
    Enc.setId(F, static_cast<ChainKey>(0x1111 * (F + 1)));
  std::vector<SiteKeyPolicy> Policies = {
      SiteKeyPolicy::lastN(0),    SiteKeyPolicy::lastN(1),
      SiteKeyPolicy::lastN(2),    SiteKeyPolicy::lastN(4),
      SiteKeyPolicy::lastN(7),    SiteKeyPolicy::lastN(4, 8),
      SiteKeyPolicy::completeChain(), SiteKeyPolicy::sizeOnly(),
      SiteKeyPolicy::encrypted(Enc)};
  ShadowStack &S = ShadowStack::current();
  Rng R(15);
  for (const SiteKeyPolicy &Policy : Policies) {
    S.clear();
    std::vector<size_t> DepthsSeen(12, 0);
    for (int Step = 0; Step < 4000; ++Step) {
      uint64_t Op = R.nextBelow(3);
      if (Op == 0 && S.depth() < 11) {
        FunctionId F = static_cast<FunctionId>(R.nextBelow(6));
        S.push(F, Enc.idFor(F));
      } else if (Op == 1 && S.depth() > 0) {
        S.pop();
      } else {
        uint32_t Size = static_cast<uint32_t>(R.nextBelow(300));
        ++DepthsSeen[S.depth()];
        ASSERT_EQ(siteKeyFromChainPart(Policy, S.chainKeyPart(Policy), Size),
                  siteKey(Policy, S.capture(), Size))
            << "mode " << static_cast<int>(Policy.Mode) << " length "
            << Policy.Length << " depth " << S.depth();
        // The window arithmetic against the sub-chain-copying reference.
        if (Policy.Mode == SiteKeyMode::LastN) {
          ASSERT_EQ(S.chainKeyPart(Policy),
                    S.captureLastN(Policy.Length).hash());
        }
      }
    }
    EXPECT_GT(DepthsSeen[0], 0u);
    EXPECT_GT(DepthsSeen[1], 0u);
    EXPECT_GT(DepthsSeen[8], 0u);
  }
  S.clear();
}
