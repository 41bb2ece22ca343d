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

#include "gtest/gtest.h"

#include <set>
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
