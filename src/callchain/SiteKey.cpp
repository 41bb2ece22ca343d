//===- callchain/SiteKey.cpp - Allocation-site key encoding ---------------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "callchain/SiteKey.h"

#include "support/Assert.h"

using namespace lifepred;

uint64_t lifepred::chainKeyPart(const SiteKeyPolicy &Policy,
                                const CallChain &Raw) {
  switch (Policy.Mode) {
  case SiteKeyMode::CompleteChain:
    return Raw.pruned().hash();
  case SiteKeyMode::LastN:
    return hashLastN(Raw.functions(), Policy.Length);
  case SiteKeyMode::SizeOnly:
    // A fixed chain part: the key depends only on the rounded size.
    return FnvOffsetBasis;
  case SiteKeyMode::Encrypted:
    assert(Policy.Encryption && "encrypted policy needs an id assignment");
    return Policy.Encryption->keyFor(Raw);
  case SiteKeyMode::TypeOnly:
  case SiteKeyMode::TypeAndSize:
    // Type-based policies ignore the chain; callers may still precompute
    // chain parts uniformly, so return a fixed basis.
    return FnvOffsetBasis;
  }
  LIFEPRED_UNREACHABLE("unknown site-key mode");
}
