//===- callchain/SiteKey.h - Allocation-site key encoding ------------*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Encoding of allocation sites as integer keys.  Per the paper, a site is
/// the call-chain to the allocator plus the object size (rounded to a
/// multiple of four so sites map across runs).  Four key policies cover the
/// paper's studies:
///
///  - CompleteChain: the full call-chain with recursive cycles pruned
///    (Tables 3, 4, and the infinity row of Table 6);
///  - LastN: the length-N sub-chain, unpruned (Table 6's rows 1-7 and the
///    production algorithm's length-4 variant);
///  - SizeOnly: the object size alone (Table 5);
///  - Encrypted: the 16-bit call-chain-encryption key XORed with the size
///    (Table 9's "Arena (cce)" column).
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_CALLCHAIN_SITEKEY_H
#define LIFEPRED_CALLCHAIN_SITEKEY_H

#include "callchain/CallChain.h"
#include "callchain/ChainEncryption.h"
#include "support/Hashing.h"
#include "support/MathExtras.h"

#include <cstdint>

namespace lifepred {

/// An encoded allocation site.
using SiteKey = uint64_t;

/// How chains are reduced to keys.
///
/// TypeOnly and TypeAndSize implement the paper's future-work extension:
/// predicting from the object's type (available at C++/Modula allocation
/// sites but not at C malloc calls).  They require traces that carry
/// AllocRecord::TypeId and are offline policies — the in-process runtime
/// predicts from the shadow stack, which has no type information.
enum class SiteKeyMode {
  CompleteChain,
  LastN,
  SizeOnly,
  Encrypted,
  TypeOnly,
  TypeAndSize,
};

/// A site-key policy: mode plus its parameters.
struct SiteKeyPolicy {
  SiteKeyMode Mode = SiteKeyMode::CompleteChain;

  /// Sub-chain length for LastN.
  unsigned Length = 4;

  /// Sizes are rounded up to a multiple of this before keying; the paper
  /// found 4 bytes best for cross-run site mapping.
  uint32_t SizeRounding = 4;

  /// Id assignment for Encrypted mode (must outlive the policy's use).
  const ChainEncryption *Encryption = nullptr;

  /// Convenience constructors for the four studies.
  static SiteKeyPolicy completeChain(uint32_t Rounding = 4) {
    return {SiteKeyMode::CompleteChain, 0, Rounding, nullptr};
  }
  static SiteKeyPolicy lastN(unsigned Length, uint32_t Rounding = 4) {
    return {SiteKeyMode::LastN, Length, Rounding, nullptr};
  }
  static SiteKeyPolicy sizeOnly(uint32_t Rounding = 4) {
    return {SiteKeyMode::SizeOnly, 0, Rounding, nullptr};
  }
  static SiteKeyPolicy encrypted(const ChainEncryption &Encryption,
                                 uint32_t Rounding = 4) {
    return {SiteKeyMode::Encrypted, 0, Rounding, &Encryption};
  }
  static SiteKeyPolicy typeOnly() {
    return {SiteKeyMode::TypeOnly, 0, 4, nullptr};
  }
  static SiteKeyPolicy typeAndSize(uint32_t Rounding = 4) {
    return {SiteKeyMode::TypeAndSize, 0, Rounding, nullptr};
  }

  /// Two policies are equal when they produce the same key for every
  /// allocation (encryption compares by table identity).  Lets precomputed
  /// per-record key tables assert they match a database's policy.
  friend bool operator==(const SiteKeyPolicy &A, const SiteKeyPolicy &B) {
    return A.Mode == B.Mode && A.Length == B.Length &&
           A.SizeRounding == B.SizeRounding && A.Encryption == B.Encryption;
  }
};

/// The chain-dependent part of a site key (size not yet mixed in).
uint64_t chainKeyPart(const SiteKeyPolicy &Policy, const CallChain &Raw);

/// Rounds \p Size per the policy.
inline uint32_t roundSize(const SiteKeyPolicy &Policy, uint32_t Size) {
  return static_cast<uint32_t>(alignTo(Size, Policy.SizeRounding));
}

/// The odd multiplier of the size mix in siteKeyFromChainPart.
inline constexpr uint64_t SizeMixMultiplier = 0xc2b2ae3d27d4eb4fULL;

/// Full site key from a precomputed chain part (chainKeyPart) and the
/// allocation's \p Size; type-based policies use \p TypeId instead of the
/// chain.  Every site-key entry point below funnels through this one.
///
/// Chain policies mix the size in with one multiply: ChainPart ^
/// (rounded size * SizeMixMultiplier).  The product does not depend on the
/// chain, so on the allocation path it runs beside the chain hash instead
/// of after it.  The multiplier is odd, so distinct sizes give distinct
/// products.  The chain part is already finalized (hashFrames), a fixed
/// basis (size-only) or a 16-bit encryption key; no two 32-bit sizes have
/// products that differ only in those low 16 bits (callchain_test checks
/// every difference), so an encrypted key stays injective in (chain key,
/// size).
inline SiteKey siteKeyFromChainPart(const SiteKeyPolicy &Policy,
                                    uint64_t ChainPart, uint32_t Size,
                                    uint32_t TypeId = 0) {
  switch (Policy.Mode) {
  case SiteKeyMode::TypeOnly:
    return hashCombine(FnvOffsetBasis ^ 0x717e, TypeId);
  case SiteKeyMode::TypeAndSize:
    return hashCombine(hashCombine(FnvOffsetBasis, TypeId),
                       roundSize(Policy, Size));
  default:
    return ChainPart ^ (uint64_t(roundSize(Policy, Size)) * SizeMixMultiplier);
  }
}

/// Full site key for an allocation with \p Raw chain and \p Size bytes.
/// Type-based policies additionally need the object's \p TypeId.
inline SiteKey siteKey(const SiteKeyPolicy &Policy, const CallChain &Raw,
                       uint32_t Size, uint32_t TypeId = 0) {
  return siteKeyFromChainPart(Policy, chainKeyPart(Policy, Raw), Size, TypeId);
}

/// Site key for a trace record given the precomputed chain part of its
/// chain (from chainKeyPart).  Callers that process whole traces hoist the
/// chain hashing per distinct chain and use this per record.
template <typename RecordT>
inline SiteKey siteKeyForRecord(const SiteKeyPolicy &Policy,
                                uint64_t ChainPart, const RecordT &Record) {
  return siteKeyFromChainPart(Policy, ChainPart, Record.Size, Record.TypeId);
}

} // namespace lifepred

#endif // LIFEPRED_CALLCHAIN_SITEKEY_H
