//===- support/Hashing.h - Hashing utilities --------------------*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// 64-bit hashing helpers used to encode allocation sites and call-chains.
///
/// Call-chain site keys are built for latency, since the real heap computes
/// one per allocation.  hashFrames (callchain/CallChain.h) mixes each frame
/// on its own, v = (id + c) * K; v ^= v >> 31, folds the results with one
/// multiply-add per frame and ends with mixFinalize; siteKeyFromChainPart
/// (callchain/SiteKey.h) then XORs in rounded size * K.  The xorshift makes
/// the per-frame mix nonlinear: a hash that is linear in the ids modulo
/// 2^64 has collisions among windows of nearby ids.  hashCombine, one full
/// round per value, remains for seeds and the type-based keys.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_SUPPORT_HASHING_H
#define LIFEPRED_SUPPORT_HASHING_H

#include <cstddef>
#include <cstdint>

namespace lifepred {

/// FNV-1a offset basis and prime for 64-bit hashing.
inline constexpr uint64_t FnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr uint64_t FnvPrime = 0x100000001b3ULL;

/// Hashes \p Size bytes starting at \p Data with FNV-1a.
inline uint64_t hashBytes(const void *Data, size_t Size,
                          uint64_t Seed = FnvOffsetBasis) {
  const auto *Bytes = static_cast<const unsigned char *>(Data);
  uint64_t Hash = Seed;
  for (size_t I = 0; I < Size; ++I) {
    Hash ^= Bytes[I];
    Hash *= FnvPrime;
  }
  return Hash;
}

/// The splitmix64 finalizer: a bijection on 64-bit values whose every
/// output bit depends on every input bit.  Two multiplies, serial.
inline uint64_t mixFinalize(uint64_t Z) {
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// Mixes a 64-bit value into an accumulated hash: one full finalizer round
/// per value, so a chain of combines is a chain of dependent rounds.
inline uint64_t hashCombine(uint64_t Hash, uint64_t Value) {
  return mixFinalize(Hash ^ (Value + 0x9e3779b97f4a7c15ULL + (Hash << 6) +
                             (Hash >> 2)));
}

} // namespace lifepred

#endif // LIFEPRED_SUPPORT_HASHING_H
