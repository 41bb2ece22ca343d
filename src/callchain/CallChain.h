//===- callchain/CallChain.h - Call-chain abstraction -----------*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The call-chain abstraction of the paper's section 3.2: the ordered list
/// of functions on the runtime stack at an allocation event, with recursive
/// cycles removable (gprof-style) and length-N sub-chains (the last N
/// callers) extractable.
///
/// Chains are stored outermost-first: index 0 is the program entry point and
/// back() is the function that directly calls the allocator.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_CALLCHAIN_CALLCHAIN_H
#define LIFEPRED_CALLCHAIN_CALLCHAIN_H

#include "support/Hashing.h"

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

namespace lifepred {

/// Identifies one function in the traced program.
using FunctionId = uint32_t;

/// hashFrames' constants: the per-frame mix's c and K, and the fold's P.
inline constexpr uint64_t FrameMixOffset = 0x9e3779b97f4a7c15ULL;
inline constexpr uint64_t FrameMixMultiplier = 0xbf58476d1ce4e5b9ULL;
inline constexpr uint64_t FrameFoldMultiplier = 0xff51afd7ed558ccdULL;

/// Order-sensitive 64-bit hash of the \p Count functions at \p Frames,
/// outermost first: the one chain hash (CallChain::hash(), hashLastN() and
/// through it ShadowStack::chainKeyPart()).
///
/// Each frame is mixed on its own, v = (id + c) * K; v ^= v >> 31.  The mix
/// reads nothing but the id, so the frame multiplies of a lastN(4) window
/// issue in parallel; only one multiply-add per frame (H = H * P + v) sits
/// on the serial path, then one splitmix finalizer.  H starts from the
/// depth, so a chain never hashes like a prefix of itself.
///
/// The xorshift in the per-frame mix is what matters for collisions.
/// Without it H is a linear polynomial in the ids modulo 2^64, and four
/// 32-bit ids against a 2^64 modulus form a lattice of determinant 2^64:
/// it holds distinct windows that collide while their ids differ by at
/// most 2^16 at each position, exactly the shape of nearby return-address
/// ids.  The shift feeds high product bits back into low ones, so a frame's
/// contribution is no longer an affine function of its id.
inline uint64_t hashFrames(const FunctionId *Frames, size_t Count) {
  uint64_t Hash = FnvOffsetBasis + Count;
  for (size_t I = 0; I < Count; ++I) {
    uint64_t V = (Frames[I] + FrameMixOffset) * FrameMixMultiplier;
    Hash = Hash * FrameFoldMultiplier + (V ^ (V >> 31));
  }
  return mixFinalize(Hash);
}

/// Hash of the innermost min(\p N, size) of the outermost-first \p Frames:
/// equal to CallChain(Frames).lastN(N).hash(), with no sub-chain built.
inline uint64_t hashLastN(const std::vector<FunctionId> &Frames, size_t N) {
  size_t Window = N < Frames.size() ? N : Frames.size();
  return hashFrames(Frames.data() + (Frames.size() - Window), Window);
}

/// An ordered list of functions on the call stack, outermost first.
class CallChain {
public:
  CallChain() = default;

  /// Builds a chain from an explicit outermost-first path.
  CallChain(std::initializer_list<FunctionId> Path) : Funcs(Path) {}

  /// Builds a chain from an explicit outermost-first path.
  explicit CallChain(std::vector<FunctionId> Path) : Funcs(std::move(Path)) {}

  /// Pushes \p Callee as the new innermost function.
  void push(FunctionId Callee) { Funcs.push_back(Callee); }

  /// Pops the innermost function.  Requires a non-empty chain.
  void pop();

  /// Number of functions on the chain.
  size_t depth() const { return Funcs.size(); }

  /// Returns true if the chain is empty.
  bool empty() const { return Funcs.empty(); }

  /// The innermost function (direct caller of the allocator).
  /// Requires a non-empty chain.
  FunctionId innermost() const;

  /// Outermost-first access to the functions on the chain.
  const std::vector<FunctionId> &functions() const { return Funcs; }

  /// Returns a copy with recursive cycles collapsed so every function
  /// appears at most once (the paper's complete-call-chain definition).
  ///
  /// Walking outermost to innermost, when a function that is already on the
  /// pruned chain reappears, the pruned chain is truncated back to (and
  /// including) its first occurrence, discarding the cycle.  Matches gprof's
  /// cycle collapsing.
  CallChain pruned() const;

  /// Returns the length-N sub-chain: the last \p N callers (innermost N
  /// functions).  If the chain is shorter than N the whole chain is
  /// returned.  Per the paper, no recursion pruning is applied here.
  CallChain lastN(size_t N) const;

  /// Order-sensitive 64-bit hash of the chain.
  uint64_t hash() const { return hashFrames(Funcs.data(), Funcs.size()); }

  friend bool operator==(const CallChain &A, const CallChain &B) {
    return A.Funcs == B.Funcs;
  }
  friend bool operator!=(const CallChain &A, const CallChain &B) {
    return !(A == B);
  }

private:
  std::vector<FunctionId> Funcs;
};

} // namespace lifepred

#endif // LIFEPRED_CALLCHAIN_CALLCHAIN_H
