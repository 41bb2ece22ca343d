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

/// Order-sensitive 64-bit hash of the \p Count functions at \p Frames,
/// outermost first: the one chain hash (CallChain::hash() and hashLastN()).
inline uint64_t hashFrames(const FunctionId *Frames, size_t Count) {
  uint64_t Hash = FnvOffsetBasis;
  for (size_t I = 0; I < Count; ++I)
    Hash = hashCombine(Hash, Frames[I]);
  // Mix in the depth so a chain is never confused with a prefix of itself.
  return hashCombine(Hash, Count);
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
