//===- callchain/ShadowStack.h - Runtime call-stack mirror ------*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-local shadow of the call stack for in-process profiling.  The
/// paper walks SPARC stack frames to find the last four return addresses; a
/// portable C++ library cannot rely on frame pointers, so instrumented
/// functions push RAII frames onto this stack instead (see the
/// LIFEPRED_FUNCTION macro in runtime/Instrument.h).
///
/// The stack also maintains the incremental call-chain-encryption key (one
/// XOR per push/pop, mirroring the paper's 3-instruction estimate), and
/// hashes the last-N site key straight from the live frames, so the
/// runtime's hot policy never copies the chain into a container.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_CALLCHAIN_SHADOWSTACK_H
#define LIFEPRED_CALLCHAIN_SHADOWSTACK_H

#include "callchain/CallChain.h"
#include "callchain/ChainEncryption.h"
#include "callchain/SiteKey.h"

#include <vector>

namespace lifepred {

/// Thread-local mirror of the instrumented call stack.
class ShadowStack {
public:
  /// Returns the calling thread's shadow stack.
  static ShadowStack &current();

  /// Pushes \p Function (entering it).  \p EncryptedId is XORed into the
  /// running chain key.
  void push(FunctionId Function, ChainKey EncryptedId = 0) {
    Frames.push_back(Function);
    EncryptionKeys.push_back(static_cast<ChainKey>(currentKey() ^ EncryptedId));
  }

  /// Pops the innermost function (leaving it).
  void pop() {
    Frames.pop_back();
    EncryptionKeys.pop_back();
  }

  /// Current stack depth.
  size_t depth() const { return Frames.size(); }

  /// Captures the complete chain, outermost first.
  CallChain capture() const { return CallChain(Frames); }

  /// Captures the last \p N callers without materializing the whole chain.
  /// The reference path (tests, benches); allocation sites key through
  /// chainKeyPart() instead.
  CallChain captureLastN(size_t N) const;

  /// The site key's chain part under \p Policy for the current stack:
  /// equal to chainKeyPart(Policy, capture()).  LastN hashes the innermost
  /// min(N, depth) frames in place with no allocation; the other policies
  /// capture the whole chain (complete-chain mode must prune cycles).
  uint64_t chainKeyPart(const SiteKeyPolicy &Policy) const {
    if (Policy.Mode != SiteKeyMode::LastN)
      return lifepred::chainKeyPart(Policy, capture());
    return hashLastN(Frames, Policy.Length);
  }

  /// The running call-chain-encryption key for the current stack.
  ChainKey currentKey() const {
    return EncryptionKeys.empty() ? ChainKey(0) : EncryptionKeys.back();
  }

  /// Empties the stack (test support).
  void clear() {
    Frames.clear();
    EncryptionKeys.clear();
  }

private:
  std::vector<FunctionId> Frames;
  std::vector<ChainKey> EncryptionKeys;
};

/// RAII frame: pushes on construction, pops on destruction.
class ScopedFrame {
public:
  explicit ScopedFrame(FunctionId Function, ChainKey EncryptedId = 0)
      : Stack(ShadowStack::current()) {
    Stack.push(Function, EncryptedId);
  }
  ~ScopedFrame() { Stack.pop(); }

  ScopedFrame(const ScopedFrame &) = delete;
  ScopedFrame &operator=(const ScopedFrame &) = delete;

private:
  ShadowStack &Stack;
};

} // namespace lifepred

#endif // LIFEPRED_CALLCHAIN_SHADOWSTACK_H
