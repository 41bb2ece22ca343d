//===- callchain/CallChain.cpp - Call-chain abstraction --------------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "callchain/CallChain.h"

#include <cassert>

using namespace lifepred;

void CallChain::pop() {
  assert(!Funcs.empty() && "pop on empty call-chain");
  Funcs.pop_back();
}

FunctionId CallChain::innermost() const {
  assert(!Funcs.empty() && "innermost on empty call-chain");
  return Funcs.back();
}

CallChain CallChain::pruned() const {
  std::vector<FunctionId> Result;
  Result.reserve(Funcs.size());
  for (FunctionId F : Funcs) {
    // Chains are short (tens of frames), so a linear scan beats a hash map.
    size_t Existing = Result.size();
    for (size_t I = 0; I < Result.size(); ++I) {
      if (Result[I] == F) {
        Existing = I;
        break;
      }
    }
    if (Existing < Result.size())
      Result.resize(Existing + 1); // Collapse the cycle back to F.
    else
      Result.push_back(F);
  }
  return CallChain(std::move(Result));
}

CallChain CallChain::lastN(size_t N) const {
  if (N >= Funcs.size())
    return *this;
  return CallChain(
      std::vector<FunctionId>(Funcs.end() - static_cast<ptrdiff_t>(N),
                              Funcs.end()));
}
