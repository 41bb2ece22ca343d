//===- bench/micro_runtime_alloc.cpp - Real-heap microbenchmarks -----------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
// google-benchmark timings of the *real* PredictingHeap against plain
// operator new on the paper's target pattern: bursts of short-lived
// allocations that die together — the modern analogue of Table 9's GAWK
// row.  Under lastN(4) an arena allocation is: hash the innermost four
// shadow-stack frames in place (ShadowStack::chainKeyPart, no container
// built), probe SiteDatabase's flat linear-probed key table, bump the
// arena pointer and count.  No step allocates (runtime_noalloc_test).
//
//===----------------------------------------------------------------------===//

#include "callchain/ShadowStack.h"
#include "runtime/PredictingHeap.h"

#include "benchmark/benchmark.h"

#include <vector>

using namespace lifepred;

namespace {

constexpr FunctionId BenchFunction = 777;

SiteDatabase makeDatabase(bool PredictShort) {
  SiteKeyPolicy Policy = SiteKeyPolicy::lastN(4);
  SiteDatabase DB(Policy, 32 * 1024);
  if (PredictShort)
    for (uint32_t Size = 8; Size <= 256; Size += 4)
      DB.insert(siteKey(Policy, CallChain{BenchFunction}, Size));
  return DB;
}

void predictingHeapChurn(benchmark::State &State, bool PredictShort) {
  ShadowStack::current().clear();
  PredictingHeap Heap(makeDatabase(PredictShort));
  ScopedFrame Frame(BenchFunction);
  size_t Size = static_cast<size_t>(State.range(0));
  std::vector<void *> Batch(64);
  for (auto _ : State) {
    for (void *&P : Batch)
      P = Heap.allocate(Size);
    for (void *P : Batch)
      Heap.deallocate(P);
  }
  State.SetItemsProcessed(
      static_cast<int64_t>(State.iterations()) * 2 * Batch.size());
}

void BM_PredictingHeap_ArenaPath(benchmark::State &State) {
  predictingHeapChurn(State, /*PredictShort=*/true);
}

void BM_PredictingHeap_GeneralPath(benchmark::State &State) {
  predictingHeapChurn(State, /*PredictShort=*/false);
}

void BM_OperatorNew(benchmark::State &State) {
  size_t Size = static_cast<size_t>(State.range(0));
  std::vector<void *> Batch(64);
  for (auto _ : State) {
    for (void *&P : Batch)
      P = ::operator new(Size);
    for (void *P : Batch)
      ::operator delete(P);
  }
  State.SetItemsProcessed(
      static_cast<int64_t>(State.iterations()) * 2 * Batch.size());
}

} // namespace

BENCHMARK(BM_PredictingHeap_ArenaPath)->Arg(16)->Arg(48)->Arg(128);
BENCHMARK(BM_PredictingHeap_GeneralPath)->Arg(16)->Arg(48)->Arg(128);
BENCHMARK(BM_OperatorNew)->Arg(16)->Arg(48)->Arg(128);

BENCHMARK_MAIN();
