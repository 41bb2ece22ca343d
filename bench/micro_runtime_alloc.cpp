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
// The per-step rows time each piece of that key path on its own: the
// thread-local stack lookup, the in-place last-4 chain hash at several
// depths, the one-multiply size mix, and the database probe on a hit and
// on a miss.  They loop over independent calls, so they report throughput;
// on the heap path the steps are dependent and add up as latency.
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

void BM_ShadowStackCurrent(benchmark::State &State) {
  for (auto _ : State)
    benchmark::DoNotOptimize(&ShadowStack::current());
}

void BM_ChainKeyPart_LastN4(benchmark::State &State) {
  ShadowStack &Stack = ShadowStack::current();
  Stack.clear();
  for (int64_t I = 0; I < State.range(0); ++I)
    Stack.push(BenchFunction + static_cast<FunctionId>(I));
  const SiteKeyPolicy Policy = SiteKeyPolicy::lastN(4);
  for (auto _ : State)
    benchmark::DoNotOptimize(Stack.chainKeyPart(Policy));
  Stack.clear();
}

void BM_SiteKeySizeMix(benchmark::State &State) {
  const SiteKeyPolicy Policy = SiteKeyPolicy::lastN(4);
  uint64_t ChainPart = CallChain{BenchFunction}.hash();
  uint32_t Size = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(ChainPart);
    benchmark::DoNotOptimize(siteKeyFromChainPart(Policy, ChainPart, Size));
    Size = (Size + 4) & 255;
  }
}

/// Probes makeDatabase(true)'s 63 keys in turn (\p Hit) or 63 keys of
/// another function that the database does not hold.
void siteDatabaseProbe(benchmark::State &State, bool Hit) {
  SiteDatabase DB = makeDatabase(/*PredictShort=*/true);
  std::vector<SiteKey> Keys;
  for (uint32_t Size = 8; Size <= 256; Size += 4)
    Keys.push_back(siteKey(DB.policy(),
                           CallChain{Hit ? BenchFunction : BenchFunction + 1},
                           Size));
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(DB.contains(Keys[I]));
    I = I + 1 == Keys.size() ? 0 : I + 1;
  }
}

void BM_SiteDatabaseContains_Hit(benchmark::State &State) {
  siteDatabaseProbe(State, /*Hit=*/true);
}

void BM_SiteDatabaseContains_Miss(benchmark::State &State) {
  siteDatabaseProbe(State, /*Hit=*/false);
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
BENCHMARK(BM_ShadowStackCurrent);
BENCHMARK(BM_ChainKeyPart_LastN4)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_SiteKeySizeMix);
BENCHMARK(BM_SiteDatabaseContains_Hit);
BENCHMARK(BM_SiteDatabaseContains_Miss);

BENCHMARK_MAIN();
