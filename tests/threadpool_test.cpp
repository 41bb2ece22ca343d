//===- tests/threadpool_test.cpp - Bench thread-pool tests -----------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
// The bench substrate fans simulations out on support/ThreadPool; these
// tests pin down the properties the benches rely on: results come back in
// submission order, task exceptions propagate through futures (lowest
// index first under parallelForIndex), the single-thread pool runs inline,
// and parallel workload generation is bit-identical to serial.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "gtest/gtest.h"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

using namespace lifepred;

TEST(ThreadPoolTest, ResultsComeBackInSubmissionOrder) {
  ThreadPool Pool(4);
  std::vector<std::future<int>> Futures;
  for (int I = 0; I < 100; ++I)
    Futures.push_back(Pool.submit([I] { return I * I; }));
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(Futures[static_cast<size_t>(I)].get(), I * I);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.threadCount(), 1u);
  std::thread::id Main = std::this_thread::get_id();
  bool Ran = false;
  auto Future = Pool.submit([&] {
    Ran = true;
    return std::this_thread::get_id();
  });
  // Inline mode executes during submit, not at get().
  EXPECT_TRUE(Ran);
  EXPECT_EQ(Future.get(), Main);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.threadCount(), 1u);
  EXPECT_EQ(Pool.submit([] { return 42; }).get(), 42);
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughFutures) {
  ThreadPool Pool(4);
  auto Good = Pool.submit([] { return 1; });
  auto Bad = Pool.submit([]() -> int {
    throw std::runtime_error("task failed");
  });
  EXPECT_EQ(Good.get(), 1);
  EXPECT_THROW(Bad.get(), std::runtime_error);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> Completed{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I < 64; ++I)
      Pool.submit([&Completed] { ++Completed; });
    // No explicit join: the destructor must run everything first.
  }
  EXPECT_EQ(Completed.load(), 64);
}

TEST(ParallelForIndexTest, VisitsEveryIndexExactlyOnce) {
  for (unsigned Threads : {1u, 4u}) {
    ThreadPool Pool(Threads);
    std::vector<std::atomic<int>> Visits(1000);
    parallelForIndex(Pool, Visits.size(),
                     [&](size_t Index) { ++Visits[Index]; });
    for (const std::atomic<int> &V : Visits)
      EXPECT_EQ(V.load(), 1);
  }
}

TEST(ParallelForIndexTest, RethrowsLowestIndexFailureAfterJoining) {
  ThreadPool Pool(4);
  std::atomic<int> Ran{0};
  try {
    parallelForIndex(Pool, 16, [&](size_t Index) {
      ++Ran;
      if (Index == 3)
        throw std::out_of_range("index 3");
      if (Index == 11)
        throw std::runtime_error("index 11");
    });
    FAIL() << "expected an exception";
  } catch (const std::out_of_range &) {
    // Index 3's exception must win over index 11's, deterministically.
  }
  // The barrier held: every task finished before the rethrow.
  EXPECT_EQ(Ran.load(), 16);
}

TEST(ThreadPoolTest, WorkerSurvivesThrowingTask) {
  // A task that throws must not tear down its worker: the exception goes
  // to the future, and the same worker keeps serving later tasks.
  ThreadPool Pool(2);
  auto Bad = Pool.submit([]() -> int { throw std::logic_error("boom"); });
  EXPECT_THROW(Bad.get(), std::logic_error);
  std::atomic<int> Completed{0};
  std::vector<std::future<void>> Futures;
  for (int I = 0; I < 32; ++I)
    Futures.push_back(Pool.submit([&] { ++Completed; }));
  for (auto &Future : Futures)
    Future.get();
  EXPECT_EQ(Completed.load(), 32);
}

TEST(ParallelForIndexTest, ParallelResultsMatchSerial) {
  // The determinism contract the benches rely on: identical tasks write
  // identical slots no matter how many workers run them.
  auto Compute = [](unsigned Threads) {
    ThreadPool Pool(Threads);
    std::vector<uint64_t> Out(257);
    parallelForIndex(Pool, Out.size(), [&](size_t Index) {
      uint64_t X = 0x9e3779b97f4a7c15ull ^ Index;
      for (int I = 0; I < 1000; ++I)
        X = X * 6364136223846793005ull + 1442695040888963407ull;
      Out[Index] = X;
    });
    return Out;
  };
  EXPECT_EQ(Compute(1), Compute(8));
}
