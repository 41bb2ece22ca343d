//===- support/ThreadPool.h - Minimal task thread pool ----------*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size thread pool for the bench substrate: table benches
/// fan out per-(program, allocator) simulations and trace generation across
/// cores.  Tasks are submitted as callables and joined through futures, so
/// exceptions thrown inside a task propagate to the caller at get() time
/// and results are consumed in deterministic (submission) order regardless
/// of completion order.
///
/// A pool constructed with one thread runs every task inline at submit
/// time — no worker threads, strictly serial execution — which keeps
/// `--jobs=1` bit-for-bit reproducible and easy to debug or profile.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_SUPPORT_THREADPOOL_H
#define LIFEPRED_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace lifepred {

/// Fixed-size pool of worker threads consuming a FIFO task queue.
class ThreadPool {
public:
  /// Creates a pool with \p Threads workers (minimum 1).  One thread means
  /// inline serial execution (no workers are spawned).
  explicit ThreadPool(unsigned Threads);

  /// Joins all workers.  Pending tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Number of threads executing tasks (1 = inline serial mode).
  unsigned threadCount() const { return Threads; }

  /// A sensible default worker count for benches: the hardware concurrency,
  /// or 1 when it cannot be determined.
  static unsigned defaultThreadCount();

  /// Submits \p Fn for execution; the returned future yields its result and
  /// rethrows any exception it raised.
  template <typename Fn>
  auto submit(Fn &&F) -> std::future<std::invoke_result_t<std::decay_t<Fn>>> {
    using Result = std::invoke_result_t<std::decay_t<Fn>>;
    auto Task =
        std::make_shared<std::packaged_task<Result()>>(std::forward<Fn>(F));
    std::future<Result> Future = Task->get_future();
    if (Threads <= 1)
      (*Task)(); // Inline serial mode: run now, in submission order.
    else
      enqueue([Task] { (*Task)(); });
    return Future;
  }

private:
  void enqueue(std::function<void()> Task);
  void workerLoop();

  unsigned Threads;
  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Queue;
  std::mutex Mutex;
  std::condition_variable WakeWorkers;
  bool Stopping = false;
};

/// Runs Fn(Index) for every Index in [0, Count) on \p Pool and joins all of
/// them before returning (a parallel-for with a full barrier).  If any task
/// threw, the exception of the lowest-indexed failing task is rethrown —
/// deterministically, after every task has finished.
template <typename Fn>
void parallelForIndex(ThreadPool &Pool, size_t Count, Fn &&F) {
  std::vector<std::future<void>> Futures;
  Futures.reserve(Count);
  for (size_t Index = 0; Index < Count; ++Index)
    Futures.push_back(Pool.submit([&F, Index] { F(Index); }));
  // First pass waits on everything so no task is still touching shared
  // state when an exception unwinds; second pass rethrows in index order.
  for (std::future<void> &Future : Futures)
    Future.wait();
  for (std::future<void> &Future : Futures)
    Future.get();
}

} // namespace lifepred

#endif // LIFEPRED_SUPPORT_THREADPOOL_H
