//===- support/ThreadPool.cpp - Minimal task thread pool -------------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

using namespace lifepred;

ThreadPool::ThreadPool(unsigned Threads) : Threads(Threads < 1 ? 1 : Threads) {
  if (this->Threads <= 1)
    return; // Inline serial mode: submit() runs tasks directly.
  Workers.reserve(this->Threads);
  for (unsigned I = 0; I < this->Threads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WakeWorkers.notify_all();
  for (std::thread &Worker : Workers)
    Worker.join();
}

unsigned ThreadPool::defaultThreadCount() {
  unsigned Hardware = std::thread::hardware_concurrency();
  return Hardware == 0 ? 1 : Hardware;
}

void ThreadPool::enqueue(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Queue.push_back(std::move(Task));
  }
  WakeWorkers.notify_one();
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WakeWorkers.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping and drained.
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    Task(); // packaged_task captures any exception into its future.
  }
}
