//===- runtime/RuntimeProfiler.cpp - In-process profiling ------------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/RuntimeProfiler.h"

#include "callchain/ShadowStack.h"

using namespace lifepred;

void RuntimeProfiler::recordAlloc(const void *Ptr, uint32_t Size) {
  // The same in-place key the PredictingHeap routes by.
  SiteKey Key = siteKeyFromChainPart(
      Policy, ShadowStack::current().chainKeyPart(Policy), Size);

  Clock += Size;
  Live[Ptr] = {Key, Clock, Size};
  ++TotalObjects;
  TotalBytes += Size;
}

void RuntimeProfiler::recordFree(const void *Ptr) {
  auto It = Live.find(Ptr);
  if (It == Live.end())
    return;
  const LiveObject &Object = It->second;
  Sites[Object.Key].add(Object.Size, Clock - Object.BirthClock, 0);
  Live.erase(It);
}

Profile RuntimeProfiler::takeProfile() {
  // Objects still live die "now" — mirroring the offline profiler's
  // die-at-exit treatment.
  for (const auto &[Ptr, Object] : Live)
    Sites[Object.Key].add(Object.Size, Clock - Object.BirthClock, 0);
  Live.clear();

  Profile Result;
  Result.Sites = std::move(Sites);
  Result.TotalObjects = TotalObjects;
  Result.TotalBytes = TotalBytes;
  Sites = SiteTable();
  return Result;
}

SiteDatabase RuntimeProfiler::train(const TrainingOptions &Options) {
  Profile P = takeProfile();
  return trainDatabase(P, Policy, Options);
}
