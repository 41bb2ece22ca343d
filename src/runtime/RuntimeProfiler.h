//===- runtime/RuntimeProfiler.h - In-process profiling ---------*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The online half of the system: records real allocations and frees made
/// by an instrumented application (see runtime/Instrument.h), measures
/// lifetimes on the bytes-allocated clock, attributes them to allocation
/// sites captured from the shadow stack, and trains a SiteDatabase that a
/// later run feeds to PredictingHeap.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_RUNTIME_RUNTIMEPROFILER_H
#define LIFEPRED_RUNTIME_RUNTIMEPROFILER_H

#include "core/Profiler.h"
#include "core/Trainer.h"

#include <cstdint>
#include <unordered_map>

namespace lifepred {

/// Records allocation lifetimes of a live process run.
class RuntimeProfiler {
public:
  /// Profiles under \p Policy (LastN with length 4 models the paper's
  /// production configuration).
  explicit RuntimeProfiler(
      SiteKeyPolicy Policy = SiteKeyPolicy::lastN(4))
      : Policy(Policy) {}

  /// Records an allocation of \p Size bytes returning \p Ptr, attributing
  /// it to the calling thread's current shadow-stack chain.
  void recordAlloc(const void *Ptr, uint32_t Size);

  /// Records the free of \p Ptr.  Unknown pointers are ignored (the
  /// allocation may predate profiling).
  void recordFree(const void *Ptr);

  /// Bytes allocated so far (the lifetime clock).
  uint64_t clock() const { return Clock; }

  /// Finalizes the profile: objects still live are treated as dying now.
  /// The profiler can keep recording afterwards, but typical use is once
  /// at the end of the training run.
  Profile takeProfile();

  /// Convenience: finalize and train in one step.
  SiteDatabase train(const TrainingOptions &Options = {});

private:
  struct LiveObject {
    SiteKey Key;
    uint64_t BirthClock;
    uint32_t Size;
  };

  SiteKeyPolicy Policy;
  uint64_t Clock = 0;
  std::unordered_map<const void *, LiveObject> Live;
  SiteTable Sites;
  uint64_t TotalObjects = 0;
  uint64_t TotalBytes = 0;
};

} // namespace lifepred

#endif // LIFEPRED_RUNTIME_RUNTIMEPROFILER_H
