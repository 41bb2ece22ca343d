//===- verify/ShadowSim.h - Shadow-checked trace replays --------*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drivers that replay an AllocationTrace through each allocator family
/// under a ShadowHeap oracle, over either replay path — the priority-queue
/// reference oracle (replayTrace) or the compiled flat schedule
/// (CompiledTrace/forEachEvent).  The arena drivers resolve predictions
/// independently per path (direct database probes on the oracle path,
/// PredictedShortBits / compileBands on the compiled path), so a shadow run
/// over both paths doubles as a differential test of the prediction
/// compilation.  shadowCheckAll composes every family, policy, and path
/// into one verdict; it is the fuzzer's per-trace test function.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_VERIFY_SHADOWSIM_H
#define LIFEPRED_VERIFY_SHADOWSIM_H

#include "core/LifetimeClassifier.h"
#include "core/SiteDatabase.h"
#include "runtime/OnlinePredictor.h"
#include "verify/ShadowHeap.h"

#include <string>
#include <vector>

namespace lifepred {

class AllocationTrace;

/// Which event-interleaving engine drives a shadow-checked replay.
enum class ReplayPath {
  Oracle,   ///< replayTrace's priority-queue reference interleaving.
  Compiled, ///< CompiledTrace's flat schedule (the production path).
};

/// Outcome of one or more shadow-checked replays.
struct ShadowReport {
  uint64_t Events = 0;          ///< Alloc + free events replayed.
  uint64_t Checks = 0;          ///< Shadow-checked replays performed.
  uint64_t ViolationCount = 0;  ///< Total violations across all checks.
  std::vector<Violation> Violations; ///< First few, with check context.

  bool clean() const { return ViolationCount == 0; }

  /// Folds \p Other into this report, prefixing its recorded violations
  /// with \p Context (e.g. "firstfit/compiled").
  void merge(const ShadowReport &Other, const std::string &Context);

  /// One-line human-readable verdict.
  std::string summary() const;
};

/// Structural validation of a trace: every record's chain index must be in
/// range.  Traces read from (possibly corrupt) external bytes go through
/// this before any replay touches them.
bool validateTrace(const AllocationTrace &Trace, std::string &Error);

/// Replays \p Trace through a FirstFitAllocator under ShadowFirstFit.
ShadowReport shadowCheckFirstFit(const AllocationTrace &Trace,
                                 FirstFitAllocator::Config Config,
                                 ReplayPath Path);

/// Replays \p Trace through a BsdAllocator under ShadowBsd.
ShadowReport shadowCheckBsd(const AllocationTrace &Trace,
                            BsdAllocator::Config Config, ReplayPath Path);

/// Replays \p Trace through an ArenaAllocator under ShadowArena, routing
/// by \p DB's predictions.
ShadowReport shadowCheckArena(const AllocationTrace &Trace,
                              const SiteDatabase &DB,
                              ArenaAllocator::Config Config, ReplayPath Path);

/// Replays \p Trace through an ArenaAllocator under ShadowArena with
/// *online* routing.  The oracle path drives a live OnlinePredictor
/// causally — advanceClock / routeShort at each birth, observeDeath at
/// each death — and afterwards cross-checks every birth route against the
/// frozen compileOnlineRoutes plan (the routes-are-a-pure-function-of-the-
/// event-stream invariant).  The compiled path consumes the frozen plan
/// through DynamicRouteBits, exactly as the production sharded replays do.
/// \p OnlineConfig's WindowBytes, when 0, resolves to the trace's
/// automatic drift-window width on both paths.
ShadowReport shadowCheckArenaOnline(const AllocationTrace &Trace,
                                    const SiteDatabase &DB,
                                    OnlinePredictorConfig OnlineConfig,
                                    ArenaAllocator::Config Config,
                                    ReplayPath Path);

/// Replays \p Trace through a banded ArenaAllocator under ShadowMultiArena,
/// routing by \p DB's band classifications.  The allocator is configured
/// with one band per database threshold.
ShadowReport shadowCheckMultiArena(const AllocationTrace &Trace,
                                   const ClassDatabase &DB, ReplayPath Path);

/// Compares the oracle and compiled event streams of \p Trace event by
/// event: same kind, object id, and clock at every position, same final
/// clock.  The schedule-differential invariant.
ShadowReport diffReplayPaths(const AllocationTrace &Trace);

/// The fuzzer's per-trace test function: structural validation, then every
/// allocator family x fit policy x replay path under its shadow, a trained
/// arena and multi-arena run, and the replay-path differential.
ShadowReport shadowCheckAll(const AllocationTrace &Trace);

} // namespace lifepred

#endif // LIFEPRED_VERIFY_SHADOWSIM_H
