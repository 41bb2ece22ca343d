//===- runtime/Retrainer.h - Online route compile pass ----------*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bridges the inherently *causal* online predictor into the project's
/// jobs-invariant replay discipline.  An online model must see deaths in
/// event order, so it cannot run inside a sharded replay directly; instead
/// this pass drives an OnlinePredictor over the event stream **once,
/// sequentially** — O(events), far cheaper than any allocator replay —
/// and materializes the outcome as an immutable per-record route plan:
/// one routed-short bit per trace record (the route the record's site held
/// at the record's birth), plus the full retrain timeline and per-site
/// forensics.  The compiled arena simulator and the shadow oracle then
/// consume the frozen artifact, and their telemetry is byte-identical at
/// any worker count because the plan is a pure function of the event
/// stream (DESIGN.md §17).
///
/// Two drivers produce the plan: compileOnlineRoutes walks the compiled
/// flat schedule; replayOnlineRoutesOracle drives the replayTrace
/// priority-queue oracle.  The two event streams are bit-identical by the
/// CompiledTrace contract, so the plans must match exactly — the
/// differential spine of tests/online_predictor_test.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_RUNTIME_RETRAINER_H
#define LIFEPRED_RUNTIME_RETRAINER_H

#include "runtime/OnlinePredictor.h"
#include "trace/AllocationTrace.h"
#include "trace/CompiledTrace.h"

#include <cstdint>
#include <vector>

namespace lifepred {

/// Confusion-matrix score of one route assignment over one trace, in the
/// paper's terms (an object is actually short-lived when its traced
/// lifetime is within the threshold; never-freed objects are long).
struct RouteScore {
  uint64_t TrueShort = 0;
  uint64_t FalseShort = 0;
  uint64_t MissedShort = 0;
  uint64_t TrueLong = 0;

  uint64_t total() const {
    return TrueShort + FalseShort + MissedShort + TrueLong;
  }
  int64_t accuracyPpm() const {
    uint64_t Total = total();
    return Total == 0 ? -1
                      : static_cast<int64_t>((TrueShort + TrueLong) *
                                             1000000 / Total);
  }
  double accuracyPercent() const {
    uint64_t Total = total();
    return Total == 0 ? 0.0
                      : 100.0 * static_cast<double>(TrueShort + TrueLong) /
                            static_cast<double>(Total);
  }

  bool operator==(const RouteScore &Other) const = default;
};

/// The immutable artifact of one online-prediction pass: per-record birth
/// routes plus the retrain forensics.  Wrap RouteWords in a
/// sim/CompiledPrediction.h DynamicRouteBits to feed the simulators.
struct OnlineRoutePlan {
  /// One bit per trace record: routed short-lived at birth.
  std::vector<uint64_t> RouteWords;
  size_t Records = 0;
  /// Applied re-routes, in (window, site-key) order.
  std::vector<RetrainEvent> Retrains;
  /// Final per-site model state, key-sorted.
  std::vector<OnlineSiteSnapshot> Sites;
  uint64_t WindowBytes = 0;
  uint64_t Threshold = 0;
  uint32_t Epochs = 0;       ///< Final routing-table epoch.
  uint64_t SitesSeen = 0;
  uint64_t DeathsObserved = 0;

  bool testShort(uint64_t Id) const {
    return (RouteWords[Id >> 6] >> (Id & 63)) & 1;
  }

  bool operator==(const OnlineRoutePlan &Other) const = default;
};

/// The window width an online replay of a schedule ending at \p EndClock
/// uses when \p Config leaves WindowBytes automatic: the DriftObservatory
/// auto width, so the online CUSUM sees the same windows the offline
/// drift report scores.
uint64_t resolveOnlineWindowBytes(const OnlinePredictorConfig &Config,
                                  uint64_t EndClock);

/// Drives an OnlinePredictor over \p Compiled's flat event schedule (site
/// keys required) and returns the frozen route plan.
OnlineRoutePlan compileOnlineRoutes(const CompiledTrace &Compiled,
                                    OnlinePredictorConfig Config);

/// Oracle-path twin of compileOnlineRoutes: drives the predictor from the
/// replayTrace priority-queue oracle under \p Policy.  Produces an
/// identical plan (differential-tested).
OnlineRoutePlan replayOnlineRoutesOracle(const AllocationTrace &Trace,
                                         const SiteKeyPolicy &Policy,
                                         OnlinePredictorConfig Config);

/// Scores any route assignment over \p Trace against \p Threshold.
/// \p RoutedShort maps a record id to its routed-short verdict — wrap a
/// PredictedShortBits, an OnlineRoutePlan, or an oracle lambda.
template <typename RouteFn>
RouteScore scoreRoutes(const AllocationTrace &Trace, uint64_t Threshold,
                       RouteFn &&RoutedShort) {
  RouteScore Score;
  const std::vector<AllocRecord> &Records = Trace.records();
  for (size_t Id = 0; Id < Records.size(); ++Id) {
    bool Predicted = RoutedShort(Id);
    bool ActuallyShort = Records[Id].Lifetime <= Threshold;
    if (Predicted)
      ++(ActuallyShort ? Score.TrueShort : Score.FalseShort);
    else
      ++(ActuallyShort ? Score.MissedShort : Score.TrueLong);
  }
  return Score;
}

} // namespace lifepred

#endif // LIFEPRED_RUNTIME_RETRAINER_H
