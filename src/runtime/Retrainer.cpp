//===- runtime/Retrainer.cpp - Online route compile pass -------------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/Retrainer.h"

#include "support/Assert.h"
#include "telemetry/DriftObservatory.h"
#include "trace/TraceReplayer.h"

using namespace lifepred;

uint64_t
lifepred::resolveOnlineWindowBytes(const OnlinePredictorConfig &Config,
                                   uint64_t EndClock) {
  return Config.WindowBytes != 0 ? Config.WindowBytes
                                 : DriftObservatory::autoWindowBytes(EndClock);
}

namespace {

/// Shared per-event logic of the two drivers: route at birth (recording
/// the bit), observe at death under the birth route.  The route words
/// double as the birth-route memo the death observation needs.
class RoutePlanBuilder {
public:
  RoutePlanBuilder(OnlinePredictor &Predictor, size_t Records)
      : Predictor(Predictor) {
    Words.assign((Records + 63) / 64, 0);
  }

  void alloc(uint64_t Id, SiteKey Key, uint64_t Clock) {
    Predictor.advanceClock(Clock);
    if (Predictor.routeShort(Key))
      Words[Id >> 6] |= uint64_t(1) << (Id & 63);
  }

  void free(uint64_t Id, SiteKey Key, uint64_t Lifetime, uint64_t Clock) {
    Predictor.advanceClock(Clock);
    bool RoutedShort = (Words[Id >> 6] >> (Id & 63)) & 1;
    Predictor.observeDeath(Key, RoutedShort, Lifetime);
  }

  void end(uint64_t Clock) { Predictor.finish(Clock); }

  std::vector<uint64_t> takeWords() { return std::move(Words); }

private:
  OnlinePredictor &Predictor;
  std::vector<uint64_t> Words;
};

/// forEachEvent consumer over the compiled schedule.
class CompiledRouteConsumer : public ScheduleConsumer<CompiledRouteConsumer> {
public:
  CompiledRouteConsumer(RoutePlanBuilder &Builder, const AllocationTrace &Trace,
                        const std::vector<SiteKey> &Keys)
      : Builder(Builder), Records(Trace.records().data()), Keys(Keys.data()) {}

  void onAlloc(uint32_t Id, uint32_t, uint64_t Clock) {
    Builder.alloc(Id, Keys[Id], Clock);
  }
  void onFree(uint32_t Id, uint64_t Clock) {
    Builder.free(Id, Keys[Id], Records[Id].Lifetime, Clock);
  }
  void onEnd(uint64_t Clock) { Builder.end(Clock); }

private:
  RoutePlanBuilder &Builder;
  const AllocRecord *Records;
  const SiteKey *Keys;
};

/// replayTrace consumer: the oracle-path twin.
class OracleRouteConsumer : public TraceConsumer {
public:
  OracleRouteConsumer(RoutePlanBuilder &Builder, const AllocationTrace &Trace,
                      const SiteKeyPolicy &Policy)
      : Builder(Builder), Trace(Trace), Policy(Policy) {}

  void onAlloc(uint64_t Id, const AllocRecord &Record,
               uint64_t Clock) override {
    Builder.alloc(Id, keyFor(Record), Clock);
  }
  void onFree(uint64_t Id, const AllocRecord &Record,
              uint64_t Clock) override {
    Builder.free(Id, keyFor(Record), Record.Lifetime, Clock);
  }
  void onEnd(uint64_t Clock) override { Builder.end(Clock); }

private:
  SiteKey keyFor(const AllocRecord &Record) const {
    return siteKey(Policy, Trace.chain(Record.ChainIndex), Record.Size,
                   Record.TypeId);
  }

  RoutePlanBuilder &Builder;
  const AllocationTrace &Trace;
  const SiteKeyPolicy &Policy;
};

OnlineRoutePlan sealPlan(OnlinePredictor &Predictor, RoutePlanBuilder &Builder,
                         size_t Records) {
  OnlineRoutePlan Plan;
  Plan.RouteWords = Builder.takeWords();
  Plan.Records = Records;
  Plan.Retrains = Predictor.retrains();
  Plan.Sites = Predictor.snapshot();
  Plan.WindowBytes = Predictor.windowBytes();
  Plan.Threshold = Predictor.threshold();
  Plan.Epochs = Predictor.epoch();
  Plan.SitesSeen = Predictor.siteCount();
  Plan.DeathsObserved = Predictor.deathCount();
  return Plan;
}

} // namespace

OnlineRoutePlan lifepred::compileOnlineRoutes(const CompiledTrace &Compiled,
                                              OnlinePredictorConfig Config) {
  assert(Compiled.hasKeys() && "compile the trace with a key policy");
  Config.WindowBytes =
      resolveOnlineWindowBytes(Config, Compiled.schedule().endClock());
  OnlinePredictor Predictor(Config);
  RoutePlanBuilder Builder(Predictor, Compiled.trace().size());
  CompiledRouteConsumer Consumer(Builder, Compiled.trace(),
                                 Compiled.recordKeys());
  forEachEvent(Compiled, Consumer);
  return sealPlan(Predictor, Builder, Compiled.trace().size());
}

OnlineRoutePlan
lifepred::replayOnlineRoutesOracle(const AllocationTrace &Trace,
                                   const SiteKeyPolicy &Policy,
                                   OnlinePredictorConfig Config) {
  // The oracle's final clock equals the schedule's end clock (total
  // allocated bytes), so the auto window width matches the compiled pass.
  Config.WindowBytes = resolveOnlineWindowBytes(Config, Trace.totalBytes());
  OnlinePredictor Predictor(Config);
  RoutePlanBuilder Builder(Predictor, Trace.size());
  OracleRouteConsumer Consumer(Builder, Trace, Policy);
  replayTrace(Trace, Consumer);
  return sealPlan(Predictor, Builder, Trace.size());
}
