//===- verify/ShadowSim.cpp - Shadow-checked trace replays -----------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "verify/ShadowSim.h"

#include "core/Profiler.h"
#include "core/Trainer.h"
#include "runtime/Retrainer.h"
#include "sim/CompiledPrediction.h"
#include "trace/CompiledTrace.h"
#include "trace/TraceReplayer.h"

#include <functional>
#include <tuple>

using namespace lifepred;

//===----------------------------------------------------------------------===//
// ShadowReport
//===----------------------------------------------------------------------===//

void ShadowReport::add(uint64_t Op, std::string Invariant,
                       std::string Detail) {
  ++ViolationCount;
  if (Violations.size() < MaxRecorded)
    Violations.push_back({Op, std::move(Invariant), std::move(Detail)});
}

void ShadowReport::merge(const ShadowReport &Other,
                         const std::string &Context) {
  Events += Other.Events;
  Checks += Other.Checks;
  ViolationCount += Other.ViolationCount;
  for (const Violation &V : Other.Violations) {
    if (Violations.size() >= MaxRecorded)
      break;
    Violation Tagged = V;
    Tagged.Detail = "[" + Context + "] " + Tagged.Detail;
    Violations.push_back(std::move(Tagged));
  }
}

std::string ShadowReport::summary() const {
  std::string Text = std::to_string(Checks) + " checks, " +
                     std::to_string(Events) + " events, " +
                     std::to_string(ViolationCount) + " violations";
  if (!Violations.empty())
    Text += "; first: " + Violations.front().Invariant + " at op " +
            std::to_string(Violations.front().Op) + " (" +
            Violations.front().Detail + ")";
  return Text;
}

//===----------------------------------------------------------------------===//
// Trace validation
//===----------------------------------------------------------------------===//

bool lifepred::validateTrace(const AllocationTrace &Trace,
                             std::string &Error) {
  uint32_t Chains = Trace.chainCount();
  for (size_t Id = 0; Id < Trace.size(); ++Id) {
    const AllocRecord &Record = Trace.records()[Id];
    if (Record.ChainIndex >= Chains) {
      Error = "record " + std::to_string(Id) + " references chain " +
              std::to_string(Record.ChainIndex) + " of " +
              std::to_string(Chains);
      return false;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Drivers
//===----------------------------------------------------------------------===//

namespace {

// A route decides where each allocation goes.  place() allocates record Id
// in the observed allocator, reports the address to the shadow and returns
// it; died() hears each death before the free, ended() the final clock.

/// First fit and BSD: every request is placed by its size alone.
struct SizeRoute {
  template <typename AllocatorT, typename ShadowT>
  uint64_t place(AllocatorT &A, ShadowT &S, uint64_t,
                 const AllocRecord &Record, uint64_t) const {
    uint64_t Addr = A.allocate(Record.Size);
    S.onAlloc(Record.Size, Addr);
    return Addr;
  }
  void died(uint64_t, const AllocRecord &, uint64_t) const {}
  void ended(uint64_t) const {}
};

/// Every arena run: Band picks each record's band at its birth (0 or
/// GeneralBand for a short/long verdict); Died and Ended, when set, feed
/// the deaths and the final clock back to a live predictor.
struct ArenaRoute {
  std::function<LifetimeClass(uint64_t Id, const AllocRecord &Record,
                              uint64_t Clock)>
      Band;
  std::function<void(uint64_t Id, const AllocRecord &Record, uint64_t Clock)>
      Died;
  std::function<void(uint64_t Clock)> Ended;

  uint64_t place(ArenaAllocator &A, ShadowArena &S, uint64_t Id,
                 const AllocRecord &Record, uint64_t Clock) const {
    LifetimeClass Chosen = Band(Id, Record, Clock);
    uint64_t Addr = A.allocate(Record.Size, Chosen);
    S.onAlloc(Record.Size, Chosen, Addr);
    return Addr;
  }
  void died(uint64_t Id, const AllocRecord &Record, uint64_t Clock) const {
    if (Died)
      Died(Id, Record, Clock);
  }
  void ended(uint64_t Clock) const {
    if (Ended)
      Ended(Clock);
  }
};

/// The band of a short/long verdict.
LifetimeClass verdictBand(bool Short) {
  return Short ? 0 : ArenaAllocator::GeneralBand;
}

/// Record \p Record's site key, computed from its chain rather than read
/// from a compiled key table.
SiteKey probeKey(const AllocationTrace &Trace, const SiteKeyPolicy &Policy,
                 const AllocRecord &Record) {
  return siteKey(Policy, Trace.chain(Record.ChainIndex), Record.Size,
                 Record.TypeId);
}

/// Oracle-path driver: replays through the priority-queue interleaving.
template <typename AllocatorT, typename ShadowT, typename RouteT>
class OracleDriver : public TraceConsumer {
public:
  OracleDriver(const AllocationTrace &Trace, AllocatorT &Allocator,
               ShadowT &Shadow, const RouteT &Route)
      : Allocator(Allocator), Shadow(Shadow), Route(Route) {
    Addresses.resize(Trace.size());
  }

  void onAlloc(uint64_t Id, const AllocRecord &Record,
               uint64_t Clock) override {
    Addresses[Id] = Route.place(Allocator, Shadow, Id, Record, Clock);
    ++Events;
  }

  void onFree(uint64_t Id, const AllocRecord &Record,
              uint64_t Clock) override {
    Route.died(Id, Record, Clock);
    Allocator.free(Addresses[Id]);
    Shadow.onFree(Addresses[Id]);
    ++Events;
  }

  void onEnd(uint64_t Clock) override { Route.ended(Clock); }

  uint64_t events() const { return Events; }

private:
  AllocatorT &Allocator;
  ShadowT &Shadow;
  const RouteT &Route;
  std::vector<uint64_t> Addresses;
  uint64_t Events = 0;
};

/// Compiled-path driver: replays the flat schedule with no virtual
/// dispatch, mirroring the production simulators.
template <typename AllocatorT, typename ShadowT, typename RouteT>
class CompiledDriver {
public:
  CompiledDriver(const AllocationTrace &Trace, AllocatorT &Allocator,
                 ShadowT &Shadow, const RouteT &Route)
      : Allocator(Allocator), Shadow(Shadow), Route(Route),
        Records(Trace.records().data()) {
    Addresses.resize(Trace.size());
  }

  void onAlloc(uint32_t Id, uint32_t, uint64_t Clock) {
    Addresses[Id] = Route.place(Allocator, Shadow, Id, Records[Id], Clock);
    ++Events;
  }

  void onFree(uint32_t Id, uint64_t Clock) {
    Route.died(Id, Records[Id], Clock);
    Allocator.free(Addresses[Id]);
    Shadow.onFree(Addresses[Id]);
    ++Events;
  }

  void onEnd(uint64_t Clock) { Route.ended(Clock); }

  uint64_t events() const { return Events; }

private:
  AllocatorT &Allocator;
  ShadowT &Shadow;
  const RouteT &Route;
  const AllocRecord *Records;
  std::vector<uint64_t> Addresses;
  uint64_t Events = 0;
};

/// Replays \p Compiled's trace over \p Path through a fresh allocator of
/// \p Config under its shadow.
template <typename AllocatorT, typename ShadowT, typename RouteT>
ShadowReport drive(const CompiledTrace &Compiled, ReplayPath Path,
                   typename AllocatorT::Config Config, const RouteT &Route) {
  AllocatorT Allocator(std::move(Config));
  ViolationLog Log;
  ShadowT Shadow(Allocator, Log);
  const AllocationTrace &Trace = Compiled.trace();
  ShadowReport Report;
  if (Path == ReplayPath::Oracle) {
    OracleDriver<AllocatorT, ShadowT, RouteT> Driver(Trace, Allocator, Shadow,
                                                     Route);
    replayTrace(Trace, Driver);
    Report.Events = Driver.events();
  } else {
    CompiledDriver<AllocatorT, ShadowT, RouteT> Driver(Trace, Allocator,
                                                       Shadow, Route);
    forEachEvent(Compiled, Driver);
    Report.Events = Driver.events();
  }
  Shadow.finish();
  Report.Checks = 1;
  Report.ViolationCount = Log.total();
  Report.Violations = Log.violations();
  return Report;
}

} // namespace

ShadowReport lifepred::shadowCheckFirstFit(const AllocationTrace &Trace,
                                           FirstFitAllocator::Config Config,
                                           ReplayPath Path) {
  return drive<FirstFitAllocator, ShadowFirstFit>(CompiledTrace(Trace), Path,
                                                  Config, SizeRoute());
}

ShadowReport lifepred::shadowCheckBsd(const AllocationTrace &Trace,
                                      BsdAllocator::Config Config,
                                      ReplayPath Path) {
  return drive<BsdAllocator, ShadowBsd>(CompiledTrace(Trace), Path, Config,
                                        SizeRoute());
}

ShadowReport lifepred::shadowCheckArena(const AllocationTrace &Trace,
                                        const SiteDatabase &DB,
                                        ArenaAllocator::Config Config,
                                        ReplayPath Path) {
  CompiledTrace Compiled(Trace, DB.policy());
  ArenaRoute Route;
  if (Path == ReplayPath::Oracle)
    // Oracle path resolves every prediction with a live database probe —
    // independently of the compiled bit table, so a disagreement between
    // the two paths surfaces as a routing violation on one of them.
    Route.Band = [&Trace, &DB](uint64_t, const AllocRecord &Record,
                               uint64_t) {
      return verdictBand(DB.contains(probeKey(Trace, DB.policy(), Record)));
    };
  else
    Route.Band = [Bits = PredictedShortBits(Compiled, DB)](
                     uint64_t Id, const AllocRecord &, uint64_t) {
      return verdictBand(Bits.test(Id));
    };
  return drive<ArenaAllocator, ShadowArena>(Compiled, Path, std::move(Config),
                                            Route);
}

ShadowReport lifepred::shadowCheckArenaOnline(const AllocationTrace &Trace,
                                              const SiteDatabase &DB,
                                              OnlinePredictorConfig OnlineConfig,
                                              ArenaAllocator::Config Config,
                                              ReplayPath Path) {
  // Resolve the window width once so the live predictor and the compiled
  // plan close retrain windows on the same clocks.
  OnlineConfig.WindowBytes =
      resolveOnlineWindowBytes(OnlineConfig, Trace.totalBytes());
  CompiledTrace Compiled(Trace, DB.policy());
  OnlineRoutePlan Plan = compileOnlineRoutes(Compiled, OnlineConfig);

  ArenaRoute Route;
  if (Path == ReplayPath::Compiled) {
    Route.Band = [Bits = DynamicRouteBits(std::move(Plan.RouteWords))](
                     uint64_t Id, const AllocRecord &, uint64_t) {
      return verdictBand(Bits.test(Id));
    };
    return drive<ArenaAllocator, ShadowArena>(Compiled, Path,
                                              std::move(Config), Route);
  }

  // Oracle path: a live predictor routes each allocation at its birth
  // clock and sees each death as it happens — the causal loop the route
  // compile pass (runtime/Retrainer.h) replays sequentially.
  OnlinePredictor Online(OnlineConfig);
  std::vector<SiteKey> Keys(Trace.size());
  std::vector<unsigned char> Short(Trace.size());
  Route.Band = [&](uint64_t Id, const AllocRecord &Record, uint64_t Clock) {
    Online.advanceClock(Clock);
    Keys[Id] = probeKey(Trace, DB.policy(), Record);
    Short[Id] = Online.routeShort(Keys[Id]);
    return verdictBand(Short[Id]);
  };
  // Feed back the route the object was *born* under, so misprediction
  // evidence scores what the allocator actually did.
  Route.Died = [&](uint64_t Id, const AllocRecord &Record, uint64_t Clock) {
    Online.advanceClock(Clock);
    Online.observeDeath(Keys[Id], Short[Id] != 0, Record.Lifetime);
  };
  Route.Ended = [&Online](uint64_t Clock) { Online.finish(Clock); };
  ShadowReport Report = drive<ArenaAllocator, ShadowArena>(
      Compiled, Path, std::move(Config), Route);

  // Routes must be a pure function of the event stream: the live causal
  // run and the sequential route compile pass agree on every birth.
  for (size_t Id = 0; Id < Trace.size(); ++Id)
    if ((Short[Id] != 0) != Plan.testShort(Id))
      Report.add(Id, "online-route-differential",
                 "live oracle route disagrees with the compiled plan at "
                 "record " +
                     std::to_string(Id));
  if (Online.epoch() != Plan.Epochs)
    Report.add(Trace.size(), "online-route-differential",
               "live oracle epoch " + std::to_string(Online.epoch()) +
                   " != compiled plan epoch " + std::to_string(Plan.Epochs));
  return Report;
}

ShadowReport lifepred::shadowCheckMultiArena(const AllocationTrace &Trace,
                                             const ClassDatabase &DB,
                                             ReplayPath Path) {
  ArenaAllocator::Config Config;
  Config.Bands.resize(DB.thresholds().size());
  CompiledTrace Compiled(Trace, DB.policy());
  ArenaRoute Route;
  if (Path == ReplayPath::Oracle)
    Route.Band = [&Trace, &DB](uint64_t, const AllocRecord &Record,
                               uint64_t) {
      return DB.classify(probeKey(Trace, DB.policy(), Record));
    };
  else
    Route.Band = [Bands = compileBands(Compiled, DB)](
                     uint64_t Id, const AllocRecord &, uint64_t) {
      return Bands[Id];
    };
  return drive<ArenaAllocator, ShadowArena>(Compiled, Path, std::move(Config),
                                            Route);
}

//===----------------------------------------------------------------------===//
// Replay-path differential
//===----------------------------------------------------------------------===//

namespace {

/// One replay event for stream comparison.
using StreamEvent = std::tuple<bool, uint64_t, uint64_t>; // free?, id, clock

class StreamCollector : public TraceConsumer {
public:
  void onAlloc(uint64_t Id, const AllocRecord &, uint64_t Clock) override {
    Stream.emplace_back(false, Id, Clock);
  }
  void onFree(uint64_t Id, const AllocRecord &, uint64_t Clock) override {
    Stream.emplace_back(true, Id, Clock);
  }
  void onEnd(uint64_t Clock) override { EndClock = Clock; }

  std::vector<StreamEvent> Stream;
  uint64_t EndClock = 0;
};

} // namespace

ShadowReport lifepred::diffReplayPaths(const AllocationTrace &Trace) {
  StreamCollector Oracle;
  replayTrace(Trace, Oracle);
  EventSchedule Schedule(Trace);

  ShadowReport Report;
  Report.Checks = 1;
  Report.Events = Oracle.Stream.size();
  if (Schedule.size() != Oracle.Stream.size()) {
    Report.add(0, "schedule-differential",
               "oracle emits " + std::to_string(Oracle.Stream.size()) +
                   " events but the compiled schedule has " +
                   std::to_string(Schedule.size()));
    return Report;
  }
  for (size_t Event = 0; Event < Schedule.size(); ++Event) {
    auto [Free, Id, Clock] = Oracle.Stream[Event];
    if (Schedule.isFree(Event) != Free || Schedule.objectId(Event) != Id ||
        Schedule.clock(Event) != Clock) {
      Report.add(Event, "schedule-differential",
                 "event streams diverge at position " + std::to_string(Event));
      break;
    }
  }
  if (Schedule.endClock() != Oracle.EndClock)
    Report.add(Schedule.size(), "schedule-differential",
               "oracle end clock " + std::to_string(Oracle.EndClock) +
                   " != compiled " + std::to_string(Schedule.endClock()));
  return Report;
}

//===----------------------------------------------------------------------===//
// shadowCheckAll
//===----------------------------------------------------------------------===//

ShadowReport lifepred::shadowCheckAll(const AllocationTrace &Trace) {
  ShadowReport Report;
  std::string Error;
  if (!validateTrace(Trace, Error)) {
    Report.Checks = 1;
    Report.add(0, "trace-structure", Error);
    return Report;
  }

  auto CheckFF = [&Report, &Trace](FitPolicy Policy, bool Bins,
                                   ReplayPath Path, const char *Context) {
    FirstFitAllocator::Config Config;
    Config.Policy = Policy;
    Config.BestFitBins = Bins;
    Report.merge(shadowCheckFirstFit(Trace, Config, Path), Context);
  };
  CheckFF(FitPolicy::RovingFirstFit, false, ReplayPath::Oracle,
          "firstfit-roving/oracle");
  CheckFF(FitPolicy::RovingFirstFit, false, ReplayPath::Compiled,
          "firstfit-roving/compiled");
  CheckFF(FitPolicy::AddressOrderedFirstFit, false, ReplayPath::Compiled,
          "firstfit-addr/compiled");
  CheckFF(FitPolicy::BestFit, false, ReplayPath::Oracle, "bestfit/oracle");
  CheckFF(FitPolicy::BestFit, false, ReplayPath::Compiled,
          "bestfit/compiled");
  CheckFF(FitPolicy::BestFit, true, ReplayPath::Compiled,
          "bestfit-bins/compiled");

  Report.merge(shadowCheckBsd(Trace, BsdAllocator::Config(),
                              ReplayPath::Oracle),
               "bsd/oracle");
  Report.merge(shadowCheckBsd(Trace, BsdAllocator::Config(),
                              ReplayPath::Compiled),
               "bsd/compiled");
  BsdAllocator::Config BitmapConfig;
  BitmapConfig.FreeList = BsdAllocator::FreeListKind::Bitmap;
  Report.merge(shadowCheckBsd(Trace, BitmapConfig, ReplayPath::Oracle),
               "bsd-bitmap/oracle");
  Report.merge(shadowCheckBsd(Trace, BitmapConfig, ReplayPath::Compiled),
               "bsd-bitmap/compiled");

  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  Profile Prof = profileTrace(Trace, Policy);
  SiteDatabase DB = trainDatabase(Prof, Policy);
  Report.merge(shadowCheckArena(Trace, DB, ArenaAllocator::Config(),
                                ReplayPath::Oracle),
               "arena/oracle");
  Report.merge(shadowCheckArena(Trace, DB, ArenaAllocator::Config(),
                                ReplayPath::Compiled),
               "arena/compiled");

  OnlinePredictorConfig OnlineConfig;
  OnlineConfig.WarmStart = &DB;
  Report.merge(shadowCheckArenaOnline(Trace, DB, OnlineConfig,
                                      ArenaAllocator::Config(),
                                      ReplayPath::Oracle),
               "arena-online/oracle");
  Report.merge(shadowCheckArenaOnline(Trace, DB, OnlineConfig,
                                      ArenaAllocator::Config(),
                                      ReplayPath::Compiled),
               "arena-online/compiled");

  ClassDatabase CDB = trainClassDatabase(Prof, Policy, {4096, 32 * 1024});
  Report.merge(shadowCheckMultiArena(Trace, CDB, ReplayPath::Oracle),
               "multiarena/oracle");
  Report.merge(shadowCheckMultiArena(Trace, CDB, ReplayPath::Compiled),
               "multiarena/compiled");

  Report.merge(diffReplayPaths(Trace), "schedule");
  return Report;
}
