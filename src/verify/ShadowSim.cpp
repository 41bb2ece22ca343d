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

#include <tuple>

using namespace lifepred;

//===----------------------------------------------------------------------===//
// ShadowReport
//===----------------------------------------------------------------------===//

void ShadowReport::merge(const ShadowReport &Other,
                         const std::string &Context) {
  Events += Other.Events;
  Checks += Other.Checks;
  ViolationCount += Other.ViolationCount;
  for (const Violation &V : Other.Violations) {
    if (Violations.size() >= 32)
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

/// Turns a ViolationLog and an event count into a ShadowReport.
ShadowReport reportFrom(const ViolationLog &Log, uint64_t Events) {
  ShadowReport Report;
  Report.Events = Events;
  Report.Checks = 1;
  Report.ViolationCount = Log.total();
  Report.Violations = Log.violations();
  return Report;
}

/// Oracle-path driver: replays through the priority-queue interleaving.
/// ShadowT provides onAlloc(Size, ..., Addr) via the Route functor and
/// onFree(Addr).
template <typename AllocatorT, typename ShadowT, typename RouteT>
class OracleDriver : public TraceConsumer {
public:
  OracleDriver(const AllocationTrace &Trace, AllocatorT &Allocator,
               ShadowT &Shadow, RouteT Route)
      : Allocator(Allocator), Shadow(Shadow), Route(Route) {
    Addresses.resize(Trace.size());
  }

  void onAlloc(uint64_t Id, const AllocRecord &Record, uint64_t) override {
    Addresses[Id] = Route(Allocator, Shadow, Id, Record);
    ++Events;
  }

  void onFree(uint64_t Id, const AllocRecord &, uint64_t) override {
    Allocator.free(Addresses[Id]);
    Shadow.onFree(Addresses[Id]);
    ++Events;
  }

  uint64_t events() const { return Events; }

private:
  AllocatorT &Allocator;
  ShadowT &Shadow;
  RouteT Route;
  std::vector<uint64_t> Addresses;
  uint64_t Events = 0;
};

/// Compiled-path driver: replays the flat schedule with no virtual
/// dispatch, mirroring the production simulators.
template <typename AllocatorT, typename ShadowT, typename RouteT>
class CompiledDriver
    : public ScheduleConsumer<CompiledDriver<AllocatorT, ShadowT, RouteT>> {
public:
  CompiledDriver(const AllocationTrace &Trace, AllocatorT &Allocator,
                 ShadowT &Shadow, RouteT Route)
      : Allocator(Allocator), Shadow(Shadow), Route(Route),
        Records(Trace.records().data()) {
    Addresses.resize(Trace.size());
  }

  void onAlloc(uint32_t Id, uint32_t, uint64_t) {
    Addresses[Id] = Route(Allocator, Shadow, Id, Records[Id]);
    ++Events;
  }

  void onFree(uint32_t Id, uint64_t) {
    Allocator.free(Addresses[Id]);
    Shadow.onFree(Addresses[Id]);
    ++Events;
  }

  uint64_t events() const { return Events; }

private:
  AllocatorT &Allocator;
  ShadowT &Shadow;
  RouteT Route;
  const AllocRecord *Records;
  std::vector<uint64_t> Addresses;
  uint64_t Events = 0;
};

/// Runs one shadow-checked replay over the requested path.
template <typename AllocatorT, typename ShadowT, typename RouteT>
uint64_t drive(const AllocationTrace &Trace, ReplayPath Path,
               AllocatorT &Allocator, ShadowT &Shadow, RouteT Route) {
  if (Path == ReplayPath::Oracle) {
    OracleDriver<AllocatorT, ShadowT, RouteT> Driver(Trace, Allocator, Shadow,
                                                     Route);
    replayTrace(Trace, Driver);
    Shadow.finish();
    return Driver.events();
  }
  CompiledTrace Compiled(Trace);
  CompiledDriver<AllocatorT, ShadowT, RouteT> Driver(Trace, Allocator, Shadow,
                                                     Route);
  forEachEvent(Compiled, Driver);
  Shadow.finish();
  return Driver.events();
}

} // namespace

ShadowReport lifepred::shadowCheckFirstFit(const AllocationTrace &Trace,
                                           FirstFitAllocator::Config Config,
                                           ReplayPath Path) {
  FirstFitAllocator Allocator(Config);
  ViolationLog Log;
  ShadowFirstFit Shadow(Allocator, Log);
  auto Route = [](FirstFitAllocator &A, ShadowFirstFit &S, uint64_t,
                  const AllocRecord &Record) {
    uint64_t Addr = A.allocate(Record.Size);
    S.onAlloc(Record.Size, Addr);
    return Addr;
  };
  uint64_t Events = drive(Trace, Path, Allocator, Shadow, Route);
  return reportFrom(Log, Events);
}

ShadowReport lifepred::shadowCheckBsd(const AllocationTrace &Trace,
                                      BsdAllocator::Config Config,
                                      ReplayPath Path) {
  BsdAllocator Allocator(Config);
  ViolationLog Log;
  ShadowBsd Shadow(Allocator, Log);
  auto Route = [](BsdAllocator &A, ShadowBsd &S, uint64_t,
                  const AllocRecord &Record) {
    uint64_t Addr = A.allocate(Record.Size);
    S.onAlloc(Record.Size, Addr);
    return Addr;
  };
  uint64_t Events = drive(Trace, Path, Allocator, Shadow, Route);
  return reportFrom(Log, Events);
}

ShadowReport lifepred::shadowCheckArena(const AllocationTrace &Trace,
                                        const SiteDatabase &DB,
                                        ArenaAllocator::Config Config,
                                        ReplayPath Path) {
  ArenaAllocator Allocator(Config);
  ViolationLog Log;
  ShadowArena Shadow(Allocator, Log);
  uint64_t Events = 0;

  if (Path == ReplayPath::Oracle) {
    // Oracle path resolves every prediction with a live database probe —
    // independently of the compiled bit table, so a disagreement between
    // the two paths surfaces as a routing violation on one of them.
    auto Route = [&Trace, &DB](ArenaAllocator &A, ShadowArena &S, uint64_t,
                               const AllocRecord &Record) {
      bool Predicted = DB.contains(siteKey(DB.policy(),
                                           Trace.chain(Record.ChainIndex),
                                           Record.Size, Record.TypeId));
      uint64_t Addr = A.allocate(Record.Size, Predicted);
      S.onAlloc(Record.Size, Predicted, Addr);
      return Addr;
    };
    Events = drive(Trace, Path, Allocator, Shadow, Route);
  } else {
    CompiledTrace Compiled(Trace, DB.policy());
    PredictedShortBits Predicted(Compiled, DB);
    auto Route = [&Predicted](ArenaAllocator &A, ShadowArena &S, uint64_t Id,
                              const AllocRecord &Record) {
      bool Bit = Predicted.test(Id);
      uint64_t Addr = A.allocate(Record.Size, Bit);
      S.onAlloc(Record.Size, Bit, Addr);
      return Addr;
    };
    CompiledDriver<ArenaAllocator, ShadowArena, decltype(Route)> Driver(
        Trace, Allocator, Shadow, Route);
    forEachEvent(Compiled, Driver);
    Shadow.finish();
    Events = Driver.events();
  }
  return reportFrom(Log, Events);
}

namespace {

/// Oracle-path online driver: a live predictor routes each allocation at
/// its birth clock and sees each death as it happens — the causal loop the
/// route compile pass (runtime/Retrainer.h) replays sequentially.
class OnlineOracleDriver : public TraceConsumer {
public:
  OnlineOracleDriver(const AllocationTrace &Trace, const SiteKeyPolicy &Policy,
                     OnlinePredictor &Online, ArenaAllocator &Allocator,
                     ShadowArena &Shadow)
      : Trace(Trace), Policy(Policy), Online(Online), Allocator(Allocator),
        Shadow(Shadow) {
    Addresses.resize(Trace.size());
    Keys.resize(Trace.size());
    Routes.resize(Trace.size());
  }

  void onAlloc(uint64_t Id, const AllocRecord &Record,
               uint64_t Clock) override {
    Online.advanceClock(Clock);
    SiteKey Key = siteKey(Policy, Trace.chain(Record.ChainIndex), Record.Size,
                          Record.TypeId);
    bool Route = Online.routeShort(Key);
    Keys[Id] = Key;
    Routes[Id] = Route;
    Addresses[Id] = Allocator.allocate(Record.Size, Route);
    Shadow.onAlloc(Record.Size, Route, Addresses[Id]);
    ++Events;
  }

  void onFree(uint64_t Id, const AllocRecord &Record,
              uint64_t Clock) override {
    Online.advanceClock(Clock);
    // Feed back the route the object was *born* under, so misprediction
    // evidence scores what the allocator actually did.
    Online.observeDeath(Keys[Id], Routes[Id] != 0, Record.Lifetime);
    Allocator.free(Addresses[Id]);
    Shadow.onFree(Addresses[Id]);
    ++Events;
  }

  void onEnd(uint64_t Clock) override { Online.finish(Clock); }

  uint64_t events() const { return Events; }
  bool routedShort(uint64_t Id) const { return Routes[Id] != 0; }

private:
  const AllocationTrace &Trace;
  const SiteKeyPolicy &Policy;
  OnlinePredictor &Online;
  ArenaAllocator &Allocator;
  ShadowArena &Shadow;
  std::vector<uint64_t> Addresses;
  std::vector<SiteKey> Keys;
  std::vector<unsigned char> Routes;
  uint64_t Events = 0;
};

} // namespace

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

  ArenaAllocator Allocator(Config);
  ViolationLog Log;
  ShadowArena Shadow(Allocator, Log);

  if (Path == ReplayPath::Oracle) {
    OnlinePredictor Online(OnlineConfig);
    OnlineOracleDriver Driver(Trace, DB.policy(), Online, Allocator, Shadow);
    replayTrace(Trace, Driver);
    Shadow.finish();
    ShadowReport Report = reportFrom(Log, Driver.events());
    // Routes must be a pure function of the event stream: the live causal
    // run and the sequential route compile pass agree on every birth.
    for (size_t Id = 0; Id < Trace.size(); ++Id) {
      if (Driver.routedShort(Id) == Plan.testShort(Id))
        continue;
      ++Report.ViolationCount;
      if (Report.Violations.size() < 32)
        Report.Violations.push_back(
            {Id, "online-route-differential",
             "live oracle route disagrees with the compiled plan at record " +
                 std::to_string(Id)});
    }
    if (Online.epoch() != Plan.Epochs) {
      ++Report.ViolationCount;
      if (Report.Violations.size() < 32)
        Report.Violations.push_back(
            {Trace.size(), "online-route-differential",
             "live oracle epoch " + std::to_string(Online.epoch()) +
                 " != compiled plan epoch " + std::to_string(Plan.Epochs)});
    }
    return Report;
  }

  DynamicRouteBits Routes(Plan.RouteWords);
  auto Route = [&Routes](ArenaAllocator &A, ShadowArena &S, uint64_t Id,
                         const AllocRecord &Record) {
    bool Bit = Routes.test(Id);
    uint64_t Addr = A.allocate(Record.Size, Bit);
    S.onAlloc(Record.Size, Bit, Addr);
    return Addr;
  };
  CompiledDriver<ArenaAllocator, ShadowArena, decltype(Route)> Driver(
      Trace, Allocator, Shadow, Route);
  forEachEvent(Compiled, Driver);
  Shadow.finish();
  return reportFrom(Log, Driver.events());
}

ShadowReport lifepred::shadowCheckMultiArena(const AllocationTrace &Trace,
                                             const ClassDatabase &DB,
                                             ReplayPath Path) {
  MultiArenaAllocator::Config Config;
  for (size_t I = 0; I < DB.thresholds().size(); ++I)
    Config.Bands.push_back(MultiArenaAllocator::BandConfig());
  MultiArenaAllocator Allocator(Config);
  ViolationLog Log;
  ShadowMultiArena Shadow(Allocator, Log);
  uint64_t Events = 0;

  if (Path == ReplayPath::Oracle) {
    auto Route = [&Trace, &DB](MultiArenaAllocator &A, ShadowMultiArena &S,
                               uint64_t, const AllocRecord &Record) {
      uint8_t Band = DB.classify(siteKey(DB.policy(),
                                         Trace.chain(Record.ChainIndex),
                                         Record.Size, Record.TypeId));
      uint64_t Addr = A.allocate(Record.Size, Band);
      S.onAlloc(Record.Size, Band, Addr);
      return Addr;
    };
    Events = drive(Trace, Path, Allocator, Shadow, Route);
  } else {
    CompiledTrace Compiled(Trace, DB.policy());
    std::vector<LifetimeClass> Bands = compileBands(Compiled, DB);
    auto Route = [&Bands](MultiArenaAllocator &A, ShadowMultiArena &S,
                          uint64_t Id, const AllocRecord &Record) {
      uint8_t Band = Bands[Id];
      uint64_t Addr = A.allocate(Record.Size, Band);
      S.onAlloc(Record.Size, Band, Addr);
      return Addr;
    };
    CompiledDriver<MultiArenaAllocator, ShadowMultiArena, decltype(Route)>
        Driver(Trace, Allocator, Shadow, Route);
    forEachEvent(Compiled, Driver);
    Shadow.finish();
    Events = Driver.events();
  }
  return reportFrom(Log, Events);
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
  auto AddViolation = [&Report](uint64_t Op, std::string Detail) {
    ++Report.ViolationCount;
    if (Report.Violations.size() < 32)
      Report.Violations.push_back(
          {Op, "schedule-differential", std::move(Detail)});
  };

  if (Schedule.size() != Oracle.Stream.size()) {
    AddViolation(0, "oracle emits " + std::to_string(Oracle.Stream.size()) +
                        " events but the compiled schedule has " +
                        std::to_string(Schedule.size()));
    return Report;
  }
  for (size_t Event = 0; Event < Schedule.size(); ++Event) {
    auto [Free, Id, Clock] = Oracle.Stream[Event];
    if (Schedule.isFree(Event) != Free || Schedule.objectId(Event) != Id ||
        Schedule.clock(Event) != Clock) {
      AddViolation(Event, "event streams diverge at position " +
                              std::to_string(Event));
      break;
    }
  }
  if (Schedule.endClock() != Oracle.EndClock)
    AddViolation(Schedule.size(),
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
    Report.ViolationCount = 1;
    Report.Violations.push_back({0, "trace-structure", Error});
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
