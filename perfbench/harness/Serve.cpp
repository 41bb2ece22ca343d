//===- perfbench/harness/Serve.cpp - The "serve" workload -----------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
// A TenantSet of 64 tenants on the heterogeneous program mix, replayed
// through runServe for the first-fit, BSD, CAS and arena families in
// channel mode at 1, 2 and all workers.  The only workload that drives the
// sharded heaps, the atomic bitmap free lists and the tenant multiplexer
// under cross-thread frees.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "sim/TenantMux.h"
#include "support/ThreadPool.h"

#include <cstdio>

using namespace perfbench;
using namespace lifepred;

namespace {

/// The value-class outcome of one run: identical at any worker count.
struct ValueClass {
  ServeResult Result;
  std::vector<TenantServeStats> Tenants;

  bool operator==(const ValueClass &Other) const {
    const ServeResult &A = Result, &B = Other.Result;
    if (A.Events != B.Events || A.AllocEvents != B.AllocEvents ||
        A.FreeEvents != B.FreeEvents || A.RemoteFrees != B.RemoteFrees ||
        A.Rounds != B.Rounds || A.ShardEventsMax != B.ShardEventsMax ||
        A.ShardEventsMin != B.ShardEventsMin || A.HeapBytes != B.HeapBytes ||
        A.ReservedBytes != B.ReservedBytes ||
        Tenants.size() != Other.Tenants.size())
      return false;
    for (size_t I = 0; I < Tenants.size(); ++I) {
      const TenantServeStats &X = Tenants[I], &Y = Other.Tenants[I];
      if (X.Allocs != Y.Allocs || X.Frees != Y.Frees ||
          X.AllocBytes != Y.AllocBytes || X.RemoteFrees != Y.RemoteFrees ||
          X.PredictedShort != Y.PredictedShort || X.LiveBytes != Y.LiveBytes ||
          X.PeakLiveBytes != Y.PeakLiveBytes)
        return false;
    }
    return true;
  }
};

class ServeWorkload : public Workload {
public:
  explicit ServeWorkload(const Options &O) : O(O) {
    Cfg.Tenants = 64;
    Cfg.Workers = O.Workers;
    Cfg.Shards = 8;
    Cfg.SliceEvents = 256;
    Cfg.TenantScale = O.Tiny ? 0.0005 : 0.002;
    Cfg.Seed = O.Seed;
    Cfg.NeedPrediction = true;
  }

  void setup(Sample &Out) override {
    Tenants.reset();
    ThreadPool Pool(O.Workers);
    Out["workloads.generate_s"] = timed([&] {
      Span S("sim", "TenantSet");
      Tenants = std::make_unique<TenantSet>(Cfg, Pool);
    });
  }

  void pass(Sample &Out, Checks &C) override {
    struct FamilyRow {
      ServeFamily Family;
      const char *Name;
    };
    const FamilyRow Families[] = {{ServeFamily::FirstFit, "ff"},
                                  {ServeFamily::Bsd, "bsd"},
                                  {ServeFamily::Cas, "cas"},
                                  {ServeFamily::Arena, "arena"}};
    const unsigned WorkerRows[] = {1, 2, O.Workers};
    const char *const RowNames[] = {"w1", "w2", "wN"};

    double Seconds[3] = {}, Events[3] = {};
    double CasRetries = 0, Pushes = 0, RemoteFrees = 0, Frees = 0;
    double ShardMax = 0, ShardMin = 0;
    for (const FamilyRow &F : Families) {
      ValueClass Serial;
      for (unsigned Row = 0; Row < 3; ++Row) {
        Tenants->resetReplayState();
        ServeRunOptions Run;
        Run.Family = F.Family;
        Run.Remote = RemoteFreeMode::Channel;
        Run.Workers = WorkerRows[Row];
        ValueClass V;
        double S = timed([&] {
          Span Sp("sim", "runServe");
          V.Result = runServe(*Tenants, Run);
        });
        for (unsigned T = 0; T < Tenants->tenantCount(); ++T)
          V.Tenants.push_back(Tenants->tenantStats(T));
        Seconds[Row] += S;
        Events[Row] += static_cast<double>(V.Result.Events);
        Out[std::string("sim.serve.") + F.Name + ".meps." + RowNames[Row]] =
            meps(static_cast<double>(V.Result.Events), S);
        C.expect(V.Result.Events == Tenants->totalEvents(),
                 std::string("serve ") + F.Name + " " + RowNames[Row] +
                     " replays every event");
        if (Row == 0) {
          Serial = std::move(V);
          RemoteFrees += static_cast<double>(Serial.Result.RemoteFrees);
          Frees += static_cast<double>(Serial.Result.FreeEvents);
          ShardMax += static_cast<double>(Serial.Result.ShardEventsMax);
          ShardMin += static_cast<double>(Serial.Result.ShardEventsMin);
          continue;
        }
        C.expect(V == Serial,
                 std::string("serve ") + F.Name + " " + RowNames[Row] +
                     " value-class results equal the 1-worker run");
        if (Row == 2) {
          const ContentionCounters &Contention = V.Result.Contention;
          CasRetries += static_cast<double>(Contention.BitmapCasRetries +
                                            Contention.ChannelCasRetries);
          Pushes += static_cast<double>(Contention.RemoteFreePushes);
        }
      }
    }
    Out["serve_meps"] = meps(Events[2], Seconds[2]);
    Out["replay_meps"] = meps(Events[2], Seconds[2]);
    Out["serve_speedup"] = Seconds[2] > 0 ? Seconds[0] / Seconds[2] : 0.0;
    Out["alloc.cas_retries_per_kop"] =
        Pushes == 0 ? 0.0 : 1000.0 * CasRetries / Pushes;
    Out["alloc.remote_free_pct"] = percentOf(RemoteFrees, Frees);
    Out["sim.serve.shard_imbalance"] =
        ShardMin == 0 ? 0.0 : ShardMax / ShardMin;
  }

  void describe(const Sample &M) const override {
    std::printf("serve: %u tenants, %u shards, %llu events per run; "
                "%u workers %.2f M events/s, %.3fx the 1-worker rate\n",
                Tenants->tenantCount(), Cfg.Shards,
                static_cast<unsigned long long>(Tenants->totalEvents()),
                O.Workers, valueOf(M, "serve_meps"),
                valueOf(M, "serve_speedup"));
    for (const char *Family : {"ff", "bsd", "cas", "arena"})
      std::printf("serve: %-5s M events/s w1 %.2f, w2 %.2f, wN %.2f\n", Family,
                  valueOf(M, std::string("sim.serve.") + Family + ".meps.w1"),
                  valueOf(M, std::string("sim.serve.") + Family + ".meps.w2"),
                  valueOf(M, std::string("sim.serve.") + Family + ".meps.wN"));
  }

private:
  const Options O;
  ServeConfig Cfg;
  std::unique_ptr<TenantSet> Tenants;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeServeWorkload(const Options &O) {
  return std::make_unique<ServeWorkload>(O);
}
