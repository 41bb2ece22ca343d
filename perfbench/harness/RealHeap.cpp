//===- perfbench/harness/RealHeap.cpp - The "realheap" workload -----------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
// The five paper test traces replayed as live allocate/deallocate calls on
// the real PredictingHeap, in compiled-schedule order, with the database
// trained under lastN(4).  Before each allocation the harness moves the
// calling thread's ShadowStack to the record's chain (pop to the common
// prefix, push the rest), as instrumented call/return would.  The same
// replay loop runs against ::operator new/delete as the reference.  Objects the
// trace never frees are freed after the timed replay.
//
// Time goes to callchain (stack moves and last-N capture), core (the
// database probe) and runtime (bump, reset scan, general fallback); the
// simulator and allocator models are bypassed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Inputs.h"

#include "callchain/ShadowStack.h"
#include "core/Profiler.h"
#include "core/Trainer.h"
#include "runtime/PredictingHeap.h"
#include "sim/CompiledPrediction.h"
#include "sim/TraceSimulator.h"
#include "support/MathExtras.h"

#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <new>

using namespace perfbench;
using namespace lifepred;

namespace {

const SiteKeyPolicy Policy = SiteKeyPolicy::lastN(4);

int64_t nowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Moves \p Stack (mirrored in \p Frames) to \p Target: pops back to the
/// common prefix, then pushes the rest.
void moveStack(ShadowStack &Stack, std::vector<FunctionId> &Frames,
               const std::vector<FunctionId> &Target) {
  size_t Common = 0;
  size_t Limit = std::min(Frames.size(), Target.size());
  while (Common < Limit && Frames[Common] == Target[Common])
    ++Common;
  while (Frames.size() > Common) {
    Stack.pop();
    Frames.pop_back();
  }
  for (size_t I = Common; I < Target.size(); ++I) {
    Stack.push(Target[I]);
    Frames.push_back(Target[I]);
  }
}

/// What one live replay did.
struct LiveReplay {
  uint64_t Events = 0;
  uintptr_t AlignmentBits = 0; ///< OR of every pointer's low four bits.
};

/// Replays \p P's compiled test schedule as live calls: the replay loop
/// shared by the heap and the operator-new runs.  The stack moves only when the
/// allocating chain changes.  \p Ptrs is indexed by record.
template <typename AllocFn, typename FreeFn>
LiveReplay replayLive(const ProgramInput &P, const EventSchedule &Schedule,
                      std::vector<void *> &Ptrs, AllocFn &&Alloc,
                      FreeFn &&Free) {
  LiveReplay R;
  ShadowStack &Stack = ShadowStack::current();
  Stack.clear();
  std::vector<FunctionId> Frames;
  uint32_t LastChain = ~0u;
  const std::vector<AllocRecord> &Records = P.Test.records();
  const uint32_t *Ids = Schedule.taggedIds();
  const size_t Count = Schedule.size();
  for (size_t Event = 0; Event < Count; ++Event) {
    uint32_t Tagged = Ids[Event];
    if (Tagged & EventSchedule::FreeBit) {
      Free(Ptrs[Tagged & ~EventSchedule::FreeBit]);
      continue;
    }
    const AllocRecord &Record = Records[Tagged];
    if (Record.ChainIndex != LastChain) {
      moveStack(Stack, Frames, P.Test.chain(Record.ChainIndex).functions());
      LastChain = Record.ChainIndex;
    }
    void *Ptr = Alloc(Record.Size);
    R.AlignmentBits |= reinterpret_cast<uintptr_t>(Ptr) & 15;
    Ptrs[Tagged] = Ptr;
  }
  Stack.clear();
  R.Events = Count;
  return R;
}

/// Frees the objects the trace never frees.
template <typename FreeFn>
void freeLeftovers(const ProgramInput &P, std::vector<void *> &Ptrs,
                   FreeFn &&Free) {
  const std::vector<AllocRecord> &Records = P.Test.records();
  for (size_t Id = 0; Id < Records.size(); ++Id)
    if (Records[Id].Lifetime == NeverFreed)
      Free(Ptrs[Id]);
}

void *newBytes(size_t Size) { return ::operator new(Size < 1 ? 1 : Size); }
void deleteBytes(void *Ptr) { ::operator delete(Ptr); }

/// What perf_event_open says about instruction counting here.
std::string perfEventStatus() {
  perf_event_attr Attr;
  std::memset(&Attr, 0, sizeof(Attr));
  Attr.size = sizeof(Attr);
  Attr.type = PERF_TYPE_HARDWARE;
  Attr.config = PERF_COUNT_HW_INSTRUCTIONS;
  Attr.disabled = 1;
  Attr.exclude_kernel = 1;
  long Fd = syscall(SYS_perf_event_open, &Attr, 0, -1, -1, 0);
  if (Fd < 0)
    return std::string("perf_event_open failed: ") + std::strerror(errno);
  close(static_cast<int>(Fd));
  return "perf_event_open available, not used";
}

/// One program's trained inputs.
struct Program {
  SiteDatabase DB;
  /// DB plus the emptiness-probe site, for the heaps under test.
  SiteDatabase HeapDB;
  FunctionId ProbeFunction = 0;
  CompiledTrace Compiled;
  /// Records the simulator predicts short whose aligned size fits an arena:
  /// exactly the allocations the heap must try to place in an arena.
  uint64_t ExpectedArenaTries = 0;
};

class RealHeapWorkload : public Workload {
public:
  explicit RealHeapWorkload(const Options &O) : O(O) {}

  void setup(Sample &Out) override {
    double Seconds = 0;
    Inputs = generatePrograms(O.Tiny ? 0.002 : 0.005, O.Seed, Seconds);
    Out["workloads.generate_s"] = Seconds;
    Programs.assign(Inputs.size(), Program());
    double ProfileS = 0, TrainS = 0, CompileS = 0;
    for (size_t I = 0; I < Inputs.size(); ++I) {
      Program &P = Programs[I];
      Profile Prof;
      ProfileS += timed([&] {
        Span S("core", "profileTrace");
        Prof = profileTrace(Inputs[I].Train, Policy);
      });
      TrainS += timed([&] {
        Span S("core", "trainDatabase");
        P.DB = trainDatabase(Prof, Policy);
      });
      CompileS += timed([&] {
        Span S("trace", "CompiledTrace");
        P.Compiled = CompiledTrace(Inputs[I].Test, Policy);
      });
      P.ProbeFunction =
          static_cast<FunctionId>(Inputs[I].Registry.size() + 1000);
      P.HeapDB = P.DB;
      P.HeapDB.insert(siteKey(Policy, CallChain{P.ProbeFunction},
                              static_cast<uint32_t>(arenaBytes())));
    }
    Out["core.profile_s"] = ProfileS;
    Out["core.train_s"] = TrainS;
    Out["trace.compile_s"] = CompileS;
  }

  void verifySetup(Checks &C) override {
    for (size_t I = 0; I < Inputs.size(); ++I) {
      Program &P = Programs[I];
      PredictedShortBits Bits(P.Compiled, P.DB);
      const std::vector<AllocRecord> &Records = Inputs[I].Test.records();
      P.ExpectedArenaTries = 0;
      for (size_t Id = 0; Id < Records.size(); ++Id) {
        uint32_t Size = Records[Id].Size;
        if (Bits.test(Id) && alignTo(Size == 0 ? 1 : Size, 16) <= arenaBytes())
          ++P.ExpectedArenaTries;
      }
      C.expect(P.Compiled.schedule().size() ==
                   Records.size() + Inputs[I].TestFreed,
               Inputs[I].Model.Name + ": schedule events = records + freed");
    }
  }

  void pass(Sample &Out, Checks &C) override {
    double HeapEvents = 0, HeapS = 0, NewS = 0;
    PredictingHeap::Stats Total;
    for (size_t I = 0; I < Inputs.size(); ++I) {
      const ProgramInput &In = Inputs[I];
      const Program &P = Programs[I];
      const EventSchedule &Schedule = P.Compiled.schedule();
      std::vector<void *> Ptrs(In.Test.size());

      PredictingHeap Heap(P.HeapDB);
      LiveReplay Live;
      double Seconds = timed([&] {
        Span S("runtime", "PredictingHeap.replay");
        Live = replayLive(
            In, Schedule, Ptrs,
            [&](size_t Size) { return Heap.allocate(Size); },
            [&](void *Ptr) { Heap.deallocate(Ptr); });
      });
      freeLeftovers(In, Ptrs, [&](void *Ptr) { Heap.deallocate(Ptr); });
      PredictingHeap::Stats Stats = Heap.stats();
      checkHeap(C, In, P, Heap, Live);

      LiveReplay Reference;
      double NewSeconds = timed([&] {
        Span S("bench", "operator_new.replay");
        Reference = replayLive(In, Schedule, Ptrs, newBytes, deleteBytes);
      });
      freeLeftovers(In, Ptrs, deleteBytes);
      C.expect(Reference.AlignmentBits == 0,
               In.Model.Name + ": operator new pointers 16-byte aligned");

      HeapEvents += static_cast<double>(Live.Events);
      HeapS += Seconds;
      NewS += NewSeconds;
      double Pairs = static_cast<double>(In.Test.size());
      Out["runtime." + In.Model.Name + ".ns_per_pair"] = 1e9 * Seconds / Pairs;
      Out["runtime." + In.Model.Name + ".new_ns_per_pair"] =
          1e9 * NewSeconds / Pairs;
      Total.ArenaAllocs += Stats.ArenaAllocs;
      Total.GeneralAllocs += Stats.GeneralAllocs;
      Total.Fallbacks += Stats.Fallbacks;
      Total.Resets += Stats.Resets;
    }
    double HeapMops = meps(HeapEvents, HeapS);
    Out["replay_meps"] = HeapMops;
    Out["heap_mops"] = HeapMops;
    Out["heap_vs_new"] = HeapMops / meps(HeapEvents, NewS);
    Out["heap_arena_pct"] =
        percentOf(static_cast<double>(Total.ArenaAllocs),
                static_cast<double>(Total.ArenaAllocs + Total.GeneralAllocs));
    Out["runtime.arena_allocs"] = static_cast<double>(Total.ArenaAllocs);
    Out["runtime.general_allocs"] = static_cast<double>(Total.GeneralAllocs);
    Out["runtime.fallbacks"] = static_cast<double>(Total.Fallbacks);
    Out["runtime.resets"] = static_cast<double>(Total.Resets);
  }

  void layerRows(Sample &Out, Checks &C) override {
    const unsigned Repeats = O.Tiny ? 1 : 3;
    std::vector<double> Locked, AllocNs, FreeNs, ShadowNs, CaptureNs, ProbeNs;
    for (unsigned R = 0; R < Repeats; ++R) {
      Locked.push_back(lockedMops(C));
      double A = 0, F = 0;
      perCallNanos(A, F);
      AllocNs.push_back(A);
      FreeNs.push_back(F);
      ShadowNs.push_back(shadowNanos());
      CaptureNs.push_back(captureNanos());
      ProbeNs.push_back(probeNanos());
    }
    Out["runtime.locked_mops"] = median(Locked);
    Out["runtime.alloc_ns"] = median(AllocNs);
    Out["runtime.free_ns"] = median(FreeNs);
    Out["callchain.shadow_ns"] = median(ShadowNs);
    Out["callchain.capture_ns"] = median(CaptureNs);
    Out["core.probe_ns"] = median(ProbeNs);

    // Table 9's cost model on the same traces and database, for the
    // measured ns-per-pair rows to stand beside.
    for (size_t I = 0; I < Inputs.size(); ++I) {
      const Program &P = Programs[I];
      const std::string &Name = Inputs[I].Model.Name;
      ArenaSimResult Arena;
      BaselineSimResult FirstFit;
      {
        Span S("sim", "simulateArena.costmodel");
        Arena = simulateArena(P.Compiled, P.DB, Inputs[I].Model.CallsPerAlloc);
      }
      {
        Span S("sim", "simulateFirstFit.costmodel");
        FirstFit = simulateFirstFit(P.Compiled);
      }
      Out["alloc." + Name + ".model_instr_per_pair.arena_len4"] =
          Arena.InstrLen4.total();
      Out["alloc." + Name + ".model_instr_per_pair.firstfit"] =
          FirstFit.Instr.total();
    }
  }

  void describe(const Sample &M) const override {
    auto At = [&M](const std::string &Key) { return valueOf(M, Key); };
    std::printf("realheap: PredictingHeap %.3f M ops/s, %.3fx operator new; "
                "%.3f%% of allocations in arenas\n",
                At("heap_mops"), At("heap_vs_new"), At("heap_arena_pct"));
    std::printf("realheap: Table 9 counterpart (measured ns per alloc+free "
                "pair, shadow-stack upkeep included; cost-model instructions "
                "per pair)\n");
    std::printf("  %-10s %14s %14s %16s %16s\n", "program", "heap ns",
                "new ns", "model arena len4", "model first-fit");
    for (const ProgramInput &In : Inputs) {
      const std::string &Name = In.Model.Name;
      std::printf("  %-10s %14.2f %14.2f %16.1f %16.1f\n", Name.c_str(),
                  At("runtime." + Name + ".ns_per_pair"),
                  At("runtime." + Name + ".new_ns_per_pair"),
                  At("alloc." + Name + ".model_instr_per_pair.arena_len4"),
                  At("alloc." + Name + ".model_instr_per_pair.firstfit"));
    }
    std::printf("realheap: no instruction counts were taken (%s)\n",
                perfEventStatus().c_str());
  }

private:
  static size_t arenaBytes() {
    PredictingHeap::Config Config;
    return Config.AreaBytes / Config.ArenaCount;
  }

  /// The heap's own checks after a replay: routing agrees with the
  /// simulator's predicted-short bits, the invariants hold, every pointer
  /// is aligned, and every arena is empty (each of ArenaCount
  /// arena-sized probe allocations gets an arena of its own).
  static void checkHeap(Checks &C, const ProgramInput &In, const Program &P,
                        PredictingHeap &Heap, const LiveReplay &Live) {
    const std::string &Name = In.Model.Name;
    PredictingHeap::Stats Stats = Heap.stats();
    C.expect(Stats.ArenaAllocs + Stats.Fallbacks == P.ExpectedArenaTries,
             Name + ": arena allocs + fallbacks = predicted-short records "
                    "that fit an arena");
    C.expect(Stats.ArenaAllocs + Stats.GeneralAllocs == In.Test.size(),
             Name + ": every record allocated once");
    C.expect(Live.AlignmentBits == 0,
             Name + ": heap pointers 16-byte aligned");
    std::string Error;
    C.expect(Heap.auditInvariants(Error), Name + ": heap invariants " + Error);

    ShadowStack &Stack = ShadowStack::current();
    Stack.clear();
    Stack.push(P.ProbeFunction);
    PredictingHeap::Config Config;
    std::vector<void *> Probes;
    bool AllArena = true;
    for (unsigned I = 0; I < Config.ArenaCount; ++I) {
      Probes.push_back(Heap.allocate(arenaBytes()));
      AllArena &= Heap.isArenaPointer(Probes.back());
    }
    C.expect(AllArena && Heap.stats().Fallbacks == Stats.Fallbacks,
             Name + ": every arena empty after the replay");
    for (void *Ptr : Probes)
      Heap.deallocate(Ptr);
    Stack.clear();
  }

  /// The heap replay with ThreadSafe on, in M ops/s over all programs.
  double lockedMops(Checks &C) {
    double Events = 0, Seconds = 0;
    PredictingHeap::Config Config;
    Config.ThreadSafe = true;
    for (size_t I = 0; I < Inputs.size(); ++I) {
      std::vector<void *> Ptrs(Inputs[I].Test.size());
      PredictingHeap Heap(Programs[I].HeapDB, Config);
      LiveReplay Live;
      Seconds += timed([&] {
        Span S("runtime", "PredictingHeap.replay.locked");
        Live = replayLive(
            Inputs[I], Programs[I].Compiled.schedule(), Ptrs,
            [&](size_t Size) { return Heap.allocate(Size); },
            [&](void *Ptr) { Heap.deallocate(Ptr); });
      });
      freeLeftovers(Inputs[I], Ptrs, [&](void *Ptr) { Heap.deallocate(Ptr); });
      C.expect(Heap.stats().ArenaAllocs + Heap.stats().Fallbacks ==
                   Programs[I].ExpectedArenaTries,
               Inputs[I].Model.Name + ": locked heap routing agrees");
      Events += static_cast<double>(Live.Events);
    }
    return meps(Events, Seconds);
  }

  /// Mean ns of one allocate and one deallocate, each call timed on its
  /// own with the clock's own cost subtracted.
  void perCallNanos(double &AllocNs, double &FreeNs) {
    std::vector<int64_t> Empty(1001);
    for (int64_t &D : Empty) {
      int64_t A = nowNanos();
      D = nowNanos() - A;
    }
    std::nth_element(Empty.begin(), Empty.begin() + 500, Empty.end());
    double ClockNs = static_cast<double>(Empty[500]);

    int64_t AllocSum = 0, FreeSum = 0;
    uint64_t Allocs = 0, Frees = 0;
    for (size_t I = 0; I < Inputs.size(); ++I) {
      const ProgramInput &In = Inputs[I];
      std::vector<void *> Ptrs(In.Test.size());
      PredictingHeap Heap(Programs[I].HeapDB);
      Span S("runtime", "PredictingHeap.replay.percall");
      replayLive(
          In, Programs[I].Compiled.schedule(), Ptrs,
          [&](size_t Size) {
            int64_t Start = nowNanos();
            void *Ptr = Heap.allocate(Size);
            AllocSum += nowNanos() - Start;
            ++Allocs;
            return Ptr;
          },
          [&](void *Ptr) {
            int64_t Start = nowNanos();
            Heap.deallocate(Ptr);
            FreeSum += nowNanos() - Start;
            ++Frees;
          });
      freeLeftovers(In, Ptrs, [&](void *Ptr) { Heap.deallocate(Ptr); });
    }
    AllocNs = static_cast<double>(AllocSum) / static_cast<double>(Allocs) -
              ClockNs;
    FreeNs = static_cast<double>(FreeSum) / static_cast<double>(Frees) -
             ClockNs;
  }

  /// ns per shadow-stack move (pop to the common prefix, push the rest)
  /// over every program's allocation sequence.
  double shadowNanos() {
    double Moves = 0, Seconds = 0;
    for (const ProgramInput &In : Inputs) {
      ShadowStack &Stack = ShadowStack::current();
      Seconds += timed([&] {
        Span S("callchain", "ShadowStack.move");
        Stack.clear();
        std::vector<FunctionId> Frames;
        uint32_t LastChain = ~0u;
        for (const AllocRecord &Record : In.Test.records()) {
          if (Record.ChainIndex == LastChain)
            continue;
          moveStack(Stack, Frames,
                    In.Test.chain(Record.ChainIndex).functions());
          LastChain = Record.ChainIndex;
          ++Moves;
        }
        Stack.clear();
      });
    }
    return 1e9 * Seconds / Moves;
  }

  /// ns per captureLastN(4), over each distinct chain weighted by its
  /// record count (the stack is set up untimed).
  double captureNanos() {
    constexpr unsigned PerChain = 64;
    double WeightedNs = 0, Records = 0;
    size_t Sink = 0;
    Span S("callchain", "ShadowStack.captureLastN");
    for (const ProgramInput &In : Inputs) {
      std::vector<double> Uses(In.Test.chainCount(), 0.0);
      for (const AllocRecord &Record : In.Test.records())
        Uses[Record.ChainIndex] += 1.0;
      ShadowStack &Stack = ShadowStack::current();
      for (uint32_t Chain = 0; Chain < Uses.size(); ++Chain) {
        if (Uses[Chain] == 0.0)
          continue;
        Stack.clear();
        for (FunctionId F : In.Test.chain(Chain).functions())
          Stack.push(F);
        int64_t Start = nowNanos();
        for (unsigned K = 0; K < PerChain; ++K)
          Sink += Stack.captureLastN(Policy.Length).depth();
        double Ns = static_cast<double>(nowNanos() - Start) / PerChain;
        WeightedNs += Ns * Uses[Chain];
        Records += Uses[Chain];
      }
      Stack.clear();
    }
    return Sink == 0 ? 0.0 : WeightedNs / Records;
  }

  /// ns per SiteDatabase::predictShortLived over every record, with the
  /// last-N chains captured beforehand.
  double probeNanos() {
    double Probes = 0, Seconds = 0;
    size_t Hits = 0;
    for (size_t I = 0; I < Inputs.size(); ++I) {
      const AllocationTrace &Test = Inputs[I].Test;
      std::vector<CallChain> Captured;
      Captured.reserve(Test.chainCount());
      for (uint32_t Chain = 0; Chain < Test.chainCount(); ++Chain)
        Captured.push_back(Test.chain(Chain).lastN(Policy.Length));
      const SiteDatabase &DB = Programs[I].DB;
      Seconds += timed([&] {
        Span S("core", "SiteDatabase.predictShortLived");
        for (const AllocRecord &Record : Test.records())
          Hits += DB.predictShortLived(Captured[Record.ChainIndex],
                                       Record.Size);
      });
      Probes += static_cast<double>(Test.size());
    }
    return Hits > Probes ? 0.0 : 1e9 * Seconds / Probes;
  }

  const Options O;
  std::vector<ProgramInput> Inputs;
  std::vector<Program> Programs;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeRealHeapWorkload(const Options &O) {
  return std::make_unique<RealHeapWorkload>(O);
}
