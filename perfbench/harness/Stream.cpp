//===- perfbench/harness/Stream.cpp - The "stream" workload ---------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
// The grand-challenge fuzz profile synthesized segment by segment into an
// on-disk .sched file (set-up), then replayed from the file: batched on one
// thread and chunk-sharded across 1, 2 and all workers.  This is the replay
// layer used from disk, in chunks, in parallel, in O(chunk) memory.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "sim/StreamReplay.h"
#include "support/ThreadPool.h"
#include "trace/ScheduleFile.h"
#include "verify/TraceFuzzer.h"

#include <cstdio>
#include <optional>

using namespace perfbench;
using namespace lifepred;

namespace {

class StreamWorkload : public Workload {
public:
  explicit StreamWorkload(const Options &O)
      : O(O),
        Path(O.WorkDir + "/stream-" + std::to_string(O.Seed) + ".sched") {}

  ~StreamWorkload() override {
    File.reset();
    std::remove(Path.c_str());
  }

  void setup(Sample &Out) override {
    File.reset();
    ScheduleFileWriter::Config Config;
    Config.EventsPerChunk = O.Tiny ? 1u << 12 : 1u << 16;
    const uint64_t TargetEvents = O.Tiny ? 1u << 16 : 1u << 22;
    // The grand-challenge bench's default segment size.
    const size_t SegmentObjects = O.Tiny ? 1u << 13 : 1u << 20;
    double GenerateS = 0, WriteS = 0;
    uint64_t Events = 0;
    {
      ScheduleFileWriter Writer(Path, Config);
      for (uint64_t Segment = 0;
           Writer.valid() && Writer.eventCount() < TargetEvents; ++Segment) {
        AllocationTrace Trace;
        GenerateS += timed([&] {
          Span S("workloads", "generateFuzzTrace");
          Trace = generateFuzzTrace(FuzzProfile::GrandChallenge,
                                    O.Seed + Segment, SegmentObjects);
        });
        WriteS += timed([&] {
          Span S("trace", "ScheduleFileWriter.append");
          Writer.append(Trace);
        });
      }
      bool Finished = false;
      WriteS += timed([&] {
        Span S("trace", "ScheduleFileWriter.finish");
        Finished = Writer.finish();
      });
      if (!Finished)
        throw std::runtime_error("cannot write " + Path + ": " +
                                 Writer.error());
      Events = Writer.eventCount();
    }
    std::string Error;
    File = ScheduleFile::open(Path, Error);
    if (!File)
      throw std::runtime_error("cannot open " + Path + ": " + Error);
    Out["workloads.generate_s"] = GenerateS;
    Out["trace.sched_write_meps"] = meps(static_cast<double>(Events), WriteS);
  }

  void verifySetup(Checks &C) override {
    Reference = streamSimulateBsd(*File);
    C.expect(Reference.Events == File->eventCount(),
             "sequential streamed BSD replays every event");
  }

  void pass(Sample &Out, Checks &C) override {
    const double Events = static_cast<double>(File->eventCount());
    StreamSimResult Batched;
    double BatchS = timed([&] {
      Span S("sim", "streamSimulateBsdBatched");
      Batched = streamSimulateBsdBatched(*File);
    });
    C.expect(Batched.Bsd == Reference.Bsd && Batched.Events == Reference.Events,
             "batched counters equal the sequential streamed BSD counters");

    const char *const Rows[] = {"w1", "w2", "wN"};
    const unsigned Workers[] = {1, 2, O.Workers};
    double ShardS[3] = {};
    ShardedBsdResult Sharded;
    for (unsigned Row = 0; Row < 3; ++Row) {
      ThreadPool Pool(Workers[Row]);
      ShardS[Row] = timed([&] {
        Span S("sim", "streamReplayBsdSharded");
        Sharded = streamReplayBsdSharded(*File, Pool);
      });
      C.expect(Sharded.Events == File->eventCount(),
               std::string("sharded replay (") + Rows[Row] +
                   ") covers the file's events");
      Out[std::string("sim.stream_shard_meps.") + Rows[Row]] =
          meps(Events, ShardS[Row]);
    }
    Out["sim.stream_batch_meps"] = meps(Events, BatchS);
    Out["sim.shard_warmup_pct"] =
        percentOf(static_cast<double>(Sharded.WarmupAllocs), Events);
    Out["stream_seq_meps"] = meps(Events, BatchS);
    Out["stream_meps"] = meps(Events, ShardS[2]);
    Out["replay_meps"] = meps(Events, ShardS[2]);
  }

  void describe(const Sample &M) const override {
    std::printf("stream: %llu events in %llu chunks (%.1f MiB on disk); "
                "batched %.2f M events/s; sharded w1 %.2f, w2 %.2f, w%u %.2f "
                "M events/s\n",
                static_cast<unsigned long long>(File->eventCount()),
                static_cast<unsigned long long>(File->chunkCount()),
                static_cast<double>(File->fileBytes()) / (1024.0 * 1024.0),
                valueOf(M, "sim.stream_batch_meps"),
                valueOf(M, "sim.stream_shard_meps.w1"),
                valueOf(M, "sim.stream_shard_meps.w2"), O.Workers,
                valueOf(M, "sim.stream_shard_meps.wN"));
  }

private:
  const Options O;
  const std::string Path;
  std::optional<ScheduleFile> File;
  StreamSimResult Reference;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeStreamWorkload(const Options &O) {
  return std::make_unique<StreamWorkload>(O);
}
