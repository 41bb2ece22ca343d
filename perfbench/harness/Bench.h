//===- perfbench/harness/Bench.h - Benchmark harness ------------*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The harness shared by the benchmark's four workloads: options, the span
/// tracer, correctness checks, and the per-pass sample a workload fills.
///
/// Every layer is measured from outside: the harness wraps each call into a
/// src/ module's public functions in a Span naming that module (the
/// "layer").  Spans cost nothing when the run is untraced (ActiveTracer is
/// null); a traced run keeps them in memory, derives each layer's self
/// time from them, and writes them out when the run ends.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_BENCH_H
#define PERFBENCH_HARNESS_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall-clock seconds.
inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs \p F and returns the seconds it took.
template <typename Fn> double timed(Fn &&F) {
  double Start = nowSeconds();
  F();
  return nowSeconds() - Start;
}

/// Command-line options of one run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Self-test size: every workload shrunk to run in about a second.
  bool Tiny = false;
  /// Directory for the run's scratch files (schedule file, span dump).
  std::string WorkDir = ".bench_build";
  /// The CPUs this process may run on; the worker count of the "wN" rows.
  unsigned Workers = 1;
};

/// One recorded span: a call into layer \p Layer's public function
/// \p Name, with the span that was open when it began.
struct SpanRecord {
  const char *Layer = "";
  const char *Name = "";
  double Start = 0.0;
  double End = 0.0;
  int32_t Parent = -1;
};

/// In-memory span log of a traced run.
class Tracer {
public:
  int32_t open(const char *Layer, const char *Name) {
    Spans.push_back({Layer, Name, nowSeconds(), 0.0, Current});
    Current = static_cast<int32_t>(Spans.size() - 1);
    return Current;
  }
  void close(int32_t Index) {
    Spans[Index].End = nowSeconds();
    Current = Spans[Index].Parent;
  }

  size_t size() const { return Spans.size(); }

  /// Self time per layer over spans [Begin, End): each span's duration
  /// minus the durations of its direct children.
  std::map<std::string, double> selfSeconds(size_t Begin, size_t End) const;

  /// Writes every span as JSON; false if the file cannot be written.
  bool write(const std::string &Path) const;

private:
  std::vector<SpanRecord> Spans;
  int32_t Current = -1;
};

/// The tracer of a traced run's traced pass; null otherwise.
extern Tracer *ActiveTracer;

/// RAII span around one call into a layer.
class Span {
public:
  Span(const char *Layer, const char *Name)
      : Index(ActiveTracer ? ActiveTracer->open(Layer, Name) : -1) {}
  ~Span() {
    if (Index >= 0)
      ActiveTracer->close(Index);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  int32_t Index;
};

/// Correctness checks; every failed check is a failed operation.
class Checks {
public:
  void expect(bool Ok, const std::string &What);
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Named values measured by one pass (or one set of layer rows).
using Sample = std::map<std::string, double>;

/// \p Key's value in \p S; 0 when \p S lacks it.
inline double valueOf(const Sample &S, const std::string &Key) {
  auto It = S.find(Key);
  return It == S.end() ? 0.0 : It->second;
}

/// One benchmark workload.
class Workload {
public:
  virtual ~Workload() = default;

  /// Builds the inputs from the seed.  Called several times (set-up time
  /// is a median); each call replaces the previous inputs.  Fills
  /// \p Out with set-up layer values (generation, training, writes).
  virtual void setup(Sample &Out) = 0;

  /// Checks on the freshly built inputs, run once after set-up.
  virtual void verifySetup(Checks &C) { (void)C; }

  /// One pass: the work the end-to-end metrics describe.  Must set
  /// "replay_meps" in \p Out.
  virtual void pass(Sample &Out, Checks &C) = 0;

  /// Traced-run-only rows: per-operation timings, worker-count and
  /// overhead rows that a pass does not produce by itself.
  virtual void layerRows(Sample &Out, Checks &C) {
    (void)Out;
    (void)C;
  }

  /// Human-readable notes printed before the result line.
  virtual void describe(const Sample &Medians) const { (void)Medians; }
};

std::unique_ptr<Workload> makePipelineWorkload(const Options &O);
std::unique_ptr<Workload> makeRealHeapWorkload(const Options &O);
std::unique_ptr<Workload> makeStreamWorkload(const Options &O);
std::unique_ptr<Workload> makeServeWorkload(const Options &O);

/// Median of \p Values (0 for none).
double median(std::vector<double> Values);

/// Ratio in percent, 0 when \p Whole is 0.
inline double percentOf(double Part, double Whole) {
  return Whole == 0.0 ? 0.0 : 100.0 * Part / Whole;
}

/// Events per second in millions, 0 for a zero duration.
inline double meps(double Events, double Seconds) {
  return Seconds <= 0.0 ? 0.0 : Events / Seconds / 1e6;
}

/// The five paper programs, in the paper's order.
const std::vector<std::string> &programNames();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_BENCH_H
