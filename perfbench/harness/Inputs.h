//===- perfbench/harness/Inputs.h - Paper-program inputs --------*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The train and test traces of the five paper programs, generated from the
/// run's seed; shared by the pipeline and realheap workloads.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_INPUTS_H
#define PERFBENCH_HARNESS_INPUTS_H

#include "callchain/FunctionRegistry.h"
#include "trace/AllocationTrace.h"
#include "workloads/ProgramModel.h"

#include <cstdint>
#include <vector>

namespace perfbench {

/// One program's traces, generated under one registry so the train and
/// test runs agree on function ids.
struct ProgramInput {
  lifepred::ProgramModel Model;
  lifepred::FunctionRegistry Registry;
  lifepred::AllocationTrace Train;
  lifepred::AllocationTrace Test;
  /// Test-trace records that are freed (the rest are never freed).
  uint64_t TestFreed = 0;
};

/// Generates all five programs at \p Scale from \p Seed, serially, with a
/// "workloads" span around each run.  Returns the generation seconds in
/// \p Seconds.
std::vector<ProgramInput> generatePrograms(double Scale, uint64_t Seed,
                                           double &Seconds);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_INPUTS_H
