//===- perfbench/harness/Inputs.cpp - Paper-program inputs ----------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "Bench.h"

#include "workloads/Programs.h"
#include "workloads/WorkloadRunner.h"

using namespace perfbench;
using namespace lifepred;

std::vector<ProgramInput> perfbench::generatePrograms(double Scale,
                                                      uint64_t Seed,
                                                      double &Seconds) {
  std::vector<ProgramInput> Inputs;
  double Start = nowSeconds();
  for (const ProgramModel &Model : allPrograms()) {
    ProgramInput &P = Inputs.emplace_back();
    P.Model = Model;
    RunOptions Run;
    Run.Scale = Scale;
    Run.Seed = Seed;
    Span S("workloads", "runWorkload");
    Run.Kind = RunKind::Train;
    P.Train = runWorkload(Model, Run, P.Registry);
    Run.Kind = RunKind::Test;
    P.Test = runWorkload(Model, Run, P.Registry);
  }
  Seconds = nowSeconds() - Start;
  for (ProgramInput &P : Inputs)
    for (const AllocRecord &Record : P.Test.records())
      P.TestFreed += Record.Lifetime != NeverFreed;
  return Inputs;
}
