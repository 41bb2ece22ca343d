//===- tests/integration_test.cpp - Paper-shape integration tests ----------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
// Runs the full pipeline over the five program models at reduced scale and
// asserts the qualitative shape of the paper's results: who wins, where the
// jumps fall, which programs misbehave.  Exact values are checked by eye
// against the bench output (see EXPERIMENTS.md); these tests guard the
// load-bearing relationships.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "sim/TraceSimulator.h"
#include "workloads/PaperData.h"
#include "workloads/Programs.h"
#include "workloads/WorkloadRunner.h"

#include "gtest/gtest.h"

#include <map>
#include <memory>
#include <string>

using namespace lifepred;

namespace {

/// Shared fixture state: traces and pipeline results per program, computed
/// once for the whole suite (generation is the expensive part).
struct ProgramState {
  ProgramModel Model;
  FunctionRegistry Registry;
  AllocationTrace Train;
  AllocationTrace Test;
  PipelineResult Self; ///< Complete-chain self prediction.
  PredictionReport True;
  CompiledTrace Compiled; ///< Test, keyed under Self's policy.
};

class IntegrationTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    States = new std::map<std::string, ProgramState>();
    for (ProgramModel &Model : allPrograms()) {
      ProgramState &S = (*States)[Model.Name];
      S.Model = Model;
      RunOptions O;
      O.Scale = 0.15;
      O.Kind = RunKind::Train;
      S.Train = runWorkload(Model, O, S.Registry);
      O.Kind = RunKind::Test;
      S.Test = runWorkload(Model, O, S.Registry);
      SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
      S.Self = trainAndEvaluate(S.Train, S.Train, Policy);
      S.True = evaluatePrediction(S.Test, S.Self.Database);
      S.Compiled = CompiledTrace(S.Test, Policy);
    }
  }
  static void TearDownTestSuite() {
    delete States;
    States = nullptr;
  }

  static ProgramState &state(const std::string &Name) {
    return States->at(Name);
  }

  static std::map<std::string, ProgramState> *States;
};

std::map<std::string, ProgramState> *IntegrationTest::States = nullptr;

double selfPredictAtLength(ProgramState &S, unsigned Length) {
  SiteKeyPolicy Policy = Length == 0 ? SiteKeyPolicy::completeChain()
                                     : SiteKeyPolicy::lastN(Length);
  return trainAndEvaluate(S.Train, S.Train, Policy)
      .Report.predictedShortPercent();
}

} // namespace

TEST_F(IntegrationTest, GenerationalHypothesisHolds) {
  // Paper section 4: short-lived objects account for >90% of bytes in
  // every program.
  for (const auto &[Name, S] : *States)
    EXPECT_GT(S.Self.Report.actualShortPercent(), 88.0) << Name;
}

TEST_F(IntegrationTest, SelfPredictionNeverErrs) {
  for (const auto &[Name, S] : *States)
    EXPECT_DOUBLE_EQ(S.Self.Report.errorPercent(), 0.0) << Name;
}

TEST_F(IntegrationTest, SelfPredictionFindsMostShortBytesExceptEspresso) {
  // Paper Table 4: 79-99% everywhere except ESPRESSO's 41.8%.
  EXPECT_GT(state("CFRAC").Self.Report.predictedShortPercent(), 70.0);
  EXPECT_GT(state("GAWK").Self.Report.predictedShortPercent(), 90.0);
  EXPECT_GT(state("GHOST").Self.Report.predictedShortPercent(), 70.0);
  EXPECT_GT(state("PERL").Self.Report.predictedShortPercent(), 85.0);
  double Espresso = state("ESPRESSO").Self.Report.predictedShortPercent();
  EXPECT_GT(Espresso, 30.0);
  EXPECT_LT(Espresso, 55.0);
}

TEST_F(IntegrationTest, TruePredictionErrorsOnlyWhereThePaperErrs) {
  // CFRAC and PERL have nonzero error bytes; the others are clean.
  EXPECT_GT(state("CFRAC").True.errorPercent(), 1.0);
  EXPECT_GT(state("PERL").True.errorPercent(), 0.3);
  EXPECT_LT(state("ESPRESSO").True.errorPercent(), 0.3);
  EXPECT_LT(state("GAWK").True.errorPercent(), 0.1);
  // GHOST is clean at full scale; at this reduced scale a handful of
  // sparsely-trained mixed sites can slip through (see EXPERIMENTS.md).
  EXPECT_LT(state("GHOST").True.errorPercent(), 0.7);
}

TEST_F(IntegrationTest, GawkTrueMatchesSelf) {
  // Same awk program, different data: true prediction equals self.
  ProgramState &S = state("GAWK");
  EXPECT_NEAR(S.True.predictedShortPercent(),
              S.Self.Report.predictedShortPercent(), 3.0);
}

TEST_F(IntegrationTest, PerlTrueCollapsesVersusSelf) {
  // Different perl scripts: the paper's 91.4% -> 20.4% collapse.
  ProgramState &S = state("PERL");
  EXPECT_LT(S.True.predictedShortPercent(),
            0.45 * S.Self.Report.predictedShortPercent());
}

TEST_F(IntegrationTest, SizeOnlyPredictionIsWeak) {
  // Paper Table 5: size alone predicts far less than site+size.
  for (const auto &[Name, S] : *States) {
    auto &State = (*States)[Name];
    PipelineResult SizeOnly = trainAndEvaluate(
        State.Train, State.Train, SiteKeyPolicy::sizeOnly());
    EXPECT_LT(SizeOnly.Report.predictedShortPercent(),
              S.Self.Report.predictedShortPercent() + 1e-9)
        << Name;
    EXPECT_LT(SizeOnly.Report.predictedShortPercent(), 45.0) << Name;
  }
  // CFRAC is the extreme: size predicts essentially nothing.
  PipelineResult Cfrac = trainAndEvaluate(
      state("CFRAC").Train, state("CFRAC").Train, SiteKeyPolicy::sizeOnly());
  EXPECT_LT(Cfrac.Report.predictedShortPercent(), 2.0);
}

TEST_F(IntegrationTest, ChainLengthJumpsWhereThePaperJumps) {
  // Table 6's parenthesized lengths: the abrupt improvement.
  struct JumpCase {
    const char *Program;
    unsigned JumpAt;
    double MinGain;
  };
  for (const JumpCase &Case :
       {JumpCase{"CFRAC", 2, 15}, JumpCase{"GAWK", 3, 12},
        JumpCase{"GHOST", 4, 20}, JumpCase{"PERL", 4, 15}}) {
    ProgramState &S = state(Case.Program);
    double Before = selfPredictAtLength(S, Case.JumpAt - 1);
    double After = selfPredictAtLength(S, Case.JumpAt);
    EXPECT_GT(After - Before, Case.MinGain)
        << Case.Program << " jump at length " << Case.JumpAt;
  }
}

TEST_F(IntegrationTest, EspressoChainResponseIsFlat) {
  ProgramState &S = state("ESPRESSO");
  double L1 = selfPredictAtLength(S, 1);
  double L7 = selfPredictAtLength(S, 7);
  EXPECT_LT(L7 - L1, 8.0);
}

TEST_F(IntegrationTest, RecursionMakesCompleteChainPredictLess) {
  // Paper Table 6 note: pruning merges sites that raw length-7 sub-chains
  // keep apart (ESPRESSO and PERL recurse).
  for (const char *Name : {"ESPRESSO", "PERL"}) {
    ProgramState &S = state(Name);
    double L7 = selfPredictAtLength(S, 7);
    double Complete = selfPredictAtLength(S, 0);
    EXPECT_LT(Complete, L7 + 0.1) << Name;
  }
}

TEST_F(IntegrationTest, Length4CapturesMostOfCompleteChain) {
  // The paper's practical conclusion: length-4 chains recover >90% of the
  // complete chain's prediction.
  for (const auto &[Name, Unused] : *States) {
    ProgramState &S = state(Name);
    double L4 = selfPredictAtLength(S, 4);
    double Complete = selfPredictAtLength(S, 0);
    EXPECT_GT(L4, 0.9 * Complete) << Name;
  }
}

TEST_F(IntegrationTest, ArenaFractionsMatchPaperShapes) {
  // Table 7 under true prediction.
  for (const auto &[Name, Unused] : *States) {
    ProgramState &S = state(Name);
    ArenaSimResult Sim =
        simulateArena(S.Compiled, S.Self.Database, S.Model.CallsPerAlloc);
    if (Name == "CFRAC") {
      // Pollution collapse.
      EXPECT_LT(Sim.arenaAllocPercent(), 8.0);
    } else if (Name == "GAWK") {
      EXPECT_GT(Sim.arenaAllocPercent(), 90.0);
    } else if (Name == "GHOST") {
      // Many objects, few bytes: the 6 KB objects skip the arenas.
      EXPECT_GT(Sim.arenaAllocPercent(), 55.0);
      EXPECT_LT(Sim.arenaBytesPercent(), Sim.arenaAllocPercent() - 20.0);
      EXPECT_GT(Sim.Arena.OversizeAllocs, 0u);
    }
  }
}

TEST_F(IntegrationTest, ArenaAddsOverheadToSmallHeapsAndHelpsGhost) {
  // Table 8's central contrast.
  for (const char *Name : {"GAWK", "PERL"}) {
    ProgramState &S = state(Name);
    BaselineSimResult FF = simulateFirstFit(S.Compiled);
    ArenaSimResult Arena =
        simulateArena(S.Compiled, S.Self.Database, S.Model.CallsPerAlloc);
    EXPECT_GT(Arena.MaxHeapBytes, FF.MaxHeapBytes) << Name;
  }
  {
    ProgramState &S = state("GHOST");
    BaselineSimResult FF = simulateFirstFit(S.Compiled);
    ArenaSimResult Arena =
        simulateArena(S.Compiled, S.Self.Database, S.Model.CallsPerAlloc);
    // At this reduced scale the saving can shrink to a tie; at full scale
    // the arena heap is decisively smaller (Table 8 bench).
    EXPECT_LE(Arena.MaxHeapBytes, FF.MaxHeapBytes);
  }
}

TEST_F(IntegrationTest, CpuCostWinnersMatchTable9) {
  CostModel Costs;
  // GAWK: prediction succeeds, arena beats both baselines.
  {
    ProgramState &S = state("GAWK");
    ArenaSimResult Arena = simulateArena(S.Compiled, S.Self.Database,
                                         S.Model.CallsPerAlloc, Costs);
    BaselineSimResult FF = simulateFirstFit(S.Compiled, Costs);
    BaselineSimResult Bsd = simulateBsd(S.Compiled, Costs);
    EXPECT_LT(Arena.InstrLen4.total(), FF.Instr.total());
    EXPECT_LT(Arena.InstrLen4.total(), Bsd.Instr.total());
  }
  // CFRAC: pollution makes the arena allocator the worst.
  {
    ProgramState &S = state("CFRAC");
    ArenaSimResult Arena = simulateArena(S.Compiled, S.Self.Database,
                                         S.Model.CallsPerAlloc, Costs);
    BaselineSimResult FF = simulateFirstFit(S.Compiled, Costs);
    EXPECT_GT(Arena.InstrLen4.total(), FF.Instr.total());
  }
  // Everywhere: BSD free is the cheap baseline, and cce never beats len-4
  // by much when calls-per-alloc is high.
  {
    ProgramState &S = state("PERL");
    ArenaSimResult Arena = simulateArena(S.Compiled, S.Self.Database,
                                         S.Model.CallsPerAlloc, Costs);
    EXPECT_GT(Arena.InstrCce.Alloc, Arena.InstrLen4.Alloc);
  }
}

TEST_F(IntegrationTest, SiteCountsTrackPaperMagnitudes) {
  // Order-of-magnitude guard: ESPRESSO has thousands of sites, the others
  // hundreds.
  EXPECT_GT(state("ESPRESSO").Self.TrainingProfile.Sites.size(), 1500u);
  for (const char *Name : {"CFRAC", "GAWK", "PERL", "GHOST"}) {
    EXPECT_LT(state(Name).Self.TrainingProfile.Sites.size(), 800u) << Name;
    EXPECT_GT(state(Name).Self.TrainingProfile.Sites.size(), 80u) << Name;
  }
}
