//===- verify/TraceFuzzer.h - Generative trace fuzzing ----------*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded, deterministic generation of adversarial allocation traces from
/// composable profiles, each tuned to stress a different allocator
/// mechanism: size spikes (split/coalesce churn and oversize routing),
/// death-clock collisions (mass frees at one byte clock), pathological
/// fragmentation (boundary sizes with alternating lifetimes), allocation-
/// site churn (profiling/training under thousands of one-shot chains),
/// arena-hostile bursts, and never-freed immortals.  A generated trace is
/// pushed through shadowCheckAll; any reported violation is a bug in an
/// allocator, a replay path, or the prediction compilation.
///
/// The binary round-trip fuzzer mutates serialized traces (truncation, bit
/// flips, absurd header counts, trailing garbage) and requires the reader
/// to either reject cleanly or return a structurally valid trace — never
/// crash, never hand back out-of-range chain indices.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_VERIFY_TRACEFUZZER_H
#define LIFEPRED_VERIFY_TRACEFUZZER_H

#include "trace/AllocationTrace.h"
#include "verify/ShadowSim.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace lifepred {

/// Trace-shape families the generator composes.
enum class FuzzProfile {
  Uniform,        ///< Baseline: mixed sizes and lifetimes, a few immortals.
  SizeSpike,      ///< Tiny objects with rare huge spikes and zero-size runs.
  DeathCollision, ///< Cohorts engineered to die at the same byte clock.
  Fragmentation,  ///< Boundary sizes, alternating lifetimes: split/coalesce.
  SiteChurn,      ///< A fresh deep call chain for nearly every record.
  Oversize,       ///< Short-lived objects larger than an arena.
  Immortal,       ///< A quarter of all objects never freed.
  Burst,          ///< Alternating arena-friendly and arena-pinning phases.
  Mixed,          ///< Concatenation of sub-traces from the other profiles.
  GrandChallenge, ///< The billion-event bench's synthetic workload: steady
                  ///< small-object churn over the full bucket spectrum with
                  ///< rare size spikes, bounded lifetimes, no immortals —
                  ///< every segment is self-contained, so no object is
                  ///< live across a schedule segment seam.  Shared by
                  ///< bench_sim_throughput's grand-challenge mode and the
                  ///< fuzzer so there is exactly one trace synthesizer.
};

/// Stable lowercase name of \p Profile (CLI and report key).
const char *profileName(FuzzProfile Profile);

/// All profiles, in declaration order.
std::vector<FuzzProfile> allProfiles();

/// Parses a profile name; std::nullopt if unknown.
std::optional<FuzzProfile> profileByName(const std::string &Name);

/// Generates a deterministic trace of about \p Objects records shaped by
/// \p Profile.  Same (profile, seed, objects) => byte-identical trace.
AllocationTrace generateFuzzTrace(FuzzProfile Profile, uint64_t Seed,
                                  size_t Objects);

/// Generates one trace and runs it through shadowCheckAll.
ShadowReport runFuzzCase(FuzzProfile Profile, uint64_t Seed, size_t Objects);

/// Statistics of one binary round-trip fuzz batch.
struct BinaryFuzzStats {
  uint64_t Cases = 0;    ///< Mutants fed to the reader.
  uint64_t Accepted = 0; ///< Mutants the reader parsed into a trace.
  uint64_t Rejected = 0; ///< Mutants the reader rejected cleanly.
};

/// Serializes \p Cases small traces, mutates each (truncation, bit flips,
/// spliced header counts, trailing garbage), and feeds the mutants to
/// readTraceBinary.  Returns false and fills \p Error if a pristine
/// round-trip is not value-identical or an accepted mutant fails
/// structural validation.
bool fuzzBinaryRoundTrip(uint64_t Seed, size_t Cases, std::string &Error,
                         BinaryFuzzStats *Stats = nullptr);

} // namespace lifepred

#endif // LIFEPRED_VERIFY_TRACEFUZZER_H
