//===- sim/CompiledPrediction.h - Pre-resolved per-record predictions -*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-(trace, database) prediction artifacts resolved once before replay,
/// so the simulation hot loops perform zero site-table probes: the
/// SiteDatabase's verdict becomes one bit per record, the ClassDatabase's a
/// band byte per record.  Both are pure functions of a CompiledTrace's
/// per-record key table and the trained database, built in one linear pass
/// and shared read-only by every replay of that pairing.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_SIM_COMPILEDPREDICTION_H
#define LIFEPRED_SIM_COMPILEDPREDICTION_H

#include "core/LifetimeClassifier.h"
#include "core/SiteDatabase.h"
#include "support/Assert.h"
#include "trace/CompiledTrace.h"

#include <cstdint>
#include <vector>

namespace lifepred {

/// One bit per trace record: was the record's site predicted short-lived
/// by a SiteDatabase?  Replaces the per-event hash probe in the arena
/// replay loop with a shift-and-mask.
class PredictedShortBits {
public:
  PredictedShortBits() = default;

  PredictedShortBits(const CompiledTrace &Compiled, const SiteDatabase &DB) {
    assert(Compiled.hasKeys() && "compile the trace with a key policy");
    assert(Compiled.keyPolicy() == DB.policy() &&
           "key table and database compiled under different policies");
    const std::vector<SiteKey> &Keys = Compiled.recordKeys();
    Words.assign((Keys.size() + 63) / 64, 0);
    for (size_t Id = 0; Id < Keys.size(); ++Id)
      if (DB.contains(Keys[Id]))
        Words[Id >> 6] |= uint64_t(1) << (Id & 63);
  }

  bool test(uint64_t Id) const {
    return (Words[Id >> 6] >> (Id & 63)) & 1;
  }

private:
  std::vector<uint64_t> Words;
};

/// The dynamic-override lane: per-record routes produced by an *online*
/// pass (runtime/Retrainer.h's OnlineRoutePlan) rather than a frozen
/// database probe.  Same bit-packed shape and test() contract as
/// PredictedShortBits, so the simulators template over either; wrapping
/// the plan's words here keeps sim/ free of any runtime/ dependency.
/// The words are an immutable pure function of the event stream, so a
/// replay of them is byte-identical at any --jobs.
class DynamicRouteBits {
public:
  DynamicRouteBits() = default;

  /// Wraps route words (one bit per record, bit set = routed short).
  explicit DynamicRouteBits(std::vector<uint64_t> RouteWords)
      : Words(std::move(RouteWords)) {}

  bool test(uint64_t Id) const {
    return (Words[Id >> 6] >> (Id & 63)) & 1;
  }

private:
  std::vector<uint64_t> Words;
};

/// One lifetime band per trace record, as classified by a ClassDatabase —
/// the multi-arena analogue of PredictedShortBits.
inline std::vector<LifetimeClass> compileBands(const CompiledTrace &Compiled,
                                               const ClassDatabase &DB) {
  assert(Compiled.hasKeys() && "compile the trace with a key policy");
  assert(Compiled.keyPolicy() == DB.policy() &&
         "key table and database compiled under different policies");
  const std::vector<SiteKey> &Keys = Compiled.recordKeys();
  std::vector<LifetimeClass> Bands;
  Bands.reserve(Keys.size());
  for (SiteKey Key : Keys)
    Bands.push_back(DB.classify(Key));
  return Bands;
}

} // namespace lifepred

#endif // LIFEPRED_SIM_COMPILEDPREDICTION_H
