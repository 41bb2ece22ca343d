//===- trace/CompiledTrace.cpp - Precompiled trace replay schedule ---------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "trace/CompiledTrace.h"

#include "support/Assert.h"

#include <algorithm>
#include <utility>

using namespace lifepred;

EventSchedule::EventSchedule(const AllocationTrace &Trace) {
  const std::vector<AllocRecord> &Records = Trace.records();
  assert(Records.size() < FreeBit && "trace exceeds the 2^31-1 record limit");

  // Pass 1: every freed record's (death clock, id), then one deterministic
  // sort.  The pair ordering matches the oracle heap's comparator exactly:
  // earliest death first, ties to the earlier-born object.
  std::vector<std::pair<uint64_t, uint32_t>> Deaths;
  size_t Freed = 0;
  for (const AllocRecord &Record : Records)
    if (Record.Lifetime != NeverFreed)
      ++Freed;
  Deaths.reserve(Freed);
  uint64_t Clock = 0;
  for (uint32_t Id = 0; Id < Records.size(); ++Id) {
    const AllocRecord &Record = Records[Id];
    Clock += Record.Size;
    if (Record.Lifetime == NeverFreed)
      continue;
    uint64_t DeathClock = Clock + Record.Lifetime;
    assert(DeathClock >= Clock && "death clock wrapped uint64_t");
    Deaths.emplace_back(DeathClock, Id);
  }
  std::sort(Deaths.begin(), Deaths.end());

  // Pass 2: merge births against the sorted deaths.  A death fires before
  // the first allocation whose post-alloc clock strictly exceeds it — the
  // oracle's pop condition (see the determinism argument in the header).
  TaggedIds.reserve(Records.size() + Deaths.size());
  Clocks.reserve(Records.size() + Deaths.size());
  size_t NextDeath = 0;
  Clock = 0;
  for (uint32_t Id = 0; Id < Records.size(); ++Id) {
    uint64_t NewClock = Clock + Records[Id].Size;
    while (NextDeath < Deaths.size() && Deaths[NextDeath].first < NewClock) {
      TaggedIds.push_back(Deaths[NextDeath].second | FreeBit);
      Clocks.push_back(Deaths[NextDeath].first);
      ++NextDeath;
    }
    Clock = NewClock;
    TaggedIds.push_back(Id);
    Clocks.push_back(Clock);
  }
  // Deaths scheduled past the last allocation.
  for (; NextDeath < Deaths.size(); ++NextDeath) {
    TaggedIds.push_back(Deaths[NextDeath].second | FreeBit);
    Clocks.push_back(Deaths[NextDeath].first);
  }
  EndClock = Clock;
}

namespace {

/// Per-record site keys, chain hashing hoisted per distinct chain; what is
/// left per record is the size mix, one multiply.
std::vector<SiteKey> buildRecordKeys(const AllocationTrace &Trace,
                                     const SiteKeyPolicy &Policy) {
  std::vector<uint64_t> ChainParts(Trace.chainCount());
  for (uint32_t I = 0; I < Trace.chainCount(); ++I)
    ChainParts[I] = chainKeyPart(Policy, Trace.chain(I));
  std::vector<SiteKey> Keys;
  Keys.reserve(Trace.size());
  for (const AllocRecord &Record : Trace.records())
    Keys.push_back(
        siteKeyForRecord(Policy, ChainParts[Record.ChainIndex], Record));
  return Keys;
}

} // namespace

CompiledTrace::CompiledTrace(const AllocationTrace &Trace,
                             const SiteKeyPolicy &Policy)
    : Source(&Trace), Schedule(Trace), Policy(Policy), HasKeys(true),
      RecordKeys(buildRecordKeys(Trace, Policy)) {}
