//===- runtime/PredictingHeap.h - Real predicting allocator -----*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A *real* (not simulated) lifetime-predicting heap: the prototype the
/// paper's conclusion calls for.  Allocation consults a trained
/// SiteDatabase using the calling thread's shadow stack; predicted
/// short-lived objects are bump-allocated into real 4 KB arenas carved out
/// of one contiguous 64 KB area, everything else goes to ::operator new.
/// deallocate() distinguishes arena pointers by address range, exactly as
/// the paper's algorithm does.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_RUNTIME_PREDICTINGHEAP_H
#define LIFEPRED_RUNTIME_PREDICTINGHEAP_H

#include "core/SiteDatabase.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace lifepred {

class DriftSampleLog;
class FlightRecorder;
class OnlinePredictor;
class StatsRegistry;

/// Profile-driven two-strategy heap.
class PredictingHeap {
public:
  /// Geometry of the real arena area.  AreaBytes / ArenaCount must be a
  /// power of two, so an arena index is a shift of the pointer offset.
  struct Config {
    size_t AreaBytes = 64 * 1024;
    unsigned ArenaCount = 16;
    size_t Alignment = 16; ///< Alignment of every returned pointer.
    /// Serialize allocate()/deallocate() with a mutex.  The shadow stacks
    /// are thread-local either way; this guards the shared arena state.
    bool ThreadSafe = false;
  };

  /// Allocation statistics.
  struct Stats {
    uint64_t ArenaAllocs = 0;
    uint64_t GeneralAllocs = 0;
    uint64_t ArenaBytes = 0;
    uint64_t GeneralBytes = 0;
    uint64_t Resets = 0;
    uint64_t Fallbacks = 0; ///< Predicted short but no empty arena.
  };

  /// Builds a heap using the trained \p Database (copied).
  explicit PredictingHeap(SiteDatabase Database);
  /// As above with geometry \p C; throws std::invalid_argument naming the
  /// field if ArenaCount is zero or does not divide AreaBytes, or if the
  /// alignment or the arena size is not a power of two.
  PredictingHeap(SiteDatabase Database, Config C);
  ~PredictingHeap();

  PredictingHeap(const PredictingHeap &) = delete;
  PredictingHeap &operator=(const PredictingHeap &) = delete;

  /// Allocates \p Size bytes; consults the shadow stack and database.
  void *allocate(size_t Size);

  /// Frees a pointer returned by allocate().
  void deallocate(void *Ptr);

  const Stats &stats() const { return Counters; }
  const SiteDatabase &database() const { return Database; }

  /// True if \p Ptr lies inside the arena area (test support).
  bool isArenaPointer(const void *Ptr) const;

  /// Copies the allocation statistics into \p Registry as
  /// "<Prefix>arena_allocs", "<Prefix>resets", ... — read-only.
  void exportTelemetry(StatsRegistry &Registry,
                       const std::string &Prefix) const;

  /// Structural self-audit for the verify layer: per-arena bump-pointer
  /// bounds and alignment, and (with a recorder attached) containment of
  /// every recorded live arena pointer in an arena with a positive live
  /// count.  Costs nothing unless called.  Returns false and fills
  /// \p Error at the first broken invariant.
  bool auditInvariants(std::string &Error) const;

  /// Attaches a per-object flight recorder.  Attach before the first
  /// allocate(); the heap then assigns object ids in allocation order and
  /// drives a byte clock (bytes allocated so far), so the audit trail of a
  /// single-threaded run is deterministic.  Detach by attaching nullptr.
  /// Unattached heaps skip every audit branch on the allocation path.
  void attachRecorder(FlightRecorder *Recorder);

  /// Finishes the attached recorder and drift log at the current byte
  /// clock (classifying still-live objects as long-lived) and drops the
  /// pointer-id map.
  void finishRecording();

  /// Attaches a drift sample log (telemetry/DriftObservatory.h): every
  /// allocation's site, size, prediction, and byte-clock birth/death feed
  /// the log, so a live run's prediction quality can be compared against
  /// its trained database after the fact.  Same discipline as
  /// attachRecorder — attach before the first allocate(), detach with
  /// nullptr; unattached heaps skip the branch.
  void attachDriftLog(DriftSampleLog *Log);

  /// Attaches an online predictor (runtime/OnlinePredictor.h): allocation
  /// routing switches from the frozen database probe to the predictor's
  /// epoch-versioned routing table, every deallocation feeds the observed
  /// lifetime back, and the heap's byte clock drives the predictor's
  /// retrain windows — so a drifting live workload re-routes its flagged
  /// sites mid-run.  Attach before the first allocate(); detach with
  /// nullptr.  The predictor is *not* internally locked; in ThreadSafe
  /// mode the heap's own mutex serializes every model call.
  void attachOnline(OnlinePredictor *Predictor);

  /// The attached predictor's routing-table epoch (0 without one): bumps
  /// exactly when a retrain window flipped at least one site's route, so
  /// callers can cheaply detect mid-run re-routing.  In ThreadSafe mode it
  /// takes the heap's lock, so any thread may poll it during a run.
  uint32_t routeEpoch() const;

private:
  struct Arena {
    size_t AllocPtr = 0;
    uint32_t LiveCount = 0;
    uint64_t Generation = 0; ///< Incremented at every reset.
  };

  size_t arenaBytes() const { return size_t(1) << ArenaShift; }
  void *bump(size_t Need, size_t Size);
  void *allocateImpl(size_t Size, bool Predicted);
  void recordBirth(const void *Ptr, size_t Size, bool Predicted,
                   uint32_t Site);

  SiteDatabase Database;
  Config Cfg;
  unsigned ArenaShift = 0; ///< log2(arenaBytes()).
  Stats Counters;
  mutable std::mutex Lock; ///< Used only when Cfg.ThreadSafe.
  std::unique_ptr<unsigned char[]> Area; ///< The contiguous arena area.
  std::vector<Arena> Arenas;
  unsigned Current = 0;
  /// Audit state; all null/empty (and untouched) without a recorder.
  FlightRecorder *Recorder = nullptr;
  DriftSampleLog *DriftLog = nullptr;
  OnlinePredictor *Online = nullptr;
  uint64_t ByteClock = 0;
  uint64_t NextId = 0;
  std::unordered_map<const void *, uint64_t> LiveIds;
  /// Birth facts the online feedback loop needs at deallocate().
  struct OnlineBirth {
    SiteKey Site = 0;
    uint64_t BirthClock = 0;
    bool RoutedShort = false;
  };
  std::unordered_map<const void *, OnlineBirth> OnlineLive;
};

} // namespace lifepred

#endif // LIFEPRED_RUNTIME_PREDICTINGHEAP_H
