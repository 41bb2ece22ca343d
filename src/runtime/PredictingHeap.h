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
#include <vector>

namespace lifepred {

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

  /// Frees a pointer returned by allocate().  An arena pointer only
  /// decrements its arena's live count; freeing one more arena object than
  /// the arena holds (a double free) aborts with a message in every build.
  /// Any pointer outside the arena area goes straight to ::operator delete,
  /// so a foreign pointer is not caught here.
  void deallocate(void *Ptr);

  const Stats &stats() const { return Counters; }
  const SiteDatabase &database() const { return Database; }

  /// True if \p Ptr lies inside the arena area (test support).
  bool isArenaPointer(const void *Ptr) const;

  /// Copies the allocation statistics into \p Registry as
  /// "<Prefix>arena_allocs", "<Prefix>resets", ... — read-only.
  void exportTelemetry(StatsRegistry &Registry,
                       const std::string &Prefix) const;

  /// Structural self-audit for the verify layer: the current arena index
  /// and every arena's bump pointer (in bounds, aligned).  Costs nothing
  /// unless called.  Returns false and fills \p Error at the first broken
  /// invariant.
  bool auditInvariants(std::string &Error) const;

private:
  struct Arena {
    size_t AllocPtr = 0;
    uint32_t LiveCount = 0;
  };

  size_t arenaBytes() const { return size_t(1) << ArenaShift; }
  void *bump(size_t Need, size_t Size);
  void *allocateImpl(size_t Size, bool Predicted);

  SiteDatabase Database;
  Config Cfg;
  unsigned ArenaShift = 0; ///< log2(arenaBytes()).
  Stats Counters;
  std::mutex Lock; ///< Used only when Cfg.ThreadSafe.
  std::unique_ptr<unsigned char[]> Area; ///< The contiguous arena area.
  std::vector<Arena> Arenas;
  unsigned Current = 0;
};

} // namespace lifepred

#endif // LIFEPRED_RUNTIME_PREDICTINGHEAP_H
