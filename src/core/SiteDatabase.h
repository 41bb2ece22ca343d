//===- core/SiteDatabase.h - Predicted-short-lived site set -----*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The database of allocation sites predicted to allocate only short-lived
/// objects — the artifact a training run produces and the optimized
/// allocator links against.  Per the paper it is a small hash table of
/// encoded site keys: here a flat, power-of-two, linear-probed array of
/// keys kept at most half full, so a probe is a multiply, a shift and a
/// short scan of adjacent words.  Serializable so examples and tools can
/// persist profiles between processes.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_CORE_SITEDATABASE_H
#define LIFEPRED_CORE_SITEDATABASE_H

#include "callchain/SiteKey.h"

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace lifepred {

/// A set of site keys predicted short-lived, plus the policy and threshold
/// they were trained under.
class SiteDatabase {
public:
  SiteDatabase() = default;
  SiteDatabase(SiteKeyPolicy Policy, uint64_t Threshold)
      : Policy(Policy), Threshold(Threshold) {}

  /// Adds a predicted-short-lived site.
  void insert(SiteKey Key);

  /// True if \p Key was predicted short-lived in training.
  bool contains(SiteKey Key) const {
    // 0 marks an empty slot, so key 0 (a legal hash) lives in a flag.
    if (Key == 0)
      return HasZero;
    if (Slots.empty())
      return false;
    for (size_t I = slotOf(Key);; I = (I + 1) & (Slots.size() - 1)) {
      if (Slots[I] == Key)
        return true;
      if (Slots[I] == 0)
        return false;
    }
  }

  /// Predicts from a raw chain and size directly.  The reference path
  /// (tests, benches); the runtime keys from the live shadow stack.
  bool predictShortLived(const CallChain &Raw, uint32_t Size) const {
    return contains(siteKey(Policy, Raw, Size));
  }

  /// Number of predicted sites.
  size_t size() const { return Count + (HasZero ? 1 : 0); }

  /// The key policy the database was trained under.
  const SiteKeyPolicy &policy() const { return Policy; }

  /// The short-lived threshold (bytes) used in training.
  uint64_t threshold() const { return Threshold; }

  /// The text format's version: the "sitedb v2" header.
  static constexpr unsigned FormatVersion = 2;

  /// Writes the database as text ("sitedb v2" header, one key per line in
  /// ascending order, so equal sets save byte-identically).  The
  /// encryption pointer of the policy is not serialized.  The version
  /// names the key hash: v1 files hold keys of the serial hashCombine chain
  /// hash, which no current key can match.
  void save(std::ostream &OS) const;

  /// Parses a database written by save(); std::nullopt on malformed input
  /// or any other version, with the reason in \p Error when given.
  static std::optional<SiteDatabase> load(std::istream &IS,
                                          std::string *Error = nullptr);

private:
  /// Home slot of \p Key: the top bits of a Fibonacci multiply, so keys
  /// that share their low (or high) bits still spread.  Requires a
  /// non-empty table.
  size_t slotOf(SiteKey Key) const {
    return static_cast<size_t>((Key * 0x9e3779b97f4a7c15ULL) >> Shift);
  }
  void grow();

  /// Open-addressed keys, 0 = empty; size is a power of two (or 0).
  std::vector<SiteKey> Slots;
  unsigned Shift = 64; ///< 64 - log2(Slots.size()).
  size_t Count = 0;    ///< Nonzero keys stored in Slots.
  bool HasZero = false;
  SiteKeyPolicy Policy;
  uint64_t Threshold = 32 * 1024;
};

} // namespace lifepred

#endif // LIFEPRED_CORE_SITEDATABASE_H
