//===- support/FlatAddressMap.h - Open-addressed address map ----*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A map from a simulated heap address to a 32-bit payload (a size or a
/// size class): the per-object bookkeeping the simulators keep beside the
/// modelled allocator.  One flat, power-of-two array of slots, linear
/// probing from a Fibonacci-hashed home slot, kept at most half full, so a
/// lookup is a multiply, a shift and a short scan of adjacent slots.
///
/// Deletion shifts the rest of the probe run back instead of leaving a
/// tombstone, so a heap that allocates and frees millions of objects keeps
/// the same short probe runs it started with, and a steady-state
/// insert/erase pair never allocates.  The table grows by doubling and
/// never shrinks.
///
/// Address 0 is a legal key; the empty marker is ~0, which no simulated
/// heap hands out.  A user whose keys can be ~0 (the online predictor's
/// site-key hashes) keeps that one key beside the map.  forEach() visits
/// entries in slot order, which is neither address nor insertion order.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_SUPPORT_FLATADDRESSMAP_H
#define LIFEPRED_SUPPORT_FLATADDRESSMAP_H

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lifepred {

/// Open-addressed uint64_t -> uint32_t map with backward-shift deletion.
class FlatAddressMap {
public:
  /// The key that marks an empty slot; never a valid address.
  static constexpr uint64_t EmptyKey = ~uint64_t(0);

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  /// Maps \p Key to \p Value, replacing the value of a present key.
  void insert(uint64_t Key, uint32_t Value) {
    assert(Key != EmptyKey && "~0 marks an empty slot");
    if (2 * (Count + 1) > Slots.size())
      grow();
    size_t I = homeOf(Key);
    for (; Slots[I].Key != EmptyKey; I = next(I))
      if (Slots[I].Key == Key) {
        Slots[I].Value = Value;
        return;
      }
    Slots[I] = Slot{Key, Value};
    ++Count;
  }

  /// The value mapped to \p Key, or null when \p Key is absent.
  const uint32_t *find(uint64_t Key) const {
    size_t I = indexOf(Key);
    return I == NotFound ? nullptr : &Slots[I].Value;
  }

  bool contains(uint64_t Key) const { return indexOf(Key) != NotFound; }

  /// Removes \p Key, which must be present, and returns its value.
  uint32_t erase(uint64_t Key) {
    size_t Hole = indexOf(Key);
    assert(Hole != NotFound && "erase of an absent key");
    if (Hole == NotFound)
      return 0;
    uint32_t Value = Slots[Hole].Value;
    --Count;
    // Backward shift: walk the rest of the run and pull back every entry
    // whose home slot does not lie cyclically in (Hole, I] — those would
    // otherwise be cut off from their home by the new empty slot.
    for (size_t I = next(Hole); Slots[I].Key != EmptyKey; I = next(I)) {
      size_t Home = homeOf(Slots[I].Key);
      if (((I - Home) & mask()) >= ((I - Hole) & mask())) {
        Slots[Hole] = Slots[I];
        Hole = I;
      }
    }
    Slots[Hole].Key = EmptyKey;
    return Value;
  }

  /// Calls \p Visit(Key, Value) once per entry, in slot order.
  template <typename Fn> void forEach(Fn &&Visit) const {
    for (const Slot &S : Slots)
      if (S.Key != EmptyKey)
        Visit(S.Key, S.Value);
  }

  /// Slots in the table (a power of two, or 0 before the first insert).
  size_t capacity() const { return Slots.size(); }

private:
  struct Slot {
    uint64_t Key = EmptyKey;
    uint32_t Value = 0;
  };

  static constexpr size_t NotFound = ~size_t(0);

  size_t mask() const { return Slots.size() - 1; }
  size_t next(size_t I) const { return (I + 1) & mask(); }

  /// Home slot of \p Key: the top bits of a Fibonacci multiply, so clustered,
  /// aligned addresses (whose low bits are all zero) still spread.
  size_t homeOf(uint64_t Key) const {
    return static_cast<size_t>((Key * 0x9e3779b97f4a7c15ULL) >> Shift);
  }

  size_t indexOf(uint64_t Key) const {
    if (Count == 0)
      return NotFound;
    for (size_t I = homeOf(Key);; I = next(I)) {
      if (Slots[I].Key == Key)
        return I;
      if (Slots[I].Key == EmptyKey)
        return NotFound;
    }
  }

  void grow() {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(Old.empty() ? 16 : 2 * Old.size(), Slot());
    Shift = 64 - std::countr_zero(Slots.size());
    for (const Slot &S : Old) {
      if (S.Key == EmptyKey)
        continue;
      size_t I = homeOf(S.Key);
      while (Slots[I].Key != EmptyKey)
        I = next(I);
      Slots[I] = S;
    }
  }

  std::vector<Slot> Slots; ///< Power-of-two sized (or empty).
  unsigned Shift = 64;     ///< 64 - log2(Slots.size()).
  size_t Count = 0;
};

} // namespace lifepred

#endif // LIFEPRED_SUPPORT_FLATADDRESSMAP_H
