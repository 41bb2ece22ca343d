//===- support/BitmapFreeList.h - Bitmap block free list --------*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-block free list backed by a bitmap, the btmalloc bitmap-scan
/// idiom adapted to the simulator: one size class owns a growing set of
/// equal-sized extents, each carved into equal blocks, and one bit per
/// block says whether it is free.  pop() returns the *lowest free
/// address* — find-first-set from a cursor — instead of the LIFO stack's
/// most-recently-freed block, trading the stack's locality for O(1) space
/// per block (1 bit vs 8 bytes).
///
/// Address <-> bit mapping: extents are appended in allocation order, and
/// the simulated heap only grows, so extent bases are strictly increasing
/// and bit order equals address order.  Mapping an address back to its bit
/// is a binary search over the extent bases plus a shift — no hash map.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_SUPPORT_BITMAPFREELIST_H
#define LIFEPRED_SUPPORT_BITMAPFREELIST_H

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace lifepred {

/// Bitmap free list of one size class.  Blocks are BlockBytes apart;
/// every extent contributes exactly BlocksPerExtent of them.
class BitmapFreeList {
public:
  BitmapFreeList() = default;

  /// Configures the class geometry.  Must be called (once) before use.
  /// Both quantities must be powers of two (Kingsley classes always are),
  /// which turns every address <-> bit conversion into a shift.
  void configure(uint64_t BlockBytes, uint64_t BlocksPerExtent) {
    assert(Blocks == 0 && "configure after blocks were added");
    assert(std::has_single_bit(BlockBytes) &&
           std::has_single_bit(BlocksPerExtent) &&
           "class geometry must be a power of two");
    this->BlockBytes = BlockBytes;
    this->PerExtent = BlocksPerExtent;
    BlockShift = std::countr_zero(BlockBytes);
    PerExtentShift = std::countr_zero(BlocksPerExtent);
  }

  bool empty() const { return FreeCount == 0; }
  uint64_t freeCount() const { return FreeCount; }

  /// Registers a freshly carved extent at \p Base; all of its blocks start
  /// free.  Bases must arrive in increasing address order (the simulated
  /// heap only grows).
  void addExtent(uint64_t Base) {
    assert(PerExtent != 0 && "configure() not called");
    assert((ExtentBases.empty() || ExtentBases.back() < Base) &&
           "extents must arrive in address order");
    ExtentBases.push_back(Base);
    uint64_t First = Blocks;
    Blocks += PerExtent;
    Words.resize((Blocks + 63) / 64, 0);
    for (uint64_t Bit = First; Bit < Blocks; ++Bit)
      Words[Bit >> 6] |= uint64_t(1) << (Bit & 63);
    FreeCount += PerExtent;
    Cursor = std::min<uint64_t>(Cursor, First >> 6);
  }

  /// Claims and returns the lowest free address.  Precondition: !empty().
  uint64_t pop() {
    assert(FreeCount != 0 && "pop from an empty class");
    while (Words[Cursor] == 0)
      ++Cursor;
    uint64_t Word = Words[Cursor];
    unsigned BitInWord = std::countr_zero(Word);
    Words[Cursor] = Word & (Word - 1);
    --FreeCount;
    uint64_t Bit = (uint64_t(Cursor) << 6) | BitInWord;
    return ExtentBases[Bit >> PerExtentShift] +
           ((Bit & (PerExtent - 1)) << BlockShift);
  }

  /// Releases \p Addr, which must be a block of this class.
  void push(uint64_t Addr) {
    uint64_t Bit = bitFor(Addr);
    assert(!(Words[Bit >> 6] & (uint64_t(1) << (Bit & 63))) &&
           "block freed twice");
    Words[Bit >> 6] |= uint64_t(1) << (Bit & 63);
    ++FreeCount;
    Cursor = std::min<uint64_t>(Cursor, Bit >> 6);
  }

  /// True when \p Addr lies on a block boundary of one of our extents.
  bool owns(uint64_t Addr) const {
    if (ExtentBases.empty())
      return false;
    auto It = std::upper_bound(ExtentBases.begin(), ExtentBases.end(), Addr);
    if (It == ExtentBases.begin())
      return false;
    uint64_t Offset = Addr - *std::prev(It);
    return Offset < PerExtent * BlockBytes && Offset % BlockBytes == 0;
  }

  /// Invokes \p F with the address of every free block (audit support).
  template <typename FnT> void forEachFree(FnT &&F) const {
    for (uint64_t Bit = 0; Bit < Blocks; ++Bit)
      if (Words[Bit >> 6] & (uint64_t(1) << (Bit & 63)))
        F(ExtentBases[Bit / PerExtent] + (Bit % PerExtent) * BlockBytes);
  }

private:
  uint64_t bitFor(uint64_t Addr) const {
    // One-entry extent cache: replay placement is lowest-address-first, so
    // consecutive frees overwhelmingly land in the same extent and the
    // binary search is the cold path.
    uint64_t Offset = Addr - ExtentBases[CachedExtent]; // Wraps if below.
    if (Offset >= (PerExtent << BlockShift)) {
      auto It = std::upper_bound(ExtentBases.begin(), ExtentBases.end(), Addr);
      assert(It != ExtentBases.begin() && "address below every extent");
      CachedExtent = (It - ExtentBases.begin()) - 1;
      Offset = Addr - ExtentBases[CachedExtent];
    }
    assert(Offset < (PerExtent << BlockShift) && Offset % BlockBytes == 0 &&
           "address is not a block of this class");
    return (CachedExtent << PerExtentShift) + (Offset >> BlockShift);
  }

  uint64_t BlockBytes = 0;
  uint64_t PerExtent = 0;
  unsigned BlockShift = 0;
  unsigned PerExtentShift = 0;
  mutable uint64_t CachedExtent = 0;
  std::vector<uint64_t> ExtentBases;
  std::vector<uint64_t> Words;
  uint64_t Cursor = 0;   ///< First word that may contain a set bit.
  uint64_t FreeCount = 0;
  uint64_t Blocks = 0;
};

} // namespace lifepred

#endif // LIFEPRED_SUPPORT_BITMAPFREELIST_H
