//===- support/MathExtras.h - Arithmetic helpers ----------------*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small arithmetic helpers (alignment, rounding, power-of-two tests).
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_SUPPORT_MATHEXTRAS_H
#define LIFEPRED_SUPPORT_MATHEXTRAS_H

#include <bit>
#include <cassert>
#include <cstdint>

namespace lifepred {

/// Returns true if \p Value is a power of two (0 is not).
constexpr bool isPowerOf2(uint64_t Value) {
  return Value != 0 && (Value & (Value - 1)) == 0;
}

/// Rounds \p Value up to the next multiple of \p Align (Align > 0).
constexpr uint64_t alignTo(uint64_t Value, uint64_t Align) {
  return Align == 0 ? Value : ((Value + Align - 1) / Align) * Align;
}

/// Rounds \p Value down to the previous multiple of \p Align (Align > 0).
constexpr uint64_t alignDown(uint64_t Value, uint64_t Align) {
  return Align == 0 ? Value : (Value / Align) * Align;
}

/// Returns ceil(log2(Value)), and 0 for Value <= 1.
constexpr unsigned log2Ceil(uint64_t Value) {
  return Value <= 1 ? 0 : static_cast<unsigned>(std::bit_width(Value - 1));
}

/// Returns the smallest power of two >= \p Value (Value >= 1).
constexpr uint64_t nextPowerOf2(uint64_t Value) {
  return uint64_t(1) << log2Ceil(Value);
}

/// Returns Numerator/Denominator as a percentage, 0 when the denominator
/// is zero (convenient for report tables).
inline double percent(double Numerator, double Denominator) {
  return Denominator == 0 ? 0.0 : 100.0 * Numerator / Denominator;
}

} // namespace lifepred

#endif // LIFEPRED_SUPPORT_MATHEXTRAS_H
