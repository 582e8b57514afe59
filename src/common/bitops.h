/**
 * @file
 * Small bit-manipulation helpers used across the DRAM address mapper, the
 * crypto substrate and the protection metadata layouts.
 */

#ifndef MGX_COMMON_BITOPS_H
#define MGX_COMMON_BITOPS_H

#include <bit>
#include <cassert>

#include "types.h"

namespace mgx {

/** True iff @p v is a power of two (0 is not). */
constexpr bool
isPow2(u64 v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** log2 of a power-of-two value. */
constexpr u32
log2i(u64 v)
{
    return static_cast<u32>(std::bit_width(v) - 1);
}

/** Integer division rounding up. */
constexpr u64
divCeil(u64 a, u64 b)
{
    return (a + b - 1) / b;
}

/** Round @p v up to a multiple of @p align (align must be a power of two). */
constexpr u64
alignUp(u64 v, u64 align)
{
    return (v + align - 1) & ~(align - 1);
}

/** Round @p v down to a multiple of @p align (power of two). */
constexpr u64
alignDown(u64 v, u64 align)
{
    return v & ~(align - 1);
}

/** Extract bits [lo, lo+len) of @p v. */
constexpr u64
bits(u64 v, u32 lo, u32 len)
{
    return (v >> lo) & ((len >= 64) ? ~u64{0} : ((u64{1} << len) - 1));
}

/** Rotate right within 32 bits. */
constexpr u32
rotr32(u32 v, u32 n)
{
    return std::rotr(v, static_cast<int>(n));
}

} // namespace mgx

#endif // MGX_COMMON_BITOPS_H
