/**
 * @file
 * Strict decimal parsing for command-line values.
 *
 * strtoul/strtol accept a sign and trailing junk and wrap or truncate
 * out-of-range input, and a cast to the option's type truncates once
 * more: "-1" turns into 4294967295 threads and port "99999" into
 * 34463. strtod also takes "nan", "inf" and exponents. parseDecimal()
 * and parseFraction() accept only what the option means.
 */
#pragma once

#include <cstdlib>

#include "common/types.h"

namespace mgx {

/**
 * Bounds for the flags that size thread pools and process counts: far
 * above any count this simulator puts to use, far below one that
 * would exhaust the host's thread or process ids. A value over its
 * bound is rejected before any thread or process starts.
 */
inline constexpr u64 kMaxFlagThreads = 1024;
inline constexpr u64 kMaxFlagProcesses = 64;

/**
 * Parse @p text as a non-negative decimal integer no larger than
 * @p max: one or more digits, with no sign, whitespace or suffix.
 * @return false (leaving @p out untouched) on anything else.
 */
inline bool
parseDecimal(const char *text, u64 max, u64 &out)
{
    if (*text == '\0')
        return false;
    u64 value = 0;
    for (const char *c = text; *c != '\0'; ++c) {
        if (*c < '0' || *c > '9')
            return false;
        const u64 digit = static_cast<u64>(*c - '0');
        if (digit > max || value > (max - digit) / 10)
            return false;
        value = value * 10 + digit;
    }
    out = value;
    return true;
}

/**
 * Parse @p text as a non-negative decimal fraction no larger than
 * @p max: one or more digits, then optionally one '.' and one or more
 * digits, with no sign, exponent, whitespace or suffix — so never
 * NaN or infinite.
 * @return false (leaving @p out untouched) on anything else.
 */
inline bool
parseFraction(const char *text, double max, double &out)
{
    const auto digits = [](const char *c) {
        while (*c >= '0' && *c <= '9')
            ++c;
        return c;
    };
    const char *c = digits(text);
    if (c == text)
        return false;
    if (*c == '.') {
        const char *frac = c + 1;
        c = digits(frac);
        if (c == frac)
            return false;
    }
    if (*c != '\0')
        return false;
    // strtod reads exactly the digits checked above.
    const double value = std::strtod(text, nullptr);
    if (!(value <= max))
        return false;
    out = value;
    return true;
}

} // namespace mgx
