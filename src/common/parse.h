/**
 * @file
 * Strict decimal parsing for command-line values.
 *
 * strtoul/strtol accept a sign and trailing junk and wrap or truncate
 * out-of-range input, and a cast to the option's type truncates once
 * more: "-1" turns into 4294967295 threads and port "99999" into
 * 34463. parseDecimal() accepts only what the option means.
 */
#pragma once

#include "common/types.h"

namespace mgx {

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

} // namespace mgx
