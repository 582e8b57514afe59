/**
 * @file
 * Minimal logging / fatal-error facility in the spirit of gem5's
 * base/logging.hh. `fatal` reports user-level configuration errors;
 * `panic` reports internal invariant violations and aborts.
 */

#ifndef MGX_COMMON_LOG_H
#define MGX_COMMON_LOG_H

#include <cstdio>
#include <cstdlib>
#include <string>

namespace mgx {

namespace detail {

/** Print "[mgx:warn] <message>" and a newline to stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace detail

/** Something may be mis-modelled but the run can continue. */
#define MGX_WARN(...) ::mgx::detail::warn(__VA_ARGS__)

/**
 * Unrecoverable user error (bad configuration, invalid workload):
 * print and exit(1).
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Internal invariant violation (a bug in MGX itself): print and abort().
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace mgx

#endif // MGX_COMMON_LOG_H
