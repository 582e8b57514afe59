#include "log.h"

#include <cstdarg>

namespace mgx {
namespace detail {

void
warn(const char *fmt, ...)
{
    std::fprintf(stderr, "[mgx:warn] ");
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fputc('\n', stderr);
}

} // namespace detail

void
fatal(const char *fmt, ...)
{
    std::fprintf(stderr, "[mgx:fatal] ");
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fputc('\n', stderr);
    std::exit(1);
}

void
panic(const char *fmt, ...)
{
    std::fprintf(stderr, "[mgx:panic] ");
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fputc('\n', stderr);
    std::abort();
}

} // namespace mgx
