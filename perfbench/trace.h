/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span is one call into a layer, timed from the benchmark's side of
 * the boundary: its name, start and end (steady_clock nanoseconds), the
 * span that caused it, a request id shared by every span of one served
 * request, and a small tag (the protection scheme of a replay span).
 * Threads append to their own buffer, so recording takes no lock after
 * a thread's first span; collect() merges the buffers once every
 * recording thread has been joined.
 *
 * A layer's self time is its span's duration minus the part of that
 * interval its child spans cover (selfTimes()).
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span
{
    const char *name = "";  ///< static string: "cell", "kernel.next", ...
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t request = 0; ///< served request id, 0 otherwise
    std::uint32_t tag = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/** Monotonic nanoseconds (steady_clock). */
std::int64_t nowNs();

class Tracer
{
  public:
    Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** A fresh span id (never 0). */
    std::uint64_t
    newId()
    {
        return next_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Append @p span to the calling thread's buffer. */
    void record(const Span &span);

    /** Every recorded span; call once all recording threads joined. */
    std::vector<Span> collect() const;

  private:
    struct Buffer
    {
        std::vector<Span> spans;
    };

    Buffer &local();

    std::atomic<std::uint64_t> next_{1};
    std::uint64_t epoch_; ///< distinguishes tracers in thread-locals
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<Buffer>> buffers_;
};

/** RAII span: starts on construction, records on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, std::uint64_t parent,
               std::uint64_t request = 0, std::uint32_t tag = 0)
        : tracer_(&tracer)
    {
        span_.name = name;
        span_.id = tracer.newId();
        span_.parent = parent;
        span_.request = request;
        span_.tag = tag;
        span_.startNs = nowNs();
    }

    ~ScopedSpan()
    {
        span_.endNs = nowNs();
        tracer_->record(span_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return span_.id; }

  private:
    Tracer *tracer_;
    Span span_;
};

/**
 * Self time of every span in @p spans (same order): its duration minus
 * the union of its children's intervals, each clipped to the parent's
 * interval. Overlapping children (a parent waiting on two threads) are
 * counted once.
 */
std::vector<std::int64_t> selfTimes(const std::vector<Span> &spans);

/** Write @p spans (with self times) as tab-separated text; false when
 *  the file cannot be written. */
bool writeSpans(const std::vector<Span> &spans, const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
