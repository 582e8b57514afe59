#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> gEpochs{1};

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Tracer::Tracer() : epoch_(gEpochs.fetch_add(1, std::memory_order_relaxed))
{
}

Tracer::Buffer &
Tracer::local()
{
    thread_local std::uint64_t epoch = 0;
    thread_local Buffer *buffer = nullptr;
    if (epoch != epoch_) {
        auto fresh = std::make_unique<Buffer>();
        fresh->spans.reserve(4096);
        std::lock_guard<std::mutex> lock(mu_);
        buffer = fresh.get();
        buffers_.push_back(std::move(fresh));
        epoch = epoch_;
    }
    return *buffer;
}

void
Tracer::record(const Span &span)
{
    local().spans.push_back(span);
}

std::vector<Span>
Tracer::collect() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> all;
    for (const auto &b : buffers_)
        all.insert(all.end(), b->spans.begin(), b->spans.end());
    return all;
}

std::vector<std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::size_t> index;
    index.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        index.emplace(spans[i].id, i);

    // Child intervals per parent, clipped to the parent's interval.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans.size());
    for (const Span &s : spans) {
        auto it = index.find(s.parent);
        if (s.parent == 0 || it == index.end())
            continue;
        const Span &p = spans[it->second];
        const std::int64_t lo = std::max(s.startNs, p.startNs);
        const std::int64_t hi = std::min(s.endNs, p.endNs);
        if (hi > lo)
            children[it->second].emplace_back(lo, hi);
    }

    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &iv = children[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t runLo = 0, runHi = 0;
        bool open = false;
        for (const auto &[lo, hi] : iv) {
            if (open && lo <= runHi) {
                runHi = std::max(runHi, hi);
                continue;
            }
            if (open)
                covered += runHi - runLo;
            runLo = lo;
            runHi = hi;
            open = true;
        }
        if (open)
            covered += runHi - runLo;
        self[i] = (spans[i].endNs - spans[i].startNs) - covered;
    }
    return self;
}

bool
writeSpans(const std::vector<Span> &spans, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::vector<std::int64_t> self = selfTimes(spans);
    std::fprintf(f, "id\tparent\trequest\ttag\tname\tstart_ns\tend_ns\t"
                    "self_ns\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f, "%llu\t%llu\t%llu\t%u\t%s\t%lld\t%lld\t%lld\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request), s.tag,
                     s.name, static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs),
                     static_cast<long long>(self[i]));
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
