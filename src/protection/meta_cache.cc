#include "meta_cache.h"

#include <cassert>

#include "common/bitops.h"
#include "common/log.h"

namespace mgx::protection {

const char *
metaClassName(MetaClass cls)
{
    switch (cls) {
      case MetaClass::Vn: return "vn";
      case MetaClass::Mac: return "mac";
      case MetaClass::Tree: return "tree";
    }
    return "?";
}

MetaCache::MetaCache(u32 capacity_bytes, u32 ways, StatGroup *stats)
    : ways_(ways)
{
    const u32 num_lines = capacity_bytes / kLineBytes;
    if (ways_ == 0 || num_lines % ways_ != 0)
        fatal("meta cache: %u lines not divisible into %u ways",
              num_lines, ways_);
    numSets_ = num_lines / ways_;
    if (!isPow2(numSets_))
        fatal("meta cache: set count %u must be a power of two", numSets_);
    lines_.resize(static_cast<std::size_t>(numSets_) * ways_);
    if (stats != nullptr) {
        statHits_ = stats->counter("meta_cache_hits");
        statMisses_ = stats->counter("meta_cache_misses");
        statWritebacks_ = stats->counter("meta_cache_writebacks");
    }
}

CacheResult
MetaCache::access(Addr addr, bool dirty, MetaClass cls, Memo *memo)
{
    const Addr line_addr = alignDown(addr, kLineBytes);
    const u32 set =
        static_cast<u32>((line_addr / kLineBytes) & (numSets_ - 1));
    Line *base = &lines_[static_cast<std::size_t>(set) * ways_];
    ++tick_;

    // One pass finds the hit or the replacement victim — the LRU way,
    // preferring the first invalid one. The fused scan picks the same
    // victim a separate scan would: once an invalid way is seen the
    // victim is pinned there, exactly where a dedicated loop would
    // have stopped.
    Line *victim = base;
    bool invalid_found = false;
    for (u32 w = 0; w < ways_; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == line_addr) {
            line.lruTick = tick_;
            line.dirty |= dirty;
            statHits_.add();
            if (memo != nullptr) {
                memo->line_ = &line;
                memo->addr_ = line_addr;
                memo->generation_ = generation_;
            }
            return {true, false, 0, MetaClass::Vn};
        }
        if (invalid_found)
            continue;
        if (!line.valid) {
            victim = &line;
            invalid_found = true;
        } else if (line.lruTick < victim->lruTick) {
            victim = &line;
        }
    }

    CacheResult result;
    result.hit = false;
    if (victim->valid) {
        // Replacing a resident line: any memo armed for it is stale.
        ++generation_;
        if (victim->dirty) {
            result.writeback = true;
            result.victimAddr = victim->tag;
            result.victimClass = victim->cls;
            statWritebacks_.add();
        }
    }
    victim->valid = true;
    victim->dirty = dirty;
    victim->cls = cls;
    victim->tag = line_addr;
    victim->lruTick = tick_;
    statMisses_.add();
    if (memo != nullptr) {
        memo->line_ = victim;
        memo->addr_ = line_addr;
        memo->generation_ = generation_;
    }
    return result;
}

void
MetaCache::touchRepeat(std::span<Memo *const> memos, u64 rounds,
                       bool dirty)
{
    if (rounds == 0)
        return;
    // Round r's touch of memo p would tick tick_ + r * n + p + 1.
    const u64 n = memos.size();
    const u64 last_round = tick_ + (rounds - 1) * n;
    for (u64 p = 0; p < n; ++p) {
        Line &line = *memos[p]->line_;
        assert(memos[p]->generation_ == generation_ && line.valid &&
               line.tag == memos[p]->addr_);
        line.lruTick = last_round + p + 1;
        line.dirty |= dirty;
    }
    tick_ += rounds * n;
    statHits_.add(rounds * n);
}

MetaCache::LineView
MetaCache::inspect(Addr addr) const
{
    const Addr line_addr = alignDown(addr, kLineBytes);
    const u32 set =
        static_cast<u32>((line_addr / kLineBytes) & (numSets_ - 1));
    const Line *base = &lines_[static_cast<std::size_t>(set) * ways_];
    for (u32 w = 0; w < ways_; ++w) {
        if (base[w].valid && base[w].tag == line_addr)
            return {true, base[w].dirty, base[w].lruTick};
    }
    return {};
}

void
MetaCache::flush(std::vector<FlushedLine> &out)
{
    out.clear();
    for (auto &line : lines_) {
        if (line.valid && line.dirty)
            out.push_back({line.tag, line.cls});
        line.valid = false;
        line.dirty = false;
    }
    ++generation_;
}

void
MetaCache::reset()
{
    for (auto &line : lines_) {
        line.valid = false;
        line.dirty = false;
    }
    ++generation_;
}

} // namespace mgx::protection
