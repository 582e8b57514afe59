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

MetaCache::MetaCache(u32 capacity_bytes, u32 ways) : ways_(ways)
{
    const u32 num_lines = capacity_bytes / kLineBytes;
    if (ways_ == 0 || num_lines % ways_ != 0)
        fatal("meta cache: %u lines not divisible into %u ways",
              num_lines, ways_);
    numSets_ = num_lines / ways_;
    if (!isPow2(numSets_))
        fatal("meta cache: set count %u must be a power of two", numSets_);
    lines_.resize(static_cast<std::size_t>(numSets_) * ways_);
    mru_.resize(numSets_);
    reset();
}

CacheResult
MetaCache::access(Addr addr, bool dirty, MetaClass cls, Memo *memo)
{
    const Addr line_addr = alignDown(addr, kLineBytes);
    const u32 set =
        static_cast<u32>((line_addr / kLineBytes) & (numSets_ - 1));
    Line *base = &lines_[static_cast<std::size_t>(set) * ways_];

    u32 way = 0;
    while (way < ways_ && !(base[way].valid && base[way].tag == line_addr))
        ++way;
    CacheResult result;
    if (way < ways_) {
        result.hit = true;
        base[way].dirty |= dirty;
        ++hits_;
    } else {
        // The LRU end: the first invalid way while any remains.
        way = base[mru_[set]].newer;
        Line &victim = base[way];
        if (victim.valid) {
            // Replacing a resident line: any memo armed for it is stale.
            ++generation_;
            if (victim.dirty) {
                result.writeback = true;
                result.victimAddr = victim.tag;
                result.victimClass = victim.cls;
                ++writebacks_;
            }
        }
        victim.tag = line_addr;
        victim.valid = true;
        victim.dirty = dirty;
        victim.cls = cls;
        ++misses_;
    }
    promote(set, way);
    if (memo != nullptr) {
        memo->line_ = &base[way];
        memo->set_ = set;
        memo->way_ = way;
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
    for (Memo *memo : memos) {
        assert(memo->generation_ == generation_ && memo->line_->valid &&
               memo->line_->tag == memo->addr_);
        promote(memo->set_, memo->way_);
        memo->line_->dirty |= dirty;
    }
    hits_ += rounds * memos.size();
}

MetaCache::LineView
MetaCache::inspect(Addr addr) const
{
    const Addr line_addr = alignDown(addr, kLineBytes);
    const u32 set =
        static_cast<u32>((line_addr / kLineBytes) & (numSets_ - 1));
    const Line *base = &lines_[static_cast<std::size_t>(set) * ways_];
    for (u32 w = 0; w < ways_; ++w) {
        if (base[w].valid && base[w].tag == line_addr) {
            u32 rank = 0;
            for (u32 v = mru_[set]; v != w; v = base[v].older)
                ++rank;
            return {true, base[w].dirty, w, rank};
        }
    }
    return {};
}

void
MetaCache::flush(std::vector<FlushedLine> &out)
{
    out.clear();
    for (const Line &line : lines_) {
        if (line.valid && line.dirty)
            out.push_back({line.tag, line.cls});
    }
    reset();
}

void
MetaCache::reset()
{
    // Way w's older neighbour is w - 1 and the MRU end is the last way,
    // so the LRU end — where a miss fills — is way 0, then way 1, ...
    for (u32 set = 0; set < numSets_; ++set) {
        Line *base = &lines_[static_cast<std::size_t>(set) * ways_];
        for (u32 w = 0; w < ways_; ++w)
            base[w] = {0, (w + ways_ - 1) % ways_, (w + 1) % ways_, false,
                       false, MetaClass::Vn};
        mru_[set] = ways_ - 1;
    }
    ++generation_;
}

} // namespace mgx::protection
