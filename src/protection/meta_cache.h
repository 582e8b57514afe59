/**
 * @file
 * The baseline scheme's on-chip VN/MAC/tree cache: set-associative,
 * LRU, write-back, write-allocate, 64-byte lines (paper §VI-A).
 *
 * Every resident line is tagged with the metadata class it caches
 * (VN, MAC, or integrity-tree), so dirty-victim writebacks — mid-run
 * evictions and the end-of-run flush alike — can be attributed to the
 * correct traffic category by the caller.
 *
 * Replacement: each set keeps one recency order of its ways, a
 * circular list whose MRU end the set names. A hit compares the set's
 * tags and promotes the way; a miss takes the way at the LRU end, so
 * victim choice is O(1). Lines are only invalidated all at once
 * (flush, reset), which also restores the initial order — way 0 at
 * the LRU end, then way 1, ... — so invalid ways always sit at the LRU
 * end in way order and the first empty way fills first.
 *
 * Hot-path note: consecutive data blocks usually map to the *same*
 * VN/MAC/tree line, so the baseline engine re-probes the same set for
 * the same tag millions of times. The Memo/touch() API short-circuits
 * that case: a memo remembers the line an access() resolved to, and
 * touch() replays exactly the hit path (promotion, dirty accumulation,
 * hit counter) without the tag compare. A memo self-invalidates when
 * its line is evicted — eviction bumps generation(), and a stale memo
 * fails the residency re-check — so the shortcut is bitwise-identical
 * to always probing. Promotion is idempotent per round: k rounds of
 * the same touches leave the order one round leaves, so touchRepeat()
 * collapses the blocks that share every metadata line of the block
 * before them into one round plus the counters.
 */

#ifndef MGX_PROTECTION_META_CACHE_H
#define MGX_PROTECTION_META_CACHE_H

#include <span>
#include <vector>

#include "common/types.h"

namespace mgx::protection {

/** Which metadata region a cached line belongs to. */
enum class MetaClass : u8 { Vn, Mac, Tree };

/** Human-readable class name (tests and stat dumps). */
const char *metaClassName(MetaClass cls);

/** Outcome of one cache access. */
struct CacheResult
{
    bool hit = false;
    bool writeback = false; ///< a dirty victim was evicted
    Addr victimAddr = 0;    ///< its line address, valid iff writeback
    MetaClass victimClass = MetaClass::Vn; ///< valid iff writeback
};

/** Set-associative write-back metadata cache. */
class MetaCache
{
  private:
    struct Line; // resident-line state, defined below

  public:
    static constexpr u32 kLineBytes = 64;

    /**
     * @param capacity_bytes total capacity (e.g. 32 KB)
     * @param ways           associativity
     */
    MetaCache(u32 capacity_bytes, u32 ways);

    /**
     * Probe-skipping handle to the line the last access() of one
     * request stream resolved to. Default-constructed memos never
     * match; passing one to access() arms it. Holders must not
     * outlive the cache.
     */
    class Memo
    {
      public:
        Memo() = default;

      private:
        friend class MetaCache;
        Line *line_ = nullptr;
        u32 set_ = 0;
        u32 way_ = 0;
        Addr addr_ = ~static_cast<Addr>(0); ///< armed line address
        u64 generation_ = 0; ///< eviction tick at arming/validation
    };

    /**
     * Access line containing @p addr. On a miss the line is allocated
     * (write-allocate), possibly evicting a dirty victim that the
     * caller must write back to DRAM.
     * @param dirty mark the line dirty (a metadata update)
     * @param cls   metadata class of the line being accessed
     * @param memo  when non-null, armed with the accessed line so a
     *              follow-up touch() of the same line skips the probe
     */
    CacheResult access(Addr addr, bool dirty,
                       MetaClass cls = MetaClass::Vn,
                       Memo *memo = nullptr);

    /**
     * Hit-path shortcut: when @p addr is @p memo's armed line and that
     * line is still resident, perform exactly what access() would do
     * on this (guaranteed) hit — promotion, dirty accumulation, hit
     * counter — without the tag compare, and return true. Returns
     * false with no state change otherwise; the caller then falls back
     * to access(). @p addr must be line-aligned, as every
     * MetadataLayout address is.
     */
    bool
    touch(Memo &memo, Addr addr, bool dirty)
    {
        if (addr != memo.addr_)
            return false;
        if (memo.generation_ != generation_) {
            // An eviction (or flush) happened since the memo was last
            // validated; it may have claimed this line. Re-check
            // residency and re-validate against the new generation.
            if (!memo.line_->valid || memo.line_->tag != addr)
                return false;
            memo.generation_ = generation_;
        }
        promote(memo.set_, memo.way_);
        memo.line_->dirty |= dirty;
        ++hits_;
        return true;
    }

    /**
     * @p rounds repetitions of the touch() sequence memos[0], ...,
     * memos[n-1] (each with @p dirty): one round of promotions, the
     * dirty bits, and rounds * n hits. Every memo must be armed at the
     * current generation — each just touched successfully, with no
     * eviction since — which makes every repeated touch a guaranteed
     * hit.
     */
    void touchRepeat(std::span<Memo *const> memos, u64 rounds, bool dirty);

    /**
     * Eviction tick: bumped whenever a resident line is replaced or
     * the cache is flushed/reset — i.e. whenever an armed memo may
     * have lost its line. Unchanged generation proves every resident
     * line is where it was.
     */
    u64 generation() const { return generation_; }

    /** A dirty line surrendered by flush(). */
    struct FlushedLine
    {
        Addr addr = 0;
        MetaClass cls = MetaClass::Vn;
    };

    /**
     * Flush all dirty lines into @p out (cleared first), in set then
     * way order, invalidating the whole cache. The caller owns @p out,
     * so steady-state flushes reuse its capacity instead of allocating
     * a fresh vector per call.
     */
    void flush(std::vector<FlushedLine> &out);

    /** Invalidate everything without writeback (new session). */
    void reset();

    u32 numSets() const { return numSets_; }

    /** Cumulative hit count. */
    u64 hits() const { return hits_; }

    /** Cumulative miss count. */
    u64 misses() const { return misses_; }

    /** Cumulative dirty-eviction count. */
    u64 writebacks() const { return writebacks_; }

    /** Placement and recency of one line, for inspection. */
    struct LineView
    {
        bool resident = false;
        bool dirty = false;
        u32 way = 0;  ///< way within its set
        u32 rank = 0; ///< recency rank in its set, 0 = most recent
    };

    /** State of the line containing @p addr (not an access). */
    LineView inspect(Addr addr) const;

  private:
    struct Line
    {
        Addr tag = 0;  ///< full line address
        u32 older = 0; ///< way one step toward the LRU end (circular)
        u32 newer = 0; ///< way one step toward the MRU end (circular)
        bool valid = false;
        bool dirty = false;
        MetaClass cls = MetaClass::Vn;
    };

    /** Make @p way the most recently used way of @p set. */
    void
    promote(u32 set, u32 way)
    {
        u32 &mru = mru_[set];
        if (way == mru)
            return;
        Line *base = &lines_[static_cast<std::size_t>(set) * ways_];
        const u32 lru = base[mru].newer;
        if (way != lru) {
            // Unlink, then splice in between the LRU and MRU ends. The
            // LRU way itself already sits there: moving the MRU mark
            // onto it is the whole promotion.
            Line &line = base[way];
            base[line.newer].older = line.older;
            base[line.older].newer = line.newer;
            line.older = mru;
            line.newer = lru;
            base[mru].newer = way;
            base[lru].older = way;
        }
        mru = way;
    }

    u32 ways_;
    u32 numSets_;
    u64 generation_ = 0;
    u64 hits_ = 0;
    u64 misses_ = 0;
    u64 writebacks_ = 0;
    std::vector<Line> lines_; ///< numSets_ x ways_, row-major
    std::vector<u32> mru_;    ///< per set: its most recently used way
};

} // namespace mgx::protection

#endif // MGX_PROTECTION_META_CACHE_H
