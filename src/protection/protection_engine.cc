#include "protection_engine.h"

#include <algorithm>

#include "common/bitops.h"
#include "common/log.h"

namespace mgx::protection {

namespace {
constexpr u32 kLine = MetadataLayout::kLineBytes;
} // namespace

ProtectionEngine::ProtectionEngine(const ProtectionConfig &cfg,
                                   dram::DramSystem *dram)
    : cfg_(cfg), layout_(cfg),
      timed_(std::make_unique<dram::TimedRecorder>(*dram, cfg.cryptoLatency)),
      recorder_(timed_.get()), cache_(cfg.metaCacheBytes, cfg.metaCacheWays)
{
}

ProtectionEngine::ProtectionEngine(const ProtectionConfig &cfg,
                                   dram::CommandRecorder *recorder)
    : cfg_(cfg), layout_(cfg), recorder_(recorder),
      cache_(cfg.metaCacheBytes, cfg.metaCacheWays)
{
}

u64 &
ProtectionEngine::trafficFor(MetaClass cls)
{
    switch (cls) {
      case MetaClass::Vn: return traffic_.vnBytes;
      case MetaClass::Mac: return traffic_.macBytes;
      case MetaClass::Tree: return traffic_.treeBytes;
    }
    return traffic_.treeBytes;
}

void
ProtectionEngine::mgxMacPath(const core::LogicalAccess &acc, u32 gran,
                             bool data_too)
{
    const bool is_write = acc.type == AccessType::Write;
    const Addr begin = alignDown(acc.addr, gran);
    const Addr end = alignUp(acc.addr + acc.bytes, gran);

    if (data_too) {
        // Verification (reads) and tag regeneration (writes) both need
        // whole MAC blocks, so the transfer expands to block bounds.
        const u64 expand = (end - begin) - acc.bytes;
        traffic_.dataBytes += acc.bytes;
        traffic_.expandBytes += expand;
        if (is_write && expand > 0) {
            // Partial edge blocks: fetch the untouched remainder first
            // so the new tags cover valid ciphertext (read-modify-write).
            if (begin < acc.addr)
                recorder_->range(begin, acc.addr - begin, false);
            const Addr data_end = acc.addr + acc.bytes;
            if (end > data_end)
                recorder_->range(data_end, end - data_end, false);
        }
        recorder_->range(begin, end - begin, is_write);
    }

    // Tag lines covering [begin, end): tagsPerLine consecutive MAC
    // blocks share one 64 B tag line, and consecutive lines are
    // contiguous. A read fetches every line; a write needs no fetch of
    // a line it covers in full, and only its first and last line can
    // be covered in part. In line order: the first line's
    // read-modify-write, one run over the rest, the last line's RMW.
    const u64 line_span = kLine / cfg_.macBytes * gran; // data per line
    const Addr first_line = layout_.macLineAddr(begin, gran);
    const Addr last_line = layout_.macLineAddr(end - 1, gran);
    const auto partial = [&](Addr line) {
        const Addr span_begin =
            ((line - first_line) / kLine + begin / line_span) * line_span;
        return begin > span_begin || end < span_begin + line_span;
    };
    const bool rmw_first = is_write && partial(first_line);
    const bool rmw_last =
        is_write && last_line != first_line && partial(last_line);
    const Addr run_begin = first_line + (rmw_first ? kLine : 0);
    const Addr run_end = last_line + (rmw_last ? 0 : kLine);
    traffic_.macBytes += (last_line - first_line) + kLine +
                         (u64{rmw_first} + u64{rmw_last}) * kLine;

    const auto rmw = [&](Addr line) {
        recorder_->range(line, kLine, false);
        recorder_->range(line, kLine, true);
    };
    if (rmw_first)
        rmw(first_line);
    if (run_end > run_begin)
        recorder_->range(run_begin, run_end - run_begin, is_write);
    if (rmw_last)
        rmw(last_line);
}

void
ProtectionEngine::baselinePath(const core::LogicalAccess &acc,
                               bool mac_per_block)
{
    const bool is_write = acc.type == AccessType::Write;
    const u32 gran = cfg_.baselineGranularity;
    const Addr begin = alignDown(acc.addr, gran);
    const Addr end = alignUp(acc.addr + acc.bytes, gran);
    traffic_.dataBytes += acc.bytes;
    traffic_.expandBytes += (end - begin) - acc.bytes;

    // The cache is consulted per block in program order, but the DRAM
    // requests go out grouped by region (data, then VN/tree, then MAC):
    // a FR-FCFS scheduler batches same-row metadata fetches the same
    // way, and interleaving them per block would thrash row buffers in
    // a way real controllers avoid. VN and tree lines are issued the
    // moment the cache resolves them, so only the MAC lines wait, as
    // one `line | write` word each.
    macWords_.clear();

    // Data blocks stream first, in address order, as one range. When
    // the protection block is not the DRAM block each protection block
    // is one request at its own address.
    if (gran == recorder_->blockBytes()) {
        recorder_->range(begin, end - begin, is_write);
    } else {
        for (Addr block = begin; block < end; block += gran)
            recorder_->line(block, is_write);
    }
    const auto issue = [&](Addr line, bool write, MetaClass cls) {
        trafficFor(cls) += kLine;
        recorder_->line(line, write);
    };
    const auto defer = [&](Addr line, bool write, MetaClass cls) {
        trafficFor(cls) += kLine;
        macWords_.push_back(line | u64{write});
    };

    // Metadata addresses stream incrementally: one VN line covers
    // kLine/vnBytes consecutive blocks, one level-1 node treeArity VN
    // lines, one MAC line kLine/macBytes blocks.
    MetadataLayout::BaselineWalker meta = layout_.baselineWalker(begin);

    // The memos a block touches, in touch order; a block whose
    // lookups all hit them hands the blocks that share its lines to
    // one MetaCache::touchRepeat.
    const u32 levels = layout_.treeLevels();
    MetaCache::Memo *memos[3] = {&vnMemo_};
    std::size_t num_memos = 1;
    if (levels != 0)
        memos[num_memos++] = &treeMemo_;
    if (mac_per_block)
        memos[num_memos++] = &macMemo_;

    const u64 blocks = (end - begin) / gran;
    for (u64 i = 0; i < blocks; ++i, meta.next()) {
        const Addr block = begin + i * gran;
        bool all_touched = true;

        // VN line (write-allocate RMW on stores). The memoized line
        // from the previous block short-circuits the probe; touch()
        // is exactly the hit path, so a successful touch is the same
        // guaranteed hit the probe would have produced.
        const Addr vn_line = meta.vnLine();
        if (!cache_.touch(vnMemo_, vn_line, is_write)) {
            all_touched = false;
            CacheResult r = cache_.access(vn_line, is_write,
                                          MetaClass::Vn, &vnMemo_);
            if (!r.hit)
                issue(vn_line, false, MetaClass::Vn);
            if (r.writeback)
                issue(r.victimAddr, true, r.victimClass);
        }

        // Tree walk: climb until a cached (trusted) ancestor is found.
        // The memo covers the dominant resident-level-1 case — one
        // touch instead of the climb's first probe. Deeper levels stay
        // unmemoized on purpose: skipping a level-k probe because a
        // higher ancestor was resident last time would also skip that
        // level's allocation, which is a model change, not a speedup.
        if (levels != 0 &&
            !cache_.touch(treeMemo_, meta.treeNode1(), is_write)) {
            all_touched = false;
            for (u32 level = 1; level <= levels; ++level) {
                const Addr node = level == 1
                                      ? meta.treeNode1()
                                      : layout_.treeNodeAddr(level, block);
                CacheResult r =
                    cache_.access(node, is_write, MetaClass::Tree,
                                  level == 1 ? &treeMemo_ : nullptr);
                if (r.writeback)
                    issue(r.victimAddr, true, r.victimClass);
                if (r.hit)
                    break;
                issue(node, false, MetaClass::Tree);
            }
        }

        // Per-block MAC line (BP only; MGX_MAC takes the coarse path).
        if (mac_per_block) {
            const Addr mac_line = meta.macLine();
            if (!cache_.touch(macMemo_, mac_line, is_write)) {
                all_touched = false;
                CacheResult r = cache_.access(mac_line, is_write,
                                              MetaClass::Mac, &macMemo_);
                if (!r.hit)
                    defer(mac_line, false, MetaClass::Mac);
                if (r.writeback)
                    defer(r.victimAddr, true, r.victimClass);
            }
        }

        // Every lookup was a memo hit, so nothing was evicted and all
        // memos are armed: the following blocks on the same lines
        // would each repeat exactly these touches.
        if (all_touched) {
            const u64 k =
                std::min(meta.sameLineBlocks(mac_per_block), blocks - 1 - i);
            cache_.touchRepeat({memos, num_memos}, k, is_write);
            meta.advance(k);
            i += k;
        }
    }
    for (const u64 word : macWords_)
        recorder_->line(word & ~u64{1}, (word & 1) != 0);
}

Cycles
ProtectionEngine::access(const core::LogicalAccess &acc, Cycles arrival)
{
    if (acc.bytes == 0)
        return arrival;
    ++logicalAccesses_;
    if (timed_ != nullptr)
        timed_->player.start(arrival);
    // AES-CTR pipeline: decryption begins once ciphertext arrives; the
    // keystream was precomputed from (addr, VN), so only the final XOR
    // and MAC check trail the last burst. A protected read's commands
    // carry the crypto tag, and the player adds this latency to their
    // completions; every such read issues its data blocks.
    recorder_->setCrypto(acc.type == AccessType::Read &&
                         cfg_.scheme != Scheme::NP);

    switch (cfg_.scheme) {
      case Scheme::NP:
        traffic_.dataBytes += acc.bytes;
        recorder_->range(acc.addr, acc.bytes,
                         acc.type == AccessType::Write);
        break;
      case Scheme::MGX:
      case Scheme::MGX_VN:
        mgxMacPath(acc, cfg_.effectiveMacGranularity(acc.macGranularity),
                   true);
        break;
      case Scheme::BP:
        baselinePath(acc, true);
        break;
      case Scheme::MGX_MAC:
        baselinePath(acc, false);
        mgxMacPath(acc, cfg_.effectiveMacGranularity(acc.macGranularity),
                   false);
        break;
    }
    return timed_ != nullptr ? timed_->finish() : arrival;
}

Cycles
ProtectionEngine::flush(Cycles arrival)
{
    if (timed_ != nullptr)
        timed_->player.start(arrival);
    if (cfg_.usesMetaCache()) {
        // Each dirty line writes back charged to its own metadata
        // class — a VN or MAC victim is not tree traffic.
        cache_.flush(flushScratch_);
        recorder_->setCrypto(false);
        for (const MetaCache::FlushedLine &line : flushScratch_) {
            trafficFor(line.cls) += kLine;
            recorder_->line(line.addr, true);
        }
    }
    return timed_ != nullptr ? timed_->finish() : arrival;
}

} // namespace mgx::protection
