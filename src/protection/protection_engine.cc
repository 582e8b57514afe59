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
    : cfg_(cfg), layout_(cfg), dram_(dram),
      blockBytes_(dram->blockBytes()), stats_("protection"),
      cache_(cfg.metaCacheBytes, cfg.metaCacheWays, &stats_),
      statLogicalAccesses_(stats_.counter("logical_accesses"))
{
}

ProtectionEngine::ProtectionEngine(const ProtectionConfig &cfg,
                                   dram::CommandRecorder *recorder)
    : cfg_(cfg), layout_(cfg), recorder_(recorder),
      blockBytes_(recorder->blockBytes()), stats_("protection"),
      cache_(cfg.metaCacheBytes, cfg.metaCacheWays, &stats_),
      statLogicalAccesses_(stats_.counter("logical_accesses"))
{
}

Cycles
ProtectionEngine::issueRange(Addr addr, u64 bytes, bool is_write,
                             Cycles arrival)
{
    if (recorder_ != nullptr) {
        recorder_->range(addr, bytes, is_write);
        return arrival;
    }
    return dram_->accessRange(addr, bytes, is_write, arrival);
}

Cycles
ProtectionEngine::issueLine(Addr line, bool is_write, Cycles arrival)
{
    if (recorder_ != nullptr) {
        recorder_->line(line, is_write);
        return arrival;
    }
    return dram_->access({line, is_write, arrival});
}

Cycles
ProtectionEngine::issueBatch(std::span<const dram::Request> reqs)
{
    if (recorder_ != nullptr) {
        for (const dram::Request &req : reqs)
            recorder_->line(req.addr, req.isWrite);
        return 0; // accessBatch's value for "no completion"
    }
    return dram_->accessBatch(reqs);
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

Cycles
ProtectionEngine::mgxMacPath(const core::LogicalAccess &acc, u32 gran,
                             Cycles arrival, bool data_too)
{
    const bool is_write = acc.type == AccessType::Write;
    const Addr begin = alignDown(acc.addr, gran);
    const Addr end = alignUp(acc.addr + acc.bytes, gran);
    Cycles done = arrival;

    if (data_too) {
        // Verification (reads) and tag regeneration (writes) both need
        // whole MAC blocks, so the transfer expands to block bounds.
        const u64 expand = (end - begin) - acc.bytes;
        traffic_.dataBytes += acc.bytes;
        traffic_.expandBytes += expand;
        if (is_write && expand > 0) {
            // Partial edge blocks: fetch the untouched remainder first
            // so the new tags cover valid ciphertext (read-modify-write).
            if (begin < acc.addr) {
                done = std::max(done, issueRange(begin, acc.addr - begin,
                                                 false, arrival));
            }
            const Addr data_end = acc.addr + acc.bytes;
            if (end > data_end) {
                done = std::max(done, issueRange(data_end, end - data_end,
                                                 false, arrival));
            }
        }
        done = std::max(done,
                        issueRange(begin, end - begin, is_write, arrival));
    }

    // Tag lines covering [begin, end). tagsPerLine consecutive MAC
    // blocks share one 64 B tag line. Consecutive tag lines are
    // contiguous, so when timed they decode incrementally when they
    // coincide with DRAM blocks (the ubiquitous 64 B case); otherwise
    // each line is decoded from its address.
    const u64 tags_per_line = kLine / cfg_.macBytes;
    const u64 line_span = tags_per_line * gran; // data bytes per tag line
    const Addr first_line = layout_.macLineAddr(begin, gran);
    const Addr last_line = layout_.macLineAddr(end - 1, gran);
    const bool walk = recorder_ == nullptr && blockBytes_ == kLine;
    dram::AddressMap::LineWalker walker =
        walk ? dram_->map().walkerAt(first_line)
             : dram::AddressMap::LineWalker{};
    for (Addr line = first_line; line <= last_line; line += kLine) {
        const auto issueTag = [&](bool write) {
            traffic_.macBytes += kLine;
            return walk ? dram_->accessCoord(walker.coord(), write,
                                             arrival)
                        : issueLine(line, write, arrival);
        };
        if (!is_write) {
            done = std::max(done, issueTag(false));
        } else {
            // A tag line fully regenerated by this write needs no
            // fetch; a partially covered one is read-modify-written.
            const u64 line_idx = (line - first_line) / kLine +
                                 begin / line_span;
            const Addr span_begin = line_idx * line_span;
            const Addr span_end = span_begin + line_span;
            const bool full = begin <= span_begin && end >= span_end;
            if (!full)
                done = std::max(done, issueTag(false));
            done = std::max(done, issueTag(true));
        }
        if (walk)
            walker.next();
    }
    return done;
}

Cycles
ProtectionEngine::baselinePath(const core::LogicalAccess &acc,
                               Cycles arrival, bool mac_per_block)
{
    const bool is_write = acc.type == AccessType::Write;
    const u32 gran = cfg_.baselineGranularity;
    const Addr begin = alignDown(acc.addr, gran);
    const Addr end = alignUp(acc.addr + acc.bytes, gran);
    traffic_.dataBytes += acc.bytes;
    traffic_.expandBytes += (end - begin) - acc.bytes;

    // The cache is consulted per block in program order, but the DRAM
    // requests are issued grouped by region (data, then VN/tree, then
    // MAC): a FR-FCFS scheduler batches same-row metadata fetches the
    // same way, and interleaving them per block would thrash row
    // buffers in a way real controllers avoid.
    metaReqs_.clear();
    macReqs_.clear();

    // Data blocks stream first, in address order. The cache loop below
    // issues no DRAM request (its misses are deferred), so the data
    // go out as one range ahead of it with the same command order.
    // When the protection block is not the DRAM block each protection
    // block is one request at its own address.
    Cycles done = arrival;
    if (gran == blockBytes_) {
        done = issueRange(begin, end - begin, is_write, arrival);
    } else {
        for (Addr block = begin; block < end; block += gran)
            done = std::max(done, issueLine(block, is_write, arrival));
    }

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
            if (!r.hit) {
                metaReqs_.push_back({vn_line, false, arrival});
                traffic_.vnBytes += kLine;
            }
            if (r.writeback) {
                metaReqs_.push_back({r.victimAddr, true, arrival});
                trafficFor(r.victimClass) += kLine;
            }
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
                if (r.writeback) {
                    metaReqs_.push_back({r.victimAddr, true, arrival});
                    trafficFor(r.victimClass) += kLine;
                }
                if (r.hit)
                    break;
                metaReqs_.push_back({node, false, arrival});
                traffic_.treeBytes += kLine;
            }
        }

        // Per-block MAC line (BP only; MGX_MAC takes the coarse path).
        if (mac_per_block) {
            const Addr mac_line = meta.macLine();
            if (!cache_.touch(macMemo_, mac_line, is_write)) {
                all_touched = false;
                CacheResult r = cache_.access(mac_line, is_write,
                                              MetaClass::Mac, &macMemo_);
                if (!r.hit) {
                    macReqs_.push_back({mac_line, false, arrival});
                    traffic_.macBytes += kLine;
                }
                if (r.writeback) {
                    macReqs_.push_back({r.victimAddr, true, arrival});
                    trafficFor(r.victimClass) += kLine;
                }
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
    done = std::max(done, issueBatch(metaReqs_));
    done = std::max(done, issueBatch(macReqs_));
    return done;
}

Cycles
ProtectionEngine::access(const core::LogicalAccess &acc, Cycles arrival)
{
    if (acc.bytes == 0)
        return arrival;
    statLogicalAccesses_.add();
    const bool decrypts =
        acc.type == AccessType::Read && cfg_.scheme != Scheme::NP;
    if (recorder_ != nullptr)
        recorder_->setCrypto(decrypts);

    Cycles done = arrival;
    switch (cfg_.scheme) {
      case Scheme::NP:
        traffic_.dataBytes += acc.bytes;
        done = issueRange(acc.addr, acc.bytes,
                          acc.type == AccessType::Write, arrival);
        break;
      case Scheme::MGX:
      case Scheme::MGX_VN:
        done = mgxMacPath(acc,
                          cfg_.effectiveMacGranularity(acc.macGranularity),
                          arrival, true);
        break;
      case Scheme::BP:
        done = baselinePath(acc, arrival, true);
        break;
      case Scheme::MGX_MAC:
        done = baselinePath(acc, arrival, false);
        done = std::max(
            done,
            mgxMacPath(acc,
                       cfg_.effectiveMacGranularity(acc.macGranularity),
                       arrival, false));
        break;
    }

    // AES-CTR pipeline: decryption begins once ciphertext arrives; the
    // keystream was precomputed from (addr, VN), so only the final XOR
    // and MAC check trail the last burst. Every protected read issues
    // its data blocks, so a recorded one always carries crypto-tagged
    // commands for the timer to add this latency to.
    if (decrypts)
        done += cfg_.cryptoLatency;
    return done;
}

Cycles
ProtectionEngine::flush(Cycles arrival)
{
    Cycles done = arrival;
    if (cfg_.usesMetaCache()) {
        // Each dirty line writes back charged to its own metadata
        // class — a VN or MAC victim is not tree traffic.
        cache_.flush(flushScratch_);
        metaReqs_.clear();
        for (const MetaCache::FlushedLine &line : flushScratch_) {
            metaReqs_.push_back({line.addr, true, arrival});
            trafficFor(line.cls) += kLine;
        }
        if (recorder_ != nullptr)
            recorder_->setCrypto(false);
        done = std::max(done, issueBatch(metaReqs_));
    }
    return done;
}

} // namespace mgx::protection
