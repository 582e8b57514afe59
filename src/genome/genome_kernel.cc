#include "genome_kernel.h"

#include <algorithm>
#include <cstdio>

#include "common/bitops.h"
#include "common/rng.h"
#include "core/counter.h"

namespace mgx::genome {

using core::makeVn;
using core::Phase;

GenomeKernel::GenomeKernel(GactWorkload workload, GactConfig config,
                           u64 seed)
    : workload_(std::move(workload)), config_(config), seed_(seed)
{
}

Vn
GenomeKernel::queryVn() const
{
    return (ctrGenome_ << 32) | ctrQuery_;
}

/**
 * Streaming producer: one GACT wave phase per chunk. The per-read
 * alignment loci (the schedule metadata — 8 bytes per read, not the
 * trace) are drawn at stream creation in the same Rng order the
 * materializing loop used, and CTR_query bumps there too, so the
 * emitted phase sequence and end state are identical.
 */
class GenomeKernel::Source final : public core::PhaseSource
{
  public:
    explicit Source(GenomeKernel &kernel) : k_(&kernel)
    {
        Rng rng(k_->seed_);

        // One new query batch per stream() call.
        ++k_->ctrQuery_;
        vnRef_ = makeVn(DataClass::GenomeTable, k_->ctrGenome_);
        vnQuery_ = makeVn(DataClass::GenomeQuery, k_->queryVn());

        // Tiles per read: a chain along the read, with error-driven
        // overlap (higher error rate -> smaller effective step ->
        // more tiles).
        const double step =
            static_cast<double>(k_->config_.tileBases) *
            std::max(0.2, 1.0 - 2.0 * k_->workload_.profile.errorRate);
        tilesPerRead_ = std::max<u64>(
            1,
            static_cast<u64>(k_->workload_.profile.meanReadLen / step));

        // Each read aligns at one random locus; its tile chain then
        // walks the reference sequentially from there (GACT extends
        // tile by tile along the alignment). Each GACT array processes
        // one read's chain, so a "wave" takes the next tile of up to
        // `arrays` reads.
        const u64 ref_span =
            std::max<u64>(k_->workload_.referenceBases / 2, 1);
        locus_.resize(k_->workload_.numReads);
        for (auto &l : locus_)
            l = alignDown(k_->referenceBase_ + rng.below(ref_span), 64);

        traceback_ = k_->tracebackBase_;
    }

    bool
    nextChunk(core::PhaseSink &sink) override
    {
        const GactConfig &cfg = k_->config_;
        const u64 num_reads = k_->workload_.numReads;
        if (batch_ >= num_reads)
            return false;

        const u64 reads = std::min<u64>(cfg.arrays, num_reads - batch_);
        // Formatted into a flat buffer: string concatenation here
        // trips GCC 12's -Wrestrict false positive (PR105651).
        char name[48];
        std::snprintf(name, sizeof name, "b%llu.w%llu",
                      static_cast<unsigned long long>(batch_ /
                                                      cfg.arrays),
                      static_cast<unsigned long long>(t_));
        scratch_.name = name;
        scratch_.computeCycles = cfg.tileComputeCycles();
        scratch_.accesses.clear();
        for (u64 r = 0; r < reads; ++r) {
            // Reference chunk: sequential within the read's chain.
            const Addr ref_addr =
                locus_[batch_ + r] + t_ * cfg.refChunkBytes;
            scratch_.accesses.push_back({ref_addr, cfg.refChunkBytes,
                                         vnRef_, AccessType::Read,
                                         DataClass::GenomeTable, 64});
            // Query chunk: sequential within the batch.
            scratch_.accesses.push_back(
                {k_->queryBase_ + queryOff_, cfg.queryChunkBytes,
                 vnQuery_, AccessType::Read, DataClass::GenomeQuery,
                 64});
            queryOff_ += cfg.queryChunkBytes;
            // Traceback pointers: written once, sequentially.
            scratch_.accesses.push_back(
                {traceback_, cfg.tracebackBytesPerTile, vnQuery_,
                 AccessType::Write, DataClass::GenomeQuery, 64});
            traceback_ += cfg.tracebackBytesPerTile;
        }
        sink.consume(scratch_);

        if (++t_ == tilesPerRead_) {
            t_ = 0;
            batch_ += cfg.arrays;
        }
        return batch_ < num_reads;
    }

  private:
    GenomeKernel *k_;
    Vn vnRef_ = 0;
    Vn vnQuery_ = 0;
    u64 tilesPerRead_ = 1;
    std::vector<Addr> locus_;
    Addr traceback_ = 0;
    u64 queryOff_ = 0;
    u64 batch_ = 0;
    u64 t_ = 0;
    Phase scratch_;
};

std::unique_ptr<core::PhaseSource>
GenomeKernel::stream()
{
    return std::make_unique<Source>(*this);
}

} // namespace mgx::genome
