/**
 * @file
 * The Darwin control-processor kernel: schedules GACT tile batches and
 * generates VNs from two counters (paper §VII-A):
 *
 *  - CTR_genome increments per assembly; reference sequence, seed
 *    table and position table are written once per assembly and then
 *    read-only, so their VN is just CTR_genome.
 *  - CTR_query increments per query batch; query sequences (read) and
 *    traceback pointers (written once, sequentially) use the
 *    concatenation CTR_genome || CTR_query.
 */

#ifndef MGX_GENOME_GENOME_KERNEL_H
#define MGX_GENOME_GENOME_KERNEL_H

#include "core/kernel.h"
#include "gact.h"

namespace mgx::genome {

/** Control-processor kernel for one GACT workload. */
class GenomeKernel : public core::Kernel
{
  public:
    GenomeKernel(GactWorkload workload, GactConfig config = {},
                 u64 seed = 7);

    std::string name() const override { return workload_.name; }

    /** Stream one query batch (CTR_query bumps at stream creation),
     *  one GACT wave phase per chunk. */
    std::unique_ptr<core::PhaseSource> stream() override;

    /** VN value used for query/traceback data (tests). */
    Vn queryVn() const;

    /** On-chip VN state in bytes: CTR_genome and CTR_query, 8 each. */
    u64 vnStateBytes() const { return 2 * sizeof(Vn); }

  private:
    class Source; // the streaming producer (genome_kernel.cc)

    GactWorkload workload_;
    GactConfig config_;
    u64 seed_;

    // Address map (Fig. 15's regions).
    Addr referenceBase_ = 0;               ///< up to 4 GB
    Addr queryBase_ = 6ull << 30;          ///< query batches
    Addr tracebackBase_ = 12ull << 30;     ///< traceback pointers

    Vn ctrGenome_ = 1; ///< CTR_genome: this assembly
    Vn ctrQuery_ = 0;  ///< CTR_query: bumps per query batch
};

} // namespace mgx::genome

#endif // MGX_GENOME_GENOME_KERNEL_H
