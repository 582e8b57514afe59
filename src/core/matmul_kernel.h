/**
 * @file
 * The tiled matrix-multiplication kernel of paper §III-C / Fig. 4.
 *
 * C[M x N] = A[M x K] * B[K x N], with the K dimension split into
 * `kTiles` partial-sum rounds. Within one round every C tile is written
 * exactly once, so all C tiles share one VN value that increments once
 * per round — exactly the schedule of Fig. 4(c). That value is the
 * kernel's one on-chip VN counter.
 */

#ifndef MGX_CORE_MATMUL_KERNEL_H
#define MGX_CORE_MATMUL_KERNEL_H

#include "kernel.h"

namespace mgx::core {

/** Shape and schedule parameters of the tiled MatMul. */
struct MatMulParams
{
    u64 m = 512;          ///< rows of A / C
    u64 n = 512;          ///< cols of B / C
    u64 k = 512;          ///< inner dimension
    u64 mTiles = 1;       ///< tiling of the M dimension
    u64 nTiles = 2;       ///< tiling of the N dimension
    u64 kTiles = 2;       ///< partial-sum rounds over K
    u32 elemBytes = 4;
    u64 peCount = 1024;   ///< MAC units, for the compute-cycle model
    Addr baseA = 0;       ///< where A lives in protected memory
    Addr baseB = 1ull << 24;
    Addr baseC = 1ull << 25;
    Vn initialVn = 0;     ///< the VN counter's value before the first run
};

/** Fig. 4's kernel: generates the VN-annotated trace of the schedule. */
class MatMulKernel : public Kernel
{
  public:
    explicit MatMulKernel(const MatMulParams &params);

    std::string name() const override { return "tiled-matmul"; }

    /**
     * Stream the schedule's phases. The first emitted phase writes A
     * and B with the VN counter's value as the run starts (initialVn
     * on the first run), modeling the session setup that loads the
     * operands into protected memory; the rounds read them back with
     * that VN.
     */
    std::unique_ptr<PhaseSource> stream() override;

    /** VN the final C tiles were written with (initialVn + kTiles
     *  after one run). */
    Vn finalOutputVn() const;

    const MatMulParams &params() const { return params_; }

  private:
    class Source; // the streaming producer (matmul_kernel.cc)

    Addr tileAddrA(u64 mi, u64 ki) const;
    Addr tileAddrB(u64 ki, u64 ni) const;
    Addr tileAddrC(u64 mi, u64 ni) const;

    MatMulParams params_;
    Vn vn_; ///< the VN counter: C's VN, bumped once per K round
};

} // namespace mgx::core

#endif // MGX_CORE_MATMUL_KERNEL_H
