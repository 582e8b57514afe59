/**
 * @file
 * The DNN accelerator kernel: schedules a model onto the systolic
 * array, manages the feature/weight/gradient address map, and — the
 * MGX contribution — generates every access's version number from
 * on-chip state exactly as paper §IV-C prescribes:
 *
 *  - VN_F: one entry per layer output (the `vn` of its features_
 *    entry); the value comes from a global monotonic feature counter,
 *    bumped once per DRAM write of the tensor (so K-tiled layers that
 *    rewrite their output t times use t successive values — Fig. 7).
 *  - VN_W: one register for all weights; constant during inference.
 *  - VN_G: one entry per gradient tensor during backpropagation (the
 *    `vn` of its gradients_ entry), from a global gradient counter
 *    (Fig. 8b).
 *  - VN_input: bumps once per run, as a new input arrives.
 *
 * Feature buffers are recycled once all consumers have read them, so
 * the same DRAM addresses are reused across layers with strictly
 * increasing VNs — the property the InvariantChecker validates.
 */

#ifndef MGX_DNN_DNN_KERNEL_H
#define MGX_DNN_DNN_KERNEL_H

#include <map>
#include <optional>

#include "core/kernel.h"
#include "layer.h"
#include "systolic.h"

namespace mgx::dnn {

/** Inference (forward only) or training (forward + backward). */
enum class DnnTask { Inference, Training };

/** A simple first-fit allocator over the feature region. */
class RegionAllocator
{
  public:
    RegionAllocator(Addr base, u64 size, u64 align = 4096);

    /** Allocate @p bytes; fatal on exhaustion. */
    Addr alloc(u64 bytes);

    /** Return a block to the free list (coalescing neighbours). */
    void free(Addr addr);

  private:
    struct Block { Addr addr; u64 size; };
    Addr base_;
    u64 align_;
    u64 liveBytes_ = 0;
    std::vector<Block> freeList_;          ///< sorted by address
    std::map<Addr, u64> allocated_;        ///< addr -> size
};

/** Where each tensor of the run lives and its current VN value. */
struct TensorInfo
{
    Addr addr = 0;
    u64 bytes = 0;
    Vn vn = 0;       ///< raw VN value of the last completed write
    u32 writes = 0;  ///< times written so far (t in Fig. 7)
};

/** The control-processor program for one DNN workload. */
class DnnKernel : public core::Kernel
{
  public:
    /**
     * @param model  network description
     * @param accel  array dimensions / SRAM / clock
     * @param task   inference or training
     * @param batch  0 = the model's default batch
     * @param seed   RNG seed for embedding-lookup synthesis
     */
    DnnKernel(Model model, DnnAccelConfig accel,
              DnnTask task = DnnTask::Inference, u32 batch = 0,
              u64 seed = 1);

    std::string name() const override;

    /** Stream one forward (+ backward when training) pass, one layer's
     *  phases per chunk. */
    std::unique_ptr<core::PhaseSource> stream() override;

    /**
     * On-chip VN state footprint in bytes, 8 per register or table
     * entry (paper: ~1 KB for 127 layers): a VN_F entry per layer, the
     * VN_F counter, VN_W and VN_input; training adds a VN_G entry per
     * layer and the VN_G counter.
     */
    u64 vnStateBytes() const;

    /**
     * Per-layer feature density for pruning studies (paper §VII-B):
     * fraction of output feature bytes actually written/read. 1.0 =
     * dense. Values < 1 emit accesses only for the unpruned prefix of
     * each tile while keeping the same shared VN_F.
     */
    void setFeatureDensity(double density);

    const Model &model() const { return model_; }
    u32 batch() const { return batch_; }

    /**
     * Feature-region bytes one run allocates, summed as if nothing
     * were ever freed: the input, every layer output and, in training,
     * the loss gradient and each input gradient, each at its aligned
     * size. When this is at most featureRegionBytes(), first-fit
     * allocation cannot fail: the region's untouched top always holds
     * everything still to be allocated.
     */
    u64 featureDemandBytes() const;

    /** Size of the region feature and gradient tensors share. */
    static u64 featureRegionBytes();

  private:
    class Source; // the streaming producer (dnn_kernel.cc)

    /** Reset per-run state (address map, tensor table, consumer
     *  counts) and bump VN_input. */
    void beginRun();

    /** Emit the phases of one forward layer into @p sink. */
    void emitForwardLayer(std::size_t idx, core::PhaseSink &sink);

    /** Emit the phases of one backward layer into @p sink. */
    void emitBackwardLayer(std::size_t idx, core::PhaseSink &sink);

    /** Read accesses for layer inputs (features or model input). */
    void pushInputReads(const Layer &l, core::AccessList &out);

    /** Weight-read access for layer @p idx (if it has weights). */
    void pushWeightRead(std::size_t idx, core::AccessList &out);

    /** Scale bytes by the pruning density (64 B floor). */
    u64 prunedBytes(u64 bytes) const;

    /** Bytes of the external input tensor at this batch. */
    u64 inputTensorBytes() const;

    /** Dense bytes of layer @p idx's output at this batch. */
    u64 outputTensorBytes(std::size_t idx) const;

    Model model_;
    DnnAccelConfig accel_;
    DnnTask task_;
    u32 batch_;
    u64 seed_;
    double density_ = 1.0;

    // Address map.
    Addr weightBase_ = 0;
    std::vector<Addr> weightAddr_;    ///< per layer (0 if none)
    std::optional<RegionAllocator> featureAlloc_;
    std::vector<TensorInfo> features_;   ///< per layer output
    std::vector<TensorInfo> gradients_;  ///< per layer d(output)
    std::vector<int> remainingUses_;     ///< consumers not yet run
    Addr inputAddr_ = 0;              ///< the external input tensor
    u64 inputBytes_ = 0;

    // On-chip VN registers; the per-tensor VNs live in features_ and
    // gradients_.
    Vn vnF_ = 0;     ///< the VN_F counter: last feature VN handed out
    Vn vnG_ = 0;     ///< the VN_G counter: last gradient VN handed out
    Vn vnW_ = 1;     ///< VN_W: weights loaded once at setup
    Vn vnInput_ = 0; ///< VN_input: bumps per run
};

} // namespace mgx::dnn

#endif // MGX_DNN_DNN_KERNEL_H
