/**
 * @file
 * Base class for accelerator kernels.
 *
 * In MGX the *kernel* — the attested program on the accelerator's
 * control processor — is the component that generates version numbers.
 * Each domain (DNN, graph, genome, video, and the tiled-MatMul example)
 * subclasses Kernel, keeps its on-chip VN program state as plain Vn
 * registers named after the paper's counters (Iter, CTR_query, VN_W,
 * ...), and produces phases whose logical accesses carry fully formed
 * VNs.
 *
 * Production is streaming-first: subclasses implement stream(), a
 * pull-based chunked PhaseSource, so consumers can replay a workload
 * without ever materializing it (the memory ceiling that used to cap
 * workload size at RAM). generate() is for the callers that want a
 * whole Trace to inspect or edit — it simply keeps every phase the
 * stream emits, so the two paths emit identical phases by
 * construction.
 */

#ifndef MGX_CORE_KERNEL_H
#define MGX_CORE_KERNEL_H

#include <memory>
#include <string>

#include "phase.h"
#include "phase_stream.h"

namespace mgx::core {

/** An attested control-processor program that generates VNs. */
class Kernel
{
  public:
    virtual ~Kernel() = default;

    /** Human-readable kernel name for reports. */
    virtual std::string name() const = 0;

    /**
     * Begin one execution of the kernel's schedule as a pull-based
     * phase stream. The source borrows the kernel (the kernel must
     * outlive it) and advances the kernel's VN state exactly as
     * generate() does; fully draining the stream is one further
     * execution (e.g. one more training iteration). Never run two
     * streams of the same kernel at once.
     */
    virtual std::unique_ptr<PhaseSource> stream() = 0;

    /**
     * Run the kernel's schedule and materialize the phase trace:
     * stream() drained into a Trace (TraceBuildSink). Same
     * state-advance semantics as stream(); needs O(workload) memory,
     * unlike the stream path.
     */
    Trace generate();
};

} // namespace mgx::core

#endif // MGX_CORE_KERNEL_H
