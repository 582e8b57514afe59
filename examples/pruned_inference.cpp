/**
 * @file
 * DNN pruning under MGX (§VII-B).
 *
 * Static pruning is "just another network": we channel-prune ResNet-50
 * and run it like any model. Dynamic pruning skips input-dependent
 * feature tiles at run time; the kernel keeps the same shared VN_F,
 * simply never using the skipped (address, VN) pairs. This example
 * sweeps the feature density, verifies the security invariant at each
 * point, and shows that MGX's overhead stays near zero while the
 * baseline's grows as the compute-to-traffic ratio shifts.
 */

#include <cstdio>
#include <utility>

#include "core/invariant_checker.h"
#include "dnn/dnn_kernel.h"
#include "dnn/models.h"
#include "dnn/pruning.h"
#include "sim/experiment.h"

int
main()
{
    using namespace mgx;
    using protection::Scheme;

    // -- static channel pruning ---------------------------------------
    dnn::Model dense = dnn::resnet50();
    dnn::Model pruned = dnn::staticChannelPrune(dense, 0.6);
    std::printf("static channel pruning (keep 60%%): %.1f M -> %.1f M "
                "parameters\n\n",
                static_cast<double>(dense.weightBytes(1)) / 1e6,
                static_cast<double>(pruned.weightBytes(1)) / 1e6);

    // -- dynamic pruning density sweep ---------------------------------
    std::printf("%-10s %12s %12s %12s %10s\n", "density",
                "data(MB)", "MGX", "BP", "invariant");
    const sim::Platform cloud = sim::cloudPlatform();
    for (double density : {1.0, 0.75, 0.5, 0.3}) {
        dnn::DnnKernel kernel(pruned, dnn::cloudAccel());
        if (density < 1.0) {
            // Realistic effective density for CSR-compressed features
            // at this value-density, using run-length coding (§VII-B).
            kernel.setFeatureDensity(dnn::effectiveDensity(
                256, 256, density, 1, dnn::SparseFormat::RLC));
        }
        core::Trace trace = kernel.generate();
        const u64 data_bytes = core::traceDataBytes(trace);

        core::InvariantChecker checker;
        checker.observeTrace(trace);

        sim::ResultSet rs = sim::Experiment()
                                .trace("pruned", std::move(trace))
                                .platform(cloud)
                                .schemes({Scheme::NP, Scheme::MGX,
                                          Scheme::BP})
                                .run();
        std::printf(
            "%-10.2f %12.1f %12.3f %12.3f %10s\n", density,
            static_cast<double>(data_bytes) / 1e6,
            rs.normalizedTime("pruned", cloud.name, Scheme::MGX).value(),
            rs.normalizedTime("pruned", cloud.name, Scheme::BP).value(),
            checker.report().ok ? "OK" : "VIOLATED");
    }
    std::printf("\nSkipped VNs are never reused, so dynamic pruning "
                "needs no change to the MGX scheme (paper Fig. 20).\n");
    return 0;
}
