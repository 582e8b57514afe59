/**
 * @file
 * Ablation: MGX MAC-granularity sweep (64 B .. 4 KB) on a streaming
 * DNN workload (ResNet-50, Cloud) and on DLRM, whose random embedding
 * gathers punish coarse granularities with read amplification —
 * the design-choice analysis behind the paper's 512 B default and the
 * DLRM 64 B exception (§VI-A, Memory Protection).
 *
 * Traces are generated once; the per-point Experiment re-simulates
 * them under the swept config. The "coarse" DLRM variant strips the
 * per-access fine-MAC override from the trace, which is exactly what
 * Experiment's explicit-trace path exists for.
 */

#include "bench_util.h"

int
main()
{
    using namespace mgx;
    using protection::Scheme;

    std::printf("Ablation: MGX MAC granularity sweep\n");
    bench::printHeader("traffic increase vs granularity",
                       {"gran(B)", "ResNet", "DLRM", "DLRM-fine-emb"});

    core::Trace resnet_trace =
        sim::makeKernel("dnn/ResNet")->generate();

    // DLRM with the embedding override active (64 B fine MACs on
    // tables) vs suppressed (tables use the sweep granularity).
    core::Trace fine_trace = sim::makeKernel("dnn/DLRM")->generate();
    core::Trace coarse_trace = fine_trace;
    for (auto &phase : coarse_trace) // edit the stored phases
        for (auto &acc : phase.accesses)
            acc.macGranularity = 0; // default for every access

    for (u32 gran : {64u, 128u, 256u, 512u, 1024u, 2048u, 4096u}) {
        protection::ProtectionConfig base;
        base.macGranularity = gran;
        sim::ResultSet rs = sim::Experiment()
                                .trace("ResNet", resnet_trace)
                                .trace("DLRM", coarse_trace)
                                .trace("DLRM-fine", fine_trace)
                                .platform(sim::cloudPlatform())
                                .schemes({Scheme::NP, Scheme::MGX})
                                .config(base)
                                .run();
        bench::printRow(
            std::to_string(gran),
            {rs.trafficIncrease("ResNet", "Cloud", Scheme::MGX)
                 .value(),
             rs.trafficIncrease("DLRM", "Cloud", Scheme::MGX).value(),
             rs.trafficIncrease("DLRM-fine", "Cloud", Scheme::MGX)
                 .value()});
    }
    std::printf("(expected: streaming ResNet improves monotonically "
                "with coarser MACs; DLRM without the fine-grained "
                "embedding override blows up past 512 B)\n");
    return 0;
}
