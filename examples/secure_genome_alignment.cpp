/**
 * @file
 * Secure genome alignment (§VII-A): Darwin's GACT accelerator under
 * memory protection.
 *
 * Shows the two-counter VN scheme (CTR_genome for the read-only
 * reference/tables, CTR_genome||CTR_query for query batches and
 * traceback output), runs one workload under BP and MGX_VN, and
 * demonstrates functionally that traceback pointers written by one
 * query batch cannot be replayed into a later batch.
 */

#include <cstdio>
#include <utility>
#include <vector>

#include "core/invariant_checker.h"
#include "genome/genome_kernel.h"
#include "protection/secure_memory.h"
#include "sim/experiment.h"

int
main()
{
    using namespace mgx;
    using protection::Scheme;

    // -- timing: one Fig. 16 workload ----------------------------------
    genome::GactWorkload workload{"chr1PacBio", 248956422,
                                  genome::pacbioProfile(), 64};
    genome::GenomeKernel kernel(workload);
    core::Trace trace = kernel.generate();

    core::InvariantChecker checker;
    checker.observeTrace(trace);
    std::printf("GACT %s: %zu tile waves, %.1f MB of traffic, "
                "VN invariant %s\n",
                workload.name.c_str(), trace.size(),
                static_cast<double>(core::traceDataBytes(trace)) / 1e6,
                checker.report().ok ? "OK" : "VIOLATED");
    std::printf("on-chip VN state: %llu bytes "
                "(CTR_genome + CTR_query)\n\n",
                static_cast<unsigned long long>(kernel.vnStateBytes()));

    const sim::Platform platform = sim::genomePlatform();
    sim::ResultSet rs =
        sim::Experiment()
            .trace("gact", std::move(trace))
            .platform(platform)
            .schemes({Scheme::NP, Scheme::MGX_VN, Scheme::BP})
            .run();
    std::printf("%-8s %12s %12s\n", "scheme", "norm. time", "traffic");
    for (Scheme s : rs.schemes())
        std::printf("%-8s %12.3f %12.3f\n", protection::schemeName(s),
                    rs.normalizedTime("gact", platform.name, s).value(),
                    rs.trafficIncrease("gact", platform.name, s).value());

    // -- functional: traceback freshness across query batches ----------
    protection::SecureMemoryConfig mcfg;
    mcfg.encKey[7] = 0x77;
    mcfg.macKey[7] = 0x88;
    mcfg.macGranularity = 64;
    protection::SecureMemory mem(mcfg);

    const Addr traceback = 12ull << 30;
    std::vector<u8> ptrs(64, 0x11);
    const Vn batch1 = kernel.queryVn();
    mem.write(traceback, ptrs, batch1);
    auto stale = mem.snapshotBlock(traceback);

    // A second batch arrives: CTR_query increments, the same traceback
    // region is rewritten.
    kernel.generate();
    const Vn batch2 = kernel.queryVn();
    std::vector<u8> ptrs2(64, 0x22);
    mem.write(traceback, ptrs2, batch2);

    // Replay batch 1's traceback into batch 2's readout: rejected.
    mem.restoreBlock(stale);
    std::vector<u8> out(64);
    const bool caught = !mem.read(traceback, out, batch2);
    std::printf("\ncross-batch traceback replay: %s\n",
                caught ? "caught (CTR_query freshness)" : "MISSED");
    return caught ? 0 : 1;
}
