/**
 * @file
 * Quickstart: the MGX library in ~80 lines.
 *
 * 1. Build the paper's Fig. 4 tiled-MatMul kernel; its trace carries a
 *    kernel-generated version number on every access.
 * 2. Check the security invariant (no counter reuse, fresh reads).
 * 3. Run the trace under no protection, MGX, and the traditional
 *    baseline, and print the overhead each one pays.
 * 4. Do one functional encrypt/verify/decrypt round trip through
 *    SecureMemory to show the crypto layer in action.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>
#include <utility>
#include <vector>

#include "core/invariant_checker.h"
#include "core/matmul_kernel.h"
#include "protection/secure_memory.h"
#include "sim/experiment.h"

int
main()
{
    using namespace mgx;
    using protection::Scheme;

    // -- 1. a kernel that generates its own version numbers -----------
    core::MatMulParams params;
    params.m = params.n = params.k = 1024;
    params.nTiles = 4;
    params.kTiles = 4;
    core::MatMulKernel kernel(params);
    core::Trace trace = kernel.generate();
    std::printf("tiled MatMul: %zu phases, %.1f MB of data movement\n",
                trace.size(),
                static_cast<double>(core::traceDataBytes(trace)) / 1e6);

    // -- 2. the security invariant ------------------------------------
    core::InvariantChecker checker;
    checker.observeTrace(trace);
    auto report = checker.report();
    std::printf("invariant check: %s (%llu writes, %llu reads)\n",
                report.ok ? "OK" : "VIOLATED",
                static_cast<unsigned long long>(report.writesChecked),
                static_cast<unsigned long long>(report.readsChecked));

    // -- 3. timing under three protection schemes ---------------------
    const sim::Platform edge = sim::edgePlatform();
    sim::ResultSet rs = sim::Experiment()
                            .trace("matmul", std::move(trace))
                            .platform(edge)
                            .schemes({Scheme::NP, Scheme::MGX, Scheme::BP})
                            .run();
    std::printf("\n%-8s %12s %12s\n", "scheme", "norm. time",
                "traffic");
    for (Scheme s : rs.schemes()) {
        std::printf("%-8s %12.3f %12.3f\n", protection::schemeName(s),
                    rs.normalizedTime("matmul", edge.name, s).value(),
                    rs.trafficIncrease("matmul", edge.name, s).value());
    }

    // -- 4. functional secure memory ----------------------------------
    protection::SecureMemoryConfig mcfg;
    mcfg.encKey[0] = 0x42;
    mcfg.macKey[0] = 0x24;
    protection::SecureMemory mem(mcfg);
    std::vector<u8> secret(512);
    for (std::size_t i = 0; i < secret.size(); ++i)
        secret[i] = static_cast<u8>(i * 13);
    mem.write(0x1000, secret, /*vn=*/7);

    std::vector<u8> out(512);
    bool ok = mem.read(0x1000, out, 7);
    std::printf("\nsecure memory round trip: %s\n",
                ok && out == secret ? "OK" : "FAILED");
    mem.tamperCiphertext(0x1010);
    std::printf("tamper detection: %s\n",
                mem.read(0x1000, out, 7) ? "MISSED" : "caught");
    return 0;
}
