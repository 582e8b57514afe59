/**
 * @file
 * The grid's axes: accelerator platforms, scheme sets, and the names
 * the CLI and the service accept for them. Grids themselves run
 * through the Experiment builder (experiment.h).
 */

#ifndef MGX_SIM_RUNNER_H
#define MGX_SIM_RUNNER_H

#include <string>
#include <vector>

#include "core/phase.h"
#include "dram/ddr4_timing.h"
#include "perf_model.h"
#include "protection/scheme.h"

namespace mgx::sim {

/** One accelerator platform (clock + memory system). */
struct Platform
{
    std::string name;        ///< "Cloud", "Edge", ...
    double clockMhz = 700.0; ///< accelerator clock
    dram::Ddr4Config dram;   ///< channel count etc.
};

/** The paper's default scheme set: NP, MGX, MGX_VN, MGX_MAC, BP. */
std::vector<protection::Scheme> allSchemes();

/** Just NP, MGX, BP (traffic figures). */
std::vector<protection::Scheme> trafficSchemes();

/** TPU-v1-like cloud platform (256x256 PEs, 700 MHz, 4 channels). */
Platform cloudPlatform();

/** Samsung-NPU-like edge platform (32x32 PEs, 900 MHz, 1 channel). */
Platform edgePlatform();

/** GraphLily-like graph-accelerator platform (800 MHz, 4 channels). */
Platform graphPlatform();

/** Darwin/GACT genome platform (800 MHz, 4 channels). */
Platform genomePlatform();

/**
 * The platform named @p name: cloud, edge, graph or genome.
 * @return false (leaving @p out untouched) on any other name.
 */
bool platformByName(const std::string &name, Platform &out);

/**
 * The scheme named @p name: NP, MGX, MGX_VN, MGX_MAC or BP.
 * @return false (leaving @p out untouched) on any other name.
 */
bool schemeByName(const std::string &name, protection::Scheme &out);

/** The non-empty items of comma-separated @p list ("a,,b": a, b). */
std::vector<std::string> splitCommas(const std::string &list);

} // namespace mgx::sim

#endif // MGX_SIM_RUNNER_H
