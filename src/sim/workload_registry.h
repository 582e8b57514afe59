/**
 * @file
 * Named workload registry: constructs any of the paper's kernels from
 * a string key, so experiments, tools and tests can sweep every
 * workload that exists without touching domain headers.
 *
 * Names are `domain/path[?key=value&key=value...]`:
 *
 *   dnn/<model>           VGG AlexNet GoogleNet ResNet BERT DLRM
 *                         MobileNet (case-insensitive; resnet50, vgg16,
 *                         inception, bert-base, mobilenetv1 aliases)
 *                         params: task=inference|training, batch=N,
 *                         accel=cloud|edge, density=0..1, seed=N
 *   graph/<name>/<alg>    six paper graphs x pagerank|bfs|sssp
 *                         params: iters=N (default 3 for pagerank,
 *                         4 otherwise), vector=seq|random, scale=N,
 *                         seed=N
 *   genome/<workload>     the nine chr{1,X,Y}{PacBio,ONT2D,ONT1D}
 *                         GACT workloads; params: reads=N. The bare
 *                         chromosome names chr1 / chrX / chrY are
 *                         whole-chromosome PacBio runs: reads defaults
 *                         to ~1x coverage (referenceBases / readLen)
 *                         instead of the figure subset of 64
 *   video/h264            IBPB decode; params: frames=N, width=N,
 *                         height=N, gop=N
 *   core/matmul           Fig. 4's tiled MatMul; params: m=N, n=N,
 *                         k=N, mtiles=N, ntiles=N, ktiles=N
 *
 * Unknown names and unknown parameter keys are fatal() — a typo should
 * fail loudly, not silently run the default workload.
 */

#ifndef MGX_SIM_WORKLOAD_REGISTRY_H
#define MGX_SIM_WORKLOAD_REGISTRY_H

#include <memory>
#include <string>
#include <vector>

#include "core/kernel.h"
#include "runner.h"

namespace mgx::sim {

/**
 * Construct the kernel named by @p name on its default platform
 * (Cloud accelerator config for DNN workloads). Fatal on unknown
 * names or parameters.
 */
std::unique_ptr<core::Kernel> makeKernel(const std::string &name);

/**
 * Construct the kernel named by @p name for @p platform. Only DNN
 * workloads are platform-sensitive: their tiling follows the
 * accelerator's SRAM, so a run on the Edge platform uses the
 * ChaiDNN-like edge accelerator config unless the name pins one with
 * `accel=`. All other domains ignore the platform here (it only sets
 * clocks and DRAM channels at simulation time).
 */
std::unique_ptr<core::Kernel> makeKernel(const std::string &name,
                                         const Platform &platform);

/**
 * Check @p name exactly as makeKernel would, without building the
 * kernel (a DNN kernel is constructed to size its tensors, never
 * streamed): any registry error — malformed name, unknown workload, a
 * parameter that is unknown, malformed or out of its range, a DNN
 * batch whose tensors overflow the kernel's feature region — returns
 * false with @p error set (the message makeKernel would have died
 * with) instead of exiting the process. Experiment::run checks every
 * registry workload through this before it runs any cell, and the
 * admission layer of mgx_serve before it commits an engine run.
 */
bool checkWorkload(const std::string &name, std::string *error);

/** The platform a workload's domain is evaluated on in the paper. */
Platform defaultPlatform(const std::string &name);

/**
 * Every canonical workload name: all DNN models x inference/training,
 * the six graphs x pagerank/bfs/sssp, the nine GACT workloads, the
 * H.264 stream and the MatMul example. Each listed name constructs
 * via makeKernel() and generates a non-empty trace.
 */
std::vector<std::string> listWorkloads();

/**
 * One deliberately oversized workload per domain — the paper's
 * full-scale inputs (whole-chromosome alignment, unscaled graphs,
 * large-batch training, long high-resolution video, deeply tiled
 * MatMul). These are ordinary registry names, but they are kept out
 * of listWorkloads() (and so out of `--all` and the golden grids)
 * because materializing them costs O(workload) memory: they are meant
 * for the streaming path, where replay memory stays bounded by one
 * phase (RunResult::peakPhaseBytes).
 */
std::vector<std::string> listScaledWorkloads();

} // namespace mgx::sim

#endif // MGX_SIM_WORKLOAD_REGISTRY_H
