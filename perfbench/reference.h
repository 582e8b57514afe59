/**
 * @file
 * The correctness gate: every simulated cell's outputs against a
 * committed reference.
 *
 * A cell is pinned on the fields a performance change must never move —
 * cycles, compute/memory cycles, traffic by class, DRAM and logical
 * accesses, and the metadata-cache hits/misses/writebacks. The
 * scheduling-dependent and footprint fields (pipeline*, shard*,
 * traceBytes, peakPhaseBytes) are masked: they describe how a cell ran,
 * not what it computed. Served bodies are pinned byte for byte.
 */

#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/experiment.h"

namespace perfbench {

inline constexpr std::size_t kFieldCount = 13;

/** Names of the pinned fields, in CellOutputs::values order. */
extern const char *const kFieldNames[kFieldCount];

/** One cell's pinned outputs. */
struct CellOutputs
{
    std::string key; ///< "workload|platform|scheme"
    std::array<std::uint64_t, kFieldCount> values{};
};

/** The pinned outputs of @p record. */
CellOutputs cellOutputs(const mgx::sim::RunRecord &record);

/** Reference cells by key. */
using Reference = std::map<std::string, CellOutputs>;

/** Parse a reference file; false with @p error set on failure. */
bool loadReference(const std::string &path, Reference *out,
                   std::string *error);

/** Write @p cells as a reference file; false on I/O failure. */
bool writeReference(const std::string &path,
                    const std::vector<CellOutputs> &cells);

/**
 * Every difference between @p got and its reference cell, one line
 * each ("<key>: <field> = <got>, reference <want>"); a cell missing
 * from the reference is one difference. Empty means identical.
 */
std::vector<std::string> compareCell(const Reference &ref,
                                     const CellOutputs &got);

/** File under @p dir holding the reference body for @p workload. */
std::string servedBodyPath(const std::string &dir,
                           const std::string &workload);

/** Whole file as a string; false when it cannot be read. */
bool readFile(const std::string &path, std::string *out);

/** Replace @p path with @p content; false on I/O failure. */
bool writeFile(const std::string &path, const std::string &content);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H
