/**
 * @file
 * Result sinks for experiment ResultSets: the classic fixed-width
 * terminal table and a machine-readable JSON writer for trajectory
 * tracking (BENCH_*.json-style artifacts).
 *
 * JSON schema (`"schema": "mgx-resultset-v1"`): one record per grid
 * cell with workload / platform / scheme coordinates, raw cycle and
 * traffic numbers, the traffic breakdown, and the NP-normalized
 * ratios (null when the grid has no NP baseline for that cell — the
 * missing-baseline case is explicit, not a fake 0).
 */

#ifndef MGX_SIM_REPORT_H
#define MGX_SIM_REPORT_H

#include <cstdio>
#include <iosfwd>
#include <string>

#include "experiment.h"

namespace mgx::sim {

/**
 * Print @p rs as a fixed-width table, one row per grid cell:
 * workload, platform, scheme, time, normalized time, traffic ratio.
 */
void printTable(const ResultSet &rs, std::FILE *out = stdout);

/** Serialize @p rs as mgx-resultset-v1 JSON. */
void writeJson(const ResultSet &rs, std::ostream &out);

/** writeJson into a string (tests, small sets). */
std::string toJson(const ResultSet &rs);

} // namespace mgx::sim

#endif // MGX_SIM_REPORT_H
