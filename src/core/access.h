/**
 * @file
 * The logical memory access: the unit of data movement an accelerator
 * kernel requests from the memory-protection unit.
 *
 * A logical access is one contiguous transfer at the accelerator's own
 * granularity (a tensor tile, a chunk of adjacency matrix, a frame
 * slice, ...). The protection engine expands it into 64-byte DRAM
 * requests for data and metadata according to the active scheme.
 */

#ifndef MGX_CORE_ACCESS_H
#define MGX_CORE_ACCESS_H

#include <vector>

#include "common/types.h"

namespace mgx::core {

/**
 * One contiguous data transfer with its generated version number.
 * Field order packs the struct into 32 bytes (the 8-byte members
 * first); a workload emits millions of these, and phaseArenaBytes()
 * (core/phase_stream.h) charges sizeof(LogicalAccess) per access.
 */
struct LogicalAccess
{
    Addr addr = 0;          ///< start byte address
    u64 bytes = 0;          ///< transfer length
    Vn vn = 0;              ///< full 64-bit VN (type tag in top bits)
    AccessType type = AccessType::Read;
    DataClass cls = DataClass::Generic;

    /**
     * Per-access MAC granularity override in bytes; 0 selects the
     * scheme default. DLRM embedding-table gathers and GACT chunk loads
     * set 64 here because their access pattern is fine-grained.
     */
    u32 macGranularity = 0;
};

static_assert(sizeof(LogicalAccess) == 32,
              "LogicalAccess is a hot trace type; keep it packed");

/** A batch of logical accesses (one simulation phase's traffic). */
using AccessList = std::vector<LogicalAccess>;

} // namespace mgx::core

#endif // MGX_CORE_ACCESS_H
