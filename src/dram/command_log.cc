#include "command_log.h"

#include "common/log.h"

namespace mgx::dram {

CommandRecorder::CommandRecorder(u32 block_bytes) : blockBytes_(block_bytes)
{
    // The flag bits live below the block offset.
    if (block_bytes < (u32{1} << cmd::kFlagBits))
        fatal("the DRAM command log needs blocks of at least %u bytes, "
              "got %u",
              1u << cmd::kFlagBits, block_bytes);
}

CommandRecorder::~CommandRecorder() = default;

} // namespace mgx::dram
