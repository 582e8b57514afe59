#include "command_log.h"

#include <algorithm>
#include <cassert>
#include <iterator>

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

std::size_t
CommandPlayer::play(std::span<const u64> words)
{
    std::size_t i = 0;
    for (; i < words.size(); ++i) {
        const u64 w = words[i];
        Cycles done = 0;
        switch (cmd::kind(w)) {
          case cmd::kLine:
            done = dram_->access({cmd::addr(w), cmd::isWrite(w), arrival_});
            break;
          case cmd::kRange:
            done = dram_->accessRange(cmd::addr(w), words[++i],
                                      cmd::isWrite(w), arrival_);
            break;
          default: // cmd::kMark
            return i;
        }
        ready_ = std::max(ready_,
                          cmd::isCrypto(w) ? done + cryptoLatency_ : done);
    }
    return i;
}

TimedRecorder::TimedRecorder(DramSystem &dram, Cycles crypto_latency)
    : CommandRecorder(dram.blockBytes()), player(dram, crypto_latency)
{
    pos_ = buffer_;
    end_ = buffer_ + std::size(buffer_);
}

void
TimedRecorder::nextChunk()
{
    // Nothing records a Mark here, so the player takes every word.
    [[maybe_unused]] const std::size_t played = player.play({buffer_, pos_});
    assert(buffer_ + played == pos_);
    pos_ = buffer_;
}

} // namespace mgx::dram
