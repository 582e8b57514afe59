#include "video_kernel.h"

#include "common/bitops.h"
#include "core/counter.h"

namespace mgx::video {

using core::makeVn;
using core::Phase;

VideoKernel::VideoKernel(VideoConfig config) : config_(config) {}

Vn
VideoKernel::frameVn(u32 f) const
{
    // CTR_IN in the upper half, display frame number in the lower.
    return makeVn(DataClass::VideoFrame, (ctrIn_ << 32) | f);
}

Addr
VideoKernel::bufferAddr(u32 index) const
{
    return bufferBase_ + static_cast<Addr>(index) *
                             alignUp(config_.frameBytes(), 4096);
}

/**
 * Streaming producer: one decoded frame per chunk, in decode order.
 * CTR_IN bumps at stream creation (a new bitstream arrives), exactly
 * where the materializing loop bumped it.
 */
class VideoKernel::Source final : public core::PhaseSource
{
  public:
    explicit Source(VideoKernel &kernel)
        : k_(&kernel), schedule_(buildDecodeSchedule(kernel.config_)),
          frameBytes_(kernel.config_.frameBytes()),
          macroblocks_(
              static_cast<u64>(divCeil(kernel.config_.width, 16)) *
              divCeil(kernel.config_.height, 16))
    {
        ++k_->ctrIn_; // a new bitstream arrives
    }

    bool
    nextChunk(core::PhaseSink &sink) override
    {
        if (next_ >= schedule_.size())
            return false;
        const DecodedFrame &frame = schedule_[next_];
        scratch_.name = "frame" + std::to_string(frame.displayNumber) +
                        (frame.type == FrameType::I
                             ? "(I)"
                             : frame.type == FrameType::P ? "(P)"
                                                          : "(B)");
        scratch_.computeCycles =
            macroblocks_ * k_->config_.cyclesPerMacroblock;
        scratch_.accesses.clear();

        // Inter-prediction reads the reference frame(s); motion search
        // touches roughly the co-located region, i.e. ~one frame's
        // worth of reference data per reference.
        for (std::size_t r = 0; r < frame.refDisplayNumbers.size();
             ++r) {
            scratch_.accesses.push_back(
                {k_->bufferAddr(frame.refBufferIndices[r]), frameBytes_,
                 k_->frameVn(frame.refDisplayNumbers[r]),
                 AccessType::Read, DataClass::VideoFrame, 0});
        }
        // The output frame: written exactly once per address.
        scratch_.accesses.push_back(
            {k_->bufferAddr(frame.bufferIndex), frameBytes_,
             k_->frameVn(frame.displayNumber), AccessType::Write,
             DataClass::VideoFrame, 0});
        sink.consume(scratch_);
        return ++next_ < schedule_.size();
    }

  private:
    VideoKernel *k_;
    std::vector<DecodedFrame> schedule_;
    u64 frameBytes_;
    u64 macroblocks_;
    std::size_t next_ = 0;
    Phase scratch_;
};

std::unique_ptr<core::PhaseSource>
VideoKernel::stream()
{
    return std::make_unique<Source>(*this);
}

} // namespace mgx::video
