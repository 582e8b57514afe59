/**
 * @file
 * The H.264 decoder's MGX kernel: emits the frame-buffer traffic of the
 * decode schedule with VN = CTR_IN || F, and exposes the per-access VN
 * rule so the functional test can decode through SecureMemory. Its
 * whole on-chip VN state is the CTR_IN register; F is the display
 * number each frame already carries.
 */

#ifndef MGX_VIDEO_VIDEO_KERNEL_H
#define MGX_VIDEO_VIDEO_KERNEL_H

#include "core/kernel.h"
#include "h264_model.h"

namespace mgx::video {

/** Control-processor kernel for one bitstream decode. */
class VideoKernel : public core::Kernel
{
  public:
    explicit VideoKernel(VideoConfig config = {});

    std::string name() const override { return "h264-decode"; }

    /**
     * One stream()/generate() call decodes one bitstream (CTR_IN
     * increments), emitting per-frame phases: reference reads then
     * the output write. The stream produces one frame per chunk.
     */
    std::unique_ptr<core::PhaseSource> stream() override;

    /** VN for (this bitstream, display frame @p f) — the Fig. 19 rule. */
    Vn frameVn(u32 f) const;

    /** Frame-buffer base address of buffer @p index. */
    Addr bufferAddr(u32 index) const;

    const VideoConfig &config() const { return config_; }

  private:
    class Source; // the streaming producer (video_kernel.cc)

    VideoConfig config_;
    Addr bufferBase_ = 2ull << 30;
    Vn ctrIn_ = 0; ///< CTR_IN: bumps per bitstream
};

} // namespace mgx::video

#endif // MGX_VIDEO_VIDEO_KERNEL_H
