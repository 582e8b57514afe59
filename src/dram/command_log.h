/**
 * @file
 * The DRAM command log: DramSystem calls recorded as 8-byte words, so
 * that one thread can expand accesses into DRAM commands while another
 * times them (sim/pipeline.h).
 *
 * Every word of a command carries, in its low four bits, the command's
 * kind, its direction and a crypto tag, and above them its
 * block-aligned byte address (DRAM blocks are at least 16 bytes):
 *
 *   Line   one block: DramSystem::access, or one request of
 *          accessBatch. One word.
 *   Range  DramSystem::accessRange: the first block's address, then a
 *          second word with the byte count from that block's start.
 *   Mark   an out-of-band marker for the consumer: a code in the
 *          address bits, then one payload word.
 *
 * Aligning to the block changes nothing the DRAM model sees: access()
 * and accessBatch() align every address down to its block, and
 * accessRange() covers the blocks from alignDown(addr) to
 * alignDown(addr + bytes - 1), which the recorded pair keeps.
 *
 * The crypto tag marks commands that belong to a read under a
 * protected scheme: ProtectionEngine::access() adds the AES pipeline
 * latency to such an access's last completion, so a consumer that
 * only sees commands must add it per tagged completion instead.
 */

#ifndef MGX_DRAM_COMMAND_LOG_H
#define MGX_DRAM_COMMAND_LOG_H

#include "common/bitops.h"
#include "common/types.h"

namespace mgx::dram {
namespace cmd {

constexpr u64 kWrite = 1;    ///< write command (reads are 0)
constexpr u64 kCrypto = 2;   ///< completion pays the crypto latency
constexpr u64 kKindMask = 0xc;
constexpr u64 kFlagBits = 4; ///< low bits that are not address
constexpr u64 kLine = 0x0;
constexpr u64 kRange = 0x4;
constexpr u64 kMark = 0x8;

/** The command kind of word @p w (kLine, kRange or kMark). */
inline u64 kind(u64 w) { return w & kKindMask; }

/** The block-aligned address of word @p w (a Mark's code, shifted). */
inline Addr addr(u64 w) { return w & ~((u64{1} << kFlagBits) - 1); }

inline bool isWrite(u64 w) { return (w & kWrite) != 0; }

inline bool isCrypto(u64 w) { return (w & kCrypto) != 0; }

/** The code of a Mark word. */
inline u64 markCode(u64 w) { return w >> kFlagBits; }

} // namespace cmd

/**
 * Producer side of the log. Appends words to the current chunk
 * [pos, end) and calls nextChunk() when a command does not fit, so a
 * two-word command never straddles two chunks. The subclass owns the
 * chunks: nextChunk() publishes the filled one and points pos/end at
 * a fresh one.
 */
class CommandRecorder
{
  public:
    /** @param block_bytes the DRAM block size (at least 16 bytes). */
    explicit CommandRecorder(u32 block_bytes);
    virtual ~CommandRecorder();

    CommandRecorder(const CommandRecorder &) = delete;
    CommandRecorder &operator=(const CommandRecorder &) = delete;

    u32 blockBytes() const { return blockBytes_; }

    /** Tag the commands that follow as a protected read's (or not). */
    void setCrypto(bool on) { tag_ = on ? cmd::kCrypto : 0; }

    /** One block access (DramSystem::access / an accessBatch request). */
    void
    line(Addr a, bool write)
    {
        put(alignDown(a, blockBytes_) | tag_ | (write ? cmd::kWrite : 0));
    }

    /**
     * DramSystem::accessRange(a, bytes, write, ...). A range inside one
     * block is recorded as that block's Line: accessRange serves it
     * exactly as access() would.
     */
    void
    range(Addr a, u64 bytes, bool write)
    {
        const Addr first = alignDown(a, blockBytes_);
        const u64 flags = tag_ | (write ? cmd::kWrite : 0);
        if (bytes != 0 && a + bytes - first <= blockBytes_)
            put(first | flags);
        else
            put2(first | cmd::kRange | flags,
                 bytes == 0 ? 0 : bytes + (a - first));
    }

    /** An out-of-band marker with a small @p code and a @p payload. */
    void
    mark(u64 code, u64 payload)
    {
        put2((code << cmd::kFlagBits) | cmd::kMark, payload);
    }

  protected:
    /**
     * Hand on the words written since the current chunk began and
     * point pos_/end_ at an empty chunk of at least two words.
     */
    virtual void nextChunk() = 0;

    u64 *pos_ = nullptr;
    u64 *end_ = nullptr;

  private:
    void
    put(u64 w)
    {
        if (pos_ == end_) [[unlikely]]
            nextChunk();
        *pos_++ = w;
    }

    void
    put2(u64 a, u64 b)
    {
        if (end_ - pos_ < 2) [[unlikely]]
            nextChunk();
        pos_[0] = a;
        pos_[1] = b;
        pos_ += 2;
    }

    u64 tag_ = 0;
    u32 blockBytes_;
};

} // namespace mgx::dram

#endif // MGX_DRAM_COMMAND_LOG_H
