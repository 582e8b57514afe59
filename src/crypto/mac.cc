#include "mac.h"

#include <cstring>
#include <vector>

namespace mgx::crypto {
namespace {

/** Left-shift a 128-bit value by one bit (RFC 4493 subkey derivation). */
Block
shiftLeft(const Block &in)
{
    Block out{};
    u8 carry = 0;
    for (int i = 15; i >= 0; --i) {
        out[i] = static_cast<u8>((in[i] << 1) | carry);
        carry = (in[i] & 0x80) ? 1 : 0;
    }
    return out;
}

constexpr u8 kRb = 0x87;

} // namespace

CmacEngine::CmacEngine(const Key &key) : aes_(key)
{
    Block zero{};
    Block l = aes_.encryptBlock(zero);
    k1_ = shiftLeft(l);
    if (l[0] & 0x80)
        k1_[15] ^= kRb;
    k2_ = shiftLeft(k1_);
    if (k1_[0] & 0x80)
        k2_[15] ^= kRb;
}

Block
CmacEngine::mac(std::span<const u8> message) const
{
    const std::size_t len = message.size();
    const std::size_t nblocks =
        len == 0 ? 1 : (len + kAesBlockBytes - 1) / kAesBlockBytes;
    const bool complete = len != 0 && len % kAesBlockBytes == 0;

    Block x{};
    for (std::size_t b = 0; b + 1 < nblocks; ++b) {
        for (std::size_t i = 0; i < kAesBlockBytes; ++i)
            x[i] ^= message[b * kAesBlockBytes + i];
        x = aes_.encryptBlock(x);
    }

    // Last block: XOR with K1 when complete, pad + K2 otherwise.
    Block last{};
    const std::size_t tail_off = (nblocks - 1) * kAesBlockBytes;
    const std::size_t tail_len = len - tail_off;
    // An empty message may have a null data(), which memcpy must
    // never see, even for a zero length.
    if (tail_len != 0)
        std::memcpy(last.data(), message.data() + tail_off, tail_len);
    if (!complete)
        last[tail_len] = 0x80;
    const Block &subkey = complete ? k1_ : k2_;
    for (std::size_t i = 0; i < kAesBlockBytes; ++i)
        x[i] ^= last[i] ^ subkey[i];
    return aes_.encryptBlock(x);
}

u64
CmacEngine::tag(std::span<const u8> data, Addr addr, Vn vn) const
{
    std::vector<u8> msg(data.begin(), data.end());
    for (int i = 0; i < 8; ++i)
        msg.push_back(static_cast<u8>(addr >> (56 - 8 * i)));
    for (int i = 0; i < 8; ++i)
        msg.push_back(static_cast<u8>(vn >> (56 - 8 * i)));
    Block full = mac(msg);
    u64 t = 0;
    for (int i = 0; i < 8; ++i)
        t = (t << 8) | full[i];
    return t;
}

} // namespace mgx::crypto
