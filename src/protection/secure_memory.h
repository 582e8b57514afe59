/**
 * @file
 * Functional (bit-accurate) models of protected off-chip memory.
 *
 * Two classes mirror the two schemes' semantics:
 *
 *  - SecureMemory: MGX semantics. The trusted kernel supplies the VN
 *    for every read and write; nothing but ciphertext and MAC tags
 *    lives in (attacker-controlled) memory. One MAC tag covers one
 *    MAC block (the configured granularity).
 *
 *  - BaselineSecureMemory: traditional secure-processor semantics. A
 *    per-64 B-block VN lives in attacker-controlled memory, a Merkle
 *    tree over the VN lines provides freshness, and reads need no
 *    caller-supplied VN.
 *
 * Both expose an attacker surface (tamper / snapshot / restore) so
 * tests can demonstrate detection of spoofing, splicing and replay.
 * The timing model (ProtectionEngine) is intentionally independent;
 * these classes are used by tests and the runnable examples.
 */

#ifndef MGX_PROTECTION_SECURE_MEMORY_H
#define MGX_PROTECTION_SECURE_MEMORY_H

#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "crypto/ctr_mode.h"
#include "crypto/mac.h"
#include "crypto/merkle_tree.h"

namespace mgx::protection {

/** Sparse byte store standing in for DRAM contents. */
class SparseBytes
{
  public:
    void write(Addr addr, std::span<const u8> data);
    void read(Addr addr, std::span<u8> out) const;
    /** XOR one byte (attacker tampering). */
    void flipByte(Addr addr);

  private:
    static constexpr u64 kPageBytes = 4096;
    std::unordered_map<u64, std::vector<u8>> pages_;
};

/** Keys and parameters of a functional secure memory. */
struct SecureMemoryConfig
{
    crypto::Key encKey{};    ///< AES-CTR encryption key
    crypto::Key macKey{};    ///< CMAC integrity key
    u32 macGranularity = 512;
};

/** MGX-semantics encrypted + authenticated memory. */
class SecureMemory
{
  public:
    explicit SecureMemory(const SecureMemoryConfig &cfg);

    /**
     * Encrypt @p plaintext under (addr, vn) and store ciphertext and
     * per-block tags. @p addr and the length must be multiples of the
     * MAC granularity — MGX requires writes at the protection
     * granularity (this is the property the kernel schedules for).
     */
    void write(Addr addr, std::span<const u8> plaintext, Vn vn);

    /**
     * Fetch, verify and decrypt. The caller (kernel) regenerates @p vn.
     * @return false if any covered block fails MAC verification; the
     *         output buffer is zeroed in that case.
     */
    [[nodiscard]] bool read(Addr addr, std::span<u8> plaintext_out,
                            Vn vn);

    // -- attacker surface --------------------------------------------------

    /** Flip one ciphertext byte. */
    void tamperCiphertext(Addr addr);

    /** Flip a bit of the stored tag for the block containing @p addr. */
    void tamperTag(Addr addr);

    /** Snapshot of one MAC block (ciphertext + tag) for replay tests. */
    struct BlockSnapshot
    {
        Addr addr = 0;
        std::vector<u8> ciphertext;
        u64 tag = 0;
    };
    BlockSnapshot snapshotBlock(Addr addr) const;
    void restoreBlock(const BlockSnapshot &snap);

    /**
     * Move a block's ciphertext+tag to a different aligned address
     * (relocation / splicing attack); reads at the destination must
     * fail because the MAC binds the address.
     */
    void spliceBlock(Addr from, Addr to);

    u32 macGranularity() const { return cfg_.macGranularity; }

  private:
    u64 blockIndex(Addr addr) const { return addr / cfg_.macGranularity; }

    SecureMemoryConfig cfg_;
    crypto::CtrEngine ctr_;
    crypto::CmacEngine cmac_;
    SparseBytes store_;
    std::unordered_map<u64, u64> tags_; ///< block index -> tag
};

/** Traditional (BP) memory: off-chip VNs + Merkle tree over VN lines. */
class BaselineSecureMemory
{
  public:
    static constexpr u32 kBlockBytes = 64;
    static constexpr u32 kVnsPerLeaf = 8; ///< 64 B VN line

    /**
     * @param memory_bytes size of the protected region (tree is sized
     *        for it; keep modest in tests)
     */
    BaselineSecureMemory(const SecureMemoryConfig &cfg, u64 memory_bytes,
                         u32 tree_arity = 8);

    /** Encrypt and store; VNs are managed internally (incremented per
     *  64 B block write) as in a conventional secure processor. */
    void write(Addr addr, std::span<const u8> plaintext);

    /** Fetch, check the tree, verify the MAC, decrypt. */
    [[nodiscard]] bool read(Addr addr, std::span<u8> plaintext_out);

    // -- attacker surface --------------------------------------------------

    void tamperCiphertext(Addr addr);

    /** Overwrite a stored VN without fixing the tree (must be caught). */
    void tamperVn(Addr addr);

    /** Full replay: restore ciphertext, tag AND stored VN of a block to
     *  an earlier snapshot. Only the Merkle tree can catch this. */
    struct ReplaySnapshot
    {
        Addr addr = 0;
        std::vector<u8> ciphertext;
        u64 tag = 0;
        Vn vn = 0;
    };
    ReplaySnapshot snapshotBlock(Addr addr) const;
    void restoreBlock(const ReplaySnapshot &snap);

    /** Disable the tree check (to demonstrate the replay attack that
     *  motivates the tree; test-only). */
    void setTreeCheckEnabled(bool enabled) { treeCheck_ = enabled; }

  private:
    u64 blockIndex(Addr addr) const { return addr / kBlockBytes; }
    /** Serialize the 8 VNs of a leaf for hashing. */
    std::vector<u8> leafBytes(u64 leaf) const;

    SecureMemoryConfig cfg_;
    crypto::CtrEngine ctr_;
    crypto::CmacEngine cmac_;
    SparseBytes store_;
    std::vector<Vn> vns_;               ///< off-chip VN array
    std::unordered_map<u64, u64> tags_; ///< block index -> tag
    crypto::MerkleTree tree_;
    bool treeCheck_ = true;
};

} // namespace mgx::protection

#endif // MGX_PROTECTION_SECURE_MEMORY_H
