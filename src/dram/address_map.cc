#include "address_map.h"

#include "common/log.h"

namespace mgx::dram {

AddressMap::AddressMap(const Ddr4Config &cfg)
{
    blockBytes_ = cfg.accessBytes();
    if (!isPow2(blockBytes_) || !isPow2(cfg.channels) ||
        !isPow2(cfg.banksPerRank) || !isPow2(cfg.ranksPerChannel) ||
        !isPow2(cfg.rowBytes) || !isPow2(cfg.rowsPerBank)) {
        // rowsPerBank included: both decode()'s row mask and the
        // LineWalker row carry assume it.
        fatal("DRAM organization values must be powers of two");
    }
    blockBits_ = log2i(blockBytes_);
    channelBits_ = log2i(cfg.channels);
    blocksPerRow_ = cfg.rowBytes / blockBytes_;
    columnBits_ = log2i(blocksPerRow_);
    bankBits_ = log2i(cfg.banksPerRank);
    rankBits_ = log2i(cfg.ranksPerChannel);
    rowMask_ = cfg.rowsPerBank - 1;
    channels_ = cfg.channels;
    banks_ = cfg.banksPerRank;
    ranks_ = cfg.ranksPerChannel;
}

} // namespace mgx::dram
