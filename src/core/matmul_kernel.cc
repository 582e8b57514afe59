#include "matmul_kernel.h"

#include "common/bitops.h"
#include "common/log.h"
#include "counter.h"

namespace mgx::core {

MatMulKernel::MatMulKernel(const MatMulParams &params)
    : params_(params), vn_(params.initialVn)
{
    if (params_.m % params_.mTiles || params_.n % params_.nTiles ||
        params_.k % params_.kTiles) {
        fatal("MatMul dimensions must divide evenly into tiles");
    }
}

Addr
MatMulKernel::tileAddrA(u64 mi, u64 ki) const
{
    const u64 tile_bytes =
        (params_.m / params_.mTiles) * (params_.k / params_.kTiles) *
        params_.elemBytes;
    return params_.baseA + (mi * params_.kTiles + ki) * tile_bytes;
}

Addr
MatMulKernel::tileAddrB(u64 ki, u64 ni) const
{
    const u64 tile_bytes =
        (params_.k / params_.kTiles) * (params_.n / params_.nTiles) *
        params_.elemBytes;
    return params_.baseB + (ki * params_.nTiles + ni) * tile_bytes;
}

Addr
MatMulKernel::tileAddrC(u64 mi, u64 ni) const
{
    const u64 tile_bytes =
        (params_.m / params_.mTiles) * (params_.n / params_.nTiles) *
        params_.elemBytes;
    return params_.baseC + (mi * params_.nTiles + ni) * tile_bytes;
}

/**
 * Streaming producer for the Fig. 4(b) schedule: the setup phase, then
 * one compute phase per (ki, mi, ni) tile, with the VN counter bumped
 * exactly when round ki begins. A and B are loaded and read at the
 * counter's value when the run starts, so a further run reloads them
 * above every VN the last run wrote. One phase per chunk through a
 * reused scratch Phase, so the producer-side footprint is one phase.
 */
class MatMulKernel::Source final : public PhaseSource
{
  public:
    explicit Source(MatMulKernel &kernel)
        : k_(&kernel),
          tm_(kernel.params_.m / kernel.params_.mTiles),
          tn_(kernel.params_.n / kernel.params_.nTiles),
          tk_(kernel.params_.k / kernel.params_.kTiles),
          bytesA_(tm_ * tk_ * kernel.params_.elemBytes),
          bytesB_(tk_ * tn_ * kernel.params_.elemBytes),
          bytesC_(tm_ * tn_ * kernel.params_.elemBytes),
          vnIn_(makeVn(DataClass::Generic, kernel.vn_))
    {
    }

    bool
    nextChunk(PhaseSink &sink) override
    {
        const MatMulParams &p = k_->params_;
        scratch_.name.clear();
        scratch_.accesses.clear();
        scratch_.computeCycles = 0;

        if (!setupDone_) {
            // Session setup: the host loads A and B.
            scratch_.name = "load-operands";
            scratch_.accesses.reserve(p.mTiles * p.kTiles +
                                      p.kTiles * p.nTiles);
            for (u64 mi = 0; mi < p.mTiles; ++mi)
                for (u64 ki = 0; ki < p.kTiles; ++ki)
                    scratch_.accesses.push_back(
                        {k_->tileAddrA(mi, ki), bytesA_, vnIn_,
                         AccessType::Write, DataClass::Generic, 0});
            for (u64 ki = 0; ki < p.kTiles; ++ki)
                for (u64 ni = 0; ni < p.nTiles; ++ni)
                    scratch_.accesses.push_back(
                        {k_->tileAddrB(ki, ni), bytesB_, vnIn_,
                         AccessType::Write, DataClass::Generic, 0});
            sink.consume(scratch_);
            setupDone_ = true;
            return ki_ < p.kTiles;
        }
        if (ki_ >= p.kTiles)
            return false;

        // Fig. 4(b): outer loop over K rounds; the VN counter bumps
        // once per round, as the first tile of the round is scheduled.
        if (mi_ == 0 && ni_ == 0) {
            vnCRead_ = makeVn(DataClass::Generic, k_->vn_);
            vnCWrite_ = makeVn(DataClass::Generic, ++k_->vn_);
        }
        scratch_.name = "round" + std::to_string(ki_) + "-tile(" +
                        std::to_string(mi_) + "," + std::to_string(ni_) +
                        ")";
        // MACs / PEs, one MAC per PE per cycle.
        scratch_.computeCycles = divCeil(tm_ * tn_ * tk_, p.peCount);
        scratch_.accesses.reserve(ki_ > 0 ? 4 : 3);
        scratch_.accesses.push_back({k_->tileAddrA(mi_, ki_), bytesA_,
                                     vnIn_, AccessType::Read,
                                     DataClass::Generic, 0});
        scratch_.accesses.push_back({k_->tileAddrB(ki_, ni_), bytesB_,
                                     vnIn_, AccessType::Read,
                                     DataClass::Generic, 0});
        if (ki_ > 0) {
            // Accumulate: re-read the partial result with the VN it
            // was last written with.
            scratch_.accesses.push_back({k_->tileAddrC(mi_, ni_), bytesC_,
                                         vnCRead_, AccessType::Read,
                                         DataClass::Generic, 0});
        }
        scratch_.accesses.push_back({k_->tileAddrC(mi_, ni_), bytesC_,
                                     vnCWrite_, AccessType::Write,
                                     DataClass::Generic, 0});
        sink.consume(scratch_);

        if (++ni_ == p.nTiles) {
            ni_ = 0;
            if (++mi_ == p.mTiles) {
                mi_ = 0;
                ++ki_;
            }
        }
        return ki_ < p.kTiles;
    }

  private:
    MatMulKernel *k_;
    u64 tm_, tn_, tk_;
    u64 bytesA_, bytesB_, bytesC_;
    Vn vnIn_;
    Vn vnCRead_ = 0;
    Vn vnCWrite_ = 0;
    bool setupDone_ = false;
    u64 ki_ = 0, mi_ = 0, ni_ = 0;
    Phase scratch_;
};

std::unique_ptr<PhaseSource>
MatMulKernel::stream()
{
    return std::make_unique<Source>(*this);
}

Vn
MatMulKernel::finalOutputVn() const
{
    return makeVn(DataClass::Generic, vn_);
}

} // namespace mgx::core
