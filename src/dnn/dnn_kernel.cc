#include "dnn_kernel.h"

#include <algorithm>

#include "common/bitops.h"
#include "common/log.h"
#include "common/rng.h"
#include "core/counter.h"

namespace mgx::dnn {

using core::AccessList;
using core::LogicalAccess;
using core::makeVn;
using core::Phase;

namespace {

/** Feature buffers start here; weights live below. */
constexpr Addr kFeatureBase = 4ull << 30;
constexpr u64 kFeatureRegion = 4ull << 30;
constexpr Addr kGradientBase = 8ull << 30;
constexpr u64 kGradientRegion = 8ull << 30;

/** Tensor-buffer alignment: one coarse-MAC line span (8 x 512 B), so
 *  adjacent tensors never share a MAC block. */
constexpr u64 kTensorAlign = 4096;

/** Bytes RegionAllocator::alloc reserves for @p bytes at kTensorAlign. */
u64
reservedBytes(u64 bytes)
{
    return alignUp(std::max<u64>(bytes, 1), kTensorAlign);
}

/**
 * Byte range of slice @p i of @p parts over a @p total-byte tensor,
 * with slice boundaries aligned to kTensorAlign so disjoint slices
 * never share a MAC block (a shared block would mean two writes with
 * the same VN to the same counter — forbidden).
 */
std::pair<u64, u64>
sliceRange(u64 total, u64 parts, u64 i)
{
    u64 begin = alignDown(total * i / parts, kTensorAlign);
    u64 end = (i + 1 == parts)
                  ? total
                  : alignDown(total * (i + 1) / parts, kTensorAlign);
    if (begin > total)
        begin = total;
    if (end > total)
        end = total;
    return {begin, end};
}

} // namespace

// ---------------------------------------------------------------------------
// RegionAllocator
// ---------------------------------------------------------------------------

RegionAllocator::RegionAllocator(Addr base, u64 size, u64 align)
    : base_(base), align_(align)
{
    freeList_.push_back({base, size});
}

Addr
RegionAllocator::alloc(u64 bytes)
{
    bytes = alignUp(std::max<u64>(bytes, 1), align_);
    for (std::size_t i = 0; i < freeList_.size(); ++i) {
        Block &blk = freeList_[i];
        if (blk.size >= bytes) {
            const Addr addr = blk.addr;
            blk.addr += bytes;
            blk.size -= bytes;
            if (blk.size == 0)
                freeList_.erase(freeList_.begin() +
                                static_cast<std::ptrdiff_t>(i));
            allocated_[addr] = bytes;
            liveBytes_ += bytes;
            return addr;
        }
    }
    fatal("RegionAllocator: out of space (%llu live, wanted %llu)",
          static_cast<unsigned long long>(liveBytes_),
          static_cast<unsigned long long>(bytes));
}

void
RegionAllocator::free(Addr addr)
{
    auto it = allocated_.find(addr);
    if (it == allocated_.end())
        panic("RegionAllocator: double free at %#llx",
              static_cast<unsigned long long>(addr));
    const u64 size = it->second;
    liveBytes_ -= size;
    allocated_.erase(it);

    // Insert sorted and coalesce with neighbours.
    auto pos = std::lower_bound(
        freeList_.begin(), freeList_.end(), addr,
        [](const Block &b, Addr a) { return b.addr < a; });
    pos = freeList_.insert(pos, {addr, size});
    if (pos + 1 != freeList_.end() &&
        pos->addr + pos->size == (pos + 1)->addr) {
        pos->size += (pos + 1)->size;
        freeList_.erase(pos + 1);
    }
    if (pos != freeList_.begin()) {
        auto prev = pos - 1;
        if (prev->addr + prev->size == pos->addr) {
            prev->size += pos->size;
            freeList_.erase(pos);
        }
    }
}

// ---------------------------------------------------------------------------
// DnnKernel
// ---------------------------------------------------------------------------

DnnKernel::DnnKernel(Model model, DnnAccelConfig accel, DnnTask task,
                     u32 batch, u64 seed)
    : model_(std::move(model)), accel_(std::move(accel)), task_(task),
      batch_(batch ? batch : model_.defaultBatch), seed_(seed)
{
    // Static weight placement: one aligned block per parameterized layer.
    weightAddr_.resize(model_.layers.size(), 0);
    Addr next = weightBase_;
    for (std::size_t i = 0; i < model_.layers.size(); ++i) {
        const u64 wb =
            model_.layers[i].weightElems() * accel_.elemBytes;
        if (wb > 0) {
            weightAddr_[i] = next;
            next += alignUp(wb, kTensorAlign);
        }
    }
    if (next > kFeatureBase)
        fatal("model '%s' weights (%llu B) exceed the weight region",
              model_.name.c_str(), static_cast<unsigned long long>(next));
}

std::string
DnnKernel::name() const
{
    return model_.name + (task_ == DnnTask::Training ? "-Train" : "-Inf");
}

void
DnnKernel::setFeatureDensity(double density)
{
    if (density <= 0.0 || density > 1.0)
        fatal("feature density must be in (0, 1]");
    density_ = density;
}

u64
DnnKernel::prunedBytes(u64 bytes) const
{
    if (density_ >= 1.0)
        return bytes;
    return alignUp(static_cast<u64>(static_cast<double>(bytes) *
                                    density_) |
                       1,
                   64);
}

u64
DnnKernel::inputTensorBytes() const
{
    return static_cast<u64>(batch_) *
           model_.layers.front().inputElems() * accel_.elemBytes;
}

u64
DnnKernel::outputTensorBytes(std::size_t idx) const
{
    return static_cast<u64>(batch_) * model_.layers[idx].outputElems() *
           accel_.elemBytes;
}

u64
DnnKernel::featureRegionBytes()
{
    return kFeatureRegion;
}

u64
DnnKernel::featureDemandBytes() const
{
    // Mirrors beginRun(), emitForwardLayer() and the backward pass:
    // pruning shrinks a gradient below its dense output, never above
    // it once aligned, so dense sizes bound every tensor.
    const std::size_t n = model_.layers.size();
    u64 demand = reservedBytes(std::max<u64>(inputTensorBytes(), 64));
    std::vector<bool> consumed(n, false);
    for (std::size_t i = 0; i < n; ++i) {
        demand += reservedBytes(outputTensorBytes(i));
        for (int p : model_.layers[i].inputs)
            if (p >= 0)
                consumed[static_cast<std::size_t>(p)] = true;
    }
    if (task_ == DnnTask::Training) {
        // The loss gradient, then at most one input gradient per
        // output some layer consumes.
        demand += reservedBytes(outputTensorBytes(n - 1));
        for (std::size_t i = 0; i < n; ++i)
            if (consumed[i])
                demand += reservedBytes(outputTensorBytes(i));
    }
    return demand;
}

u64
DnnKernel::vnStateBytes() const
{
    // VN_F per layer, the VN_F counter, VN_W and VN_input; training
    // adds VN_G per layer and the VN_G counter.
    u64 entries = model_.layers.size() + 3;
    if (task_ == DnnTask::Training)
        entries += model_.layers.size() + 1;
    return entries * sizeof(Vn);
}

void
DnnKernel::pushInputReads(const Layer &l, AccessList &out)
{
    if (l.kind == LayerKind::Embedding)
        return; // indices are on-chip; row gathers are emitted separately
    for (int p : l.inputs) {
        if (p < 0) {
            const u64 bytes =
                prunedBytes(static_cast<u64>(batch_) * l.inputElems() *
                            accel_.elemBytes);
            out.push_back({inputAddr_, bytes,
                           makeVn(DataClass::Feature, vnInput_),
                           AccessType::Read, DataClass::Feature, 0});
        } else {
            const TensorInfo &t =
                features_[static_cast<std::size_t>(p)];
            out.push_back({t.addr, t.bytes,
                           makeVn(DataClass::Feature, t.vn),
                           AccessType::Read, DataClass::Feature, 0});
        }
    }
}

void
DnnKernel::pushWeightRead(std::size_t idx, AccessList &out)
{
    const Layer &l = model_.layers[idx];
    const u64 wb = l.weightElems() * accel_.elemBytes;
    if (wb == 0 || l.kind == LayerKind::Embedding)
        return;
    out.push_back({weightAddr_[idx], wb, makeVn(DataClass::Weight, vnW_),
                   AccessType::Read, DataClass::Weight, 0});
}

void
DnnKernel::emitForwardLayer(std::size_t idx, core::PhaseSink &sink)
{
    const Layer &l = model_.layers[idx];
    const u64 eb = accel_.elemBytes;
    const u64 out_full = outputTensorBytes(idx);
    const u64 out_bytes = prunedBytes(out_full);

    // Allocate the output buffer (full size; pruning shrinks traffic,
    // not the reservation).
    TensorInfo &t = features_[idx];
    t.addr = featureAlloc_->alloc(out_full);
    t.bytes = out_bytes;

    const Cycles compute = layerComputeCycles(l, batch_, accel_);

    if (l.kind == LayerKind::Embedding) {
        // Random row gathers; fine-grained MACs on the table.
        Rng rng(seed_ ^ (idx * 0x9e37u));
        Phase p;
        p.name = l.name;
        p.computeCycles = compute;
        const u64 row_bytes = static_cast<u64>(l.rowDim) * eb;
        const Vn vn_w = makeVn(DataClass::Weight, vnW_);
        const u64 lookups =
            static_cast<u64>(batch_) * l.lookupsPerSample;
        for (u64 i = 0; i < lookups; ++i) {
            const u64 row = rng.below(l.numRows);
            p.accesses.push_back({weightAddr_[idx] + row * row_bytes,
                                  row_bytes, vn_w, AccessType::Read,
                                  DataClass::Weight, 64});
        }
        t.vn = ++vnF_;
        t.writes = 1;
        p.accesses.push_back({t.addr, t.bytes,
                              makeVn(DataClass::Feature, t.vn),
                              AccessType::Write, DataClass::Feature, 0});
        sink.consume(p);
        return;
    }

    // Tiling decision (paper Fig. 7): K-tiling when the weights exceed
    // half the double-buffered budget, band-tiling when the working set
    // still does not fit.
    const u64 budget = accel_.sramBytes / 2;
    const u64 wb = l.weightElems() * eb;
    u64 in_bytes = 0;
    for (int p : l.inputs) {
        in_bytes += p < 0 ? static_cast<u64>(batch_) * l.inputElems() * eb
                          : features_[static_cast<std::size_t>(p)].bytes;
    }

    u64 k_rounds = 1;
    if (wb > budget / 2)
        k_rounds = divCeil(wb, budget / 2);
    // Limit K rounds to something the reduction dimension supports.
    u64 k_dim = 1;
    switch (l.kind) {
      case LayerKind::Conv:
        k_dim = static_cast<u64>(l.inC) * l.kH * l.kW;
        break;
      case LayerKind::Depthwise:
        k_dim = static_cast<u64>(l.kH) * l.kW;
        break;
      case LayerKind::Dense:
        k_dim = l.inC;
        break;
      case LayerKind::MatMul:
        k_dim = l.mmK;
        break;
      default:
        break;
    }
    k_rounds = std::max<u64>(1, std::min(k_rounds, std::max<u64>(k_dim, 1)));

    u64 bands = 1;
    const u64 per_round = wb / k_rounds + in_bytes / k_rounds + out_bytes;
    if (per_round > budget) {
        const u64 avail = budget > wb / k_rounds
                              ? budget - wb / k_rounds
                              : budget / 2;
        bands = std::max<u64>(
            1, divCeil(in_bytes / k_rounds + out_bytes, avail));
        bands = std::min(bands, std::max<u64>(out_bytes / kTensorAlign, 1));
    }

    const Cycles phase_compute =
        std::max<Cycles>(1, compute / (k_rounds * bands));

    Vn vn_prev = 0;
    for (u64 k = 0; k < k_rounds; ++k) {
        const Vn vn_write = ++vnF_;
        for (u64 band = 0; band < bands; ++band) {
            auto [ob, oe] = sliceRange(out_bytes, bands, band);
            if (ob >= oe)
                continue;
            Phase p;
            p.name = l.name + "[k" + std::to_string(k) + ".b" +
                     std::to_string(band) + "]";
            p.computeCycles = phase_compute;

            // Weights chunk for this round (read once, in band 0).
            if (wb > 0 && band == 0) {
                auto [wbgn, wend] = sliceRange(wb, k_rounds, k);
                if (wbgn < wend) {
                    p.accesses.push_back(
                        {weightAddr_[idx] + wbgn, wend - wbgn,
                         makeVn(DataClass::Weight, vnW_),
                         AccessType::Read, DataClass::Weight, 0});
                }
            }

            // Input slice: one of k_rounds x bands pieces per producer.
            const u64 part = k * bands + band;
            for (int prod : l.inputs) {
                const bool external = prod < 0;
                const Addr base =
                    external
                        ? inputAddr_
                        : features_[static_cast<std::size_t>(prod)].addr;
                const u64 total =
                    external
                        ? prunedBytes(static_cast<u64>(batch_) *
                                      l.inputElems() * eb)
                        : features_[static_cast<std::size_t>(prod)].bytes;
                const Vn vn_in = makeVn(
                    DataClass::Feature,
                    external ? vnInput_
                             : features_[static_cast<std::size_t>(prod)].vn);
                auto [ib, ie] =
                    sliceRange(total, k_rounds * bands, part);
                if (ib < ie) {
                    p.accesses.push_back({base + ib, ie - ib, vn_in,
                                          AccessType::Read,
                                          DataClass::Feature, 0});
                }
            }

            // Partial-sum read-back (Fig. 7 lines 11-13).
            if (k > 0) {
                p.accesses.push_back(
                    {t.addr + ob, oe - ob,
                     makeVn(DataClass::Feature, vn_prev), AccessType::Read,
                     DataClass::Feature, 0});
            }
            // Output write with the round's VN (Fig. 7 lines 15-16).
            p.accesses.push_back({t.addr + ob, oe - ob,
                                  makeVn(DataClass::Feature, vn_write),
                                  AccessType::Write, DataClass::Feature, 0});
            sink.consume(p);
        }
        vn_prev = vn_write;
        ++t.writes;
        t.vn = vn_write;
    }
}

void
DnnKernel::emitBackwardLayer(std::size_t idx, core::PhaseSink &sink)
{
    const Layer &l = model_.layers[idx];
    const u64 eb = accel_.elemBytes;
    TensorInfo &gy = gradients_[idx];
    if (gy.writes == 0)
        return; // no consumer produced a gradient (dead output)

    const u64 wb = l.weightElems() * eb;
    const Cycles compute = 2 * layerComputeCycles(l, batch_, accel_);

    if (l.kind == LayerKind::Embedding) {
        Phase p;
        p.name = l.name + ".bwd";
        p.computeCycles = compute;
        p.accesses.push_back({gy.addr, gy.bytes,
                              makeVn(DataClass::Gradient, gy.vn),
                              AccessType::Read, DataClass::Gradient, 0});
        const u64 row_bytes = static_cast<u64>(l.rowDim) * eb;
        const u64 lookups =
            static_cast<u64>(batch_) * l.lookupsPerSample;
        const Vn vn_gw = ++vnG_;
        // Gathered-row gradients are written densely into a staging
        // buffer (the sparse scatter is resolved by the optimizer,
        // which the paper does not emulate either).
        const Addr scatter =
            kGradientBase + kGradientRegion - (64ull << 20);
        for (u64 i = 0; i < lookups; ++i) {
            p.accesses.push_back({scatter + i * row_bytes, row_bytes,
                                  makeVn(DataClass::Gradient, vn_gw),
                                  AccessType::Write, DataClass::Gradient, 64});
        }
        sink.consume(p);
        return;
    }

    // Band-split so the working set fits on chip; one VN for the whole
    // gx tensor since each address is written once (no K-tiling in the
    // simplified backward schedule).
    const u64 budget = accel_.sramBytes / 2;
    u64 work = gy.bytes + wb;
    for (int prod : l.inputs)
        if (prod >= 0)
            work += 2 * features_[static_cast<std::size_t>(prod)].bytes;
    const u64 bands = std::max<u64>(1, divCeil(work, budget));

    // Gradient VNs for each producer's gx written by this layer.
    struct GxTarget
    {
        std::size_t prod;
        Vn vnRead = 0; ///< valid if accumulating into an existing gx
        Vn vnWrite = 0;
        bool accumulate = false;
    };
    std::vector<GxTarget> targets;
    for (int prod : l.inputs) {
        if (prod < 0)
            continue;
        const auto pi = static_cast<std::size_t>(prod);
        TensorInfo &gx = gradients_[pi];
        GxTarget tgt;
        tgt.prod = pi;
        if (gx.writes == 0) {
            gx.addr = featureAlloc_->alloc(features_[pi].bytes);
            gx.bytes = features_[pi].bytes;
        } else {
            tgt.accumulate = true;
            tgt.vnRead = gx.vn;
        }
        tgt.vnWrite = ++vnG_;
        gx.vn = tgt.vnWrite;
        ++gx.writes;
        targets.push_back(tgt);
    }
    const Vn vn_gw = wb > 0 ? ++vnG_ : 0;
    const Addr gw_addr =
        wb > 0 ? kGradientBase + (weightAddr_[idx] % kGradientRegion) : 0;

    const Cycles phase_compute = std::max<Cycles>(1, compute / bands);
    for (u64 band = 0; band < bands; ++band) {
        Phase p;
        p.name = l.name + ".bwd[b" + std::to_string(band) + "]";
        p.computeCycles = phase_compute;

        // Incoming gradient slice.
        auto [gb, ge] = sliceRange(gy.bytes, bands, band);
        if (gb < ge) {
            p.accesses.push_back({gy.addr + gb, ge - gb,
                                  makeVn(DataClass::Gradient, gy.vn),
                                  AccessType::Read, DataClass::Gradient, 0});
        }
        // Saved features (for gw) and weights (for gx). The external
        // input is re-read too: the first layer's gw needs it.
        for (int prod : l.inputs) {
            const bool external = prod < 0;
            const Addr base =
                external
                    ? inputAddr_
                    : features_[static_cast<std::size_t>(prod)].addr;
            const u64 total =
                external
                    ? inputBytes_
                    : features_[static_cast<std::size_t>(prod)].bytes;
            const Vn vn =
                external ? vnInput_
                         : features_[static_cast<std::size_t>(prod)].vn;
            auto [xb, xe] = sliceRange(total, bands, band);
            if (xb < xe) {
                p.accesses.push_back(
                    {base + xb, xe - xb, makeVn(DataClass::Feature, vn),
                     AccessType::Read, DataClass::Feature, 0});
            }
        }
        if (wb > 0 && band == 0) {
            p.accesses.push_back({weightAddr_[idx], wb,
                                  makeVn(DataClass::Weight, vnW_),
                                  AccessType::Read, DataClass::Weight, 0});
        }

        // Outgoing gradients.
        for (const GxTarget &tgt : targets) {
            TensorInfo &gx = gradients_[tgt.prod];
            auto [ob, oe] = sliceRange(gx.bytes, bands, band);
            if (ob >= oe)
                continue;
            if (tgt.accumulate) {
                p.accesses.push_back(
                    {gx.addr + ob, oe - ob,
                     makeVn(DataClass::Gradient, tgt.vnRead),
                     AccessType::Read, DataClass::Gradient, 0});
            }
            p.accesses.push_back({gx.addr + ob, oe - ob,
                                  makeVn(DataClass::Gradient, tgt.vnWrite),
                                  AccessType::Write, DataClass::Gradient, 0});
        }
        // Weight gradient slice.
        if (wb > 0) {
            auto [ob, oe] = sliceRange(wb, bands, band);
            if (ob < oe) {
                p.accesses.push_back(
                    {gw_addr + ob, oe - ob,
                     makeVn(DataClass::Gradient, vn_gw), AccessType::Write,
                     DataClass::Gradient, 0});
            }
        }
        sink.consume(p);
    }

    // gy is fully consumed; recycle its buffer.
    featureAlloc_->free(gy.addr);
    gy.writes = 0;
}

void
DnnKernel::beginRun()
{
    const std::size_t n = model_.layers.size();
    features_.assign(n, {});
    gradients_.assign(n, {});
    remainingUses_.assign(n, 0);
    featureAlloc_.emplace(kFeatureBase, kFeatureRegion, kTensorAlign);
    ++vnInput_; // a new input arrived

    // Consumer counts for buffer recycling.
    for (const auto &l : model_.layers)
        for (int p : l.inputs)
            if (p >= 0)
                ++remainingUses_[static_cast<std::size_t>(p)];

    // The external input tensor.
    inputBytes_ = inputTensorBytes();
    inputAddr_ = featureAlloc_->alloc(std::max<u64>(inputBytes_, 64));
}

/**
 * Streaming producer: one layer's phases per chunk — forward layers in
 * order, then (training) the loss-gradient seed and the backward
 * layers in reverse. Buffer recycling happens as each layer is
 * emitted, so the address map and tensor VNs evolve exactly as the
 * materializing loop evolved them.
 */
class DnnKernel::Source final : public core::PhaseSource
{
  public:
    explicit Source(DnnKernel &kernel) : k_(&kernel)
    {
        k_->beginRun();
    }

    bool
    nextChunk(core::PhaseSink &sink) override
    {
        const std::size_t n = k_->model_.layers.size();
        switch (stage_) {
          case Stage::Forward: {
            k_->emitForwardLayer(idx_, sink);
            // Recycle producers that have no remaining consumers
            // (inference only; training keeps features for backward).
            if (k_->task_ == DnnTask::Inference) {
                for (int p : k_->model_.layers[idx_].inputs) {
                    if (p < 0)
                        continue;
                    auto pi = static_cast<std::size_t>(p);
                    if (--k_->remainingUses_[pi] == 0)
                        k_->featureAlloc_->free(k_->features_[pi].addr);
                }
            }
            if (++idx_ < n)
                return true;
            if (k_->task_ != DnnTask::Training) {
                stage_ = Stage::Done;
                return false;
            }
            stage_ = Stage::Loss;
            return true;
          }
          case Stage::Loss: {
            // Loss gradient seeds the backward pass.
            TensorInfo &gl = k_->gradients_[n - 1];
            gl.bytes = k_->features_[n - 1].bytes;
            gl.addr = k_->featureAlloc_->alloc(gl.bytes);
            gl.vn = ++k_->vnG_;
            gl.writes = 1;
            Phase loss;
            loss.name = "loss-grad";
            loss.computeCycles = 1;
            loss.accesses.push_back(
                {gl.addr, gl.bytes, makeVn(DataClass::Gradient, gl.vn),
                 AccessType::Write, DataClass::Gradient, 0});
            sink.consume(loss);
            stage_ = Stage::Backward;
            idx_ = n; // emitted as idx_ - 1, counting down
            return true;
          }
          case Stage::Backward: {
            k_->emitBackwardLayer(idx_ - 1, sink);
            if (--idx_ > 0)
                return true;
            stage_ = Stage::Done;
            return false;
          }
          case Stage::Done:
            return false;
        }
        return false;
    }

  private:
    enum class Stage { Forward, Loss, Backward, Done };

    DnnKernel *k_;
    Stage stage_ = Stage::Forward;
    std::size_t idx_ = 0;
};

std::unique_ptr<core::PhaseSource>
DnnKernel::stream()
{
    return std::make_unique<Source>(*this);
}

} // namespace mgx::dnn
