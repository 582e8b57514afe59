#include "phase_ring.h"

namespace mgx::core {

PhaseRing::PhaseRing(std::size_t capacity)
    : SlotQueue(capacity), slots_(slots())
{
}

bool
PhaseRing::push(const Phase &phase)
{
    std::size_t slot = 0;
    if (!acquire(slot))
        return false;
    // Copy into the slot via assign so the slot's string/vector
    // capacity is reused across the run (no per-phase allocation once
    // the ring is warm).
    Phase &dst = slots_[slot];
    dst.name.assign(phase.name);
    dst.computeCycles = phase.computeCycles;
    dst.accesses.assign(phase.accesses.begin(), phase.accesses.end());
    publish();
    return true;
}

bool
PhaseRing::pop(Phase &out)
{
    std::size_t slot = 0;
    if (!take(slot))
        return false;
    const Phase &src = slots_[slot];
    out.name.assign(src.name);
    out.computeCycles = src.computeCycles;
    out.accesses.assign(src.accesses.begin(), src.accesses.end());
    release();
    return true;
}

PhaseRing::Stats
PhaseRing::stats() const
{
    const SlotQueue::Stats q = SlotQueue::stats();
    return {q.published, q.producerWaits, q.consumerWaits, q.maxOccupancy};
}

} // namespace mgx::core
