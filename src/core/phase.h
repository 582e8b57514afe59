/**
 * @file
 * A simulation phase: one schedulable step of accelerator execution
 * with its compute cost and the off-chip traffic it generates.
 *
 * Accelerators double-buffer: while tile i is computed, tile i+1's data
 * streams in and tile i-1's results stream out. The performance model
 * therefore charges each phase max(compute, memory) plus pipeline
 * fill/drain (see sim::PerfModel).
 *
 * Kernels build phases with the plain `Phase` struct (an owning name
 * string plus an AccessList) and push them into a `Trace`. The Trace
 * itself stores an arena-backed compact layout: every access of every
 * phase lives in one flat array, phase names are interned into a
 * shared character arena, and iteration hands out lightweight views —
 * a trace of N phases costs three allocations-amortized arenas instead
 * of 2N+1 heap blocks. memoryBytes() reports the footprint so result
 * sinks can track it.
 */

#ifndef MGX_CORE_PHASE_H
#define MGX_CORE_PHASE_H

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "access.h"
#include "common/types.h"

namespace mgx::core {

/** One double-buffered execution step (builder form; see Trace). */
struct Phase
{
    std::string name;          ///< for trace dumps and stats
    Cycles computeCycles = 0;  ///< accelerator-clock compute time
    AccessList accesses;       ///< off-chip traffic of this step
};

/** Read-only view of one packed phase. */
struct PhaseView
{
    std::string_view name;     ///< interned; lives as long as the Trace
    Cycles computeCycles = 0;
    std::span<const LogicalAccess> accesses;
};

/** Mutable view: accesses may be edited in place (trace surgery). */
struct MutablePhaseView
{
    std::string_view name;
    Cycles computeCycles = 0;
    std::span<LogicalAccess> accesses;
};

/**
 * A whole workload: the ordered phase list one kernel run produces,
 * in the compact arena layout described in the file header.
 */
class Trace
{
  public:
    /** Append one phase; its name is interned, accesses packed. */
    void push_back(const Phase &p);

    /** Pre-size the arenas (counts are hints, not limits). */
    void
    reserve(std::size_t phases, std::size_t accesses = 0)
    {
        phases_.reserve(phases);
        if (accesses != 0)
            accesses_.reserve(accesses);
    }

    std::size_t size() const { return phases_.size(); }
    bool empty() const { return phases_.empty(); }

    PhaseView
    operator[](std::size_t i) const
    {
        const PhaseRec &rec = phases_[i];
        return {nameOf(rec), rec.computeCycles,
                {accesses_.data() + rec.accessBegin, rec.accessCount}};
    }

    MutablePhaseView
    operator[](std::size_t i)
    {
        const PhaseRec &rec = phases_[i];
        return {nameOf(rec), rec.computeCycles,
                {accesses_.data() + rec.accessBegin, rec.accessCount}};
    }

    /** Forward iterator over PhaseView / MutablePhaseView values. */
    template <typename TraceT, typename ViewT>
    class Iter
    {
      public:
        using value_type = ViewT;
        using difference_type = std::ptrdiff_t;

        Iter() = default;
        Iter(TraceT *t, std::size_t i) : trace_(t), index_(i) {}

        ViewT operator*() const { return (*trace_)[index_]; }
        Iter &operator++() { ++index_; return *this; }
        Iter operator++(int) { Iter o = *this; ++index_; return o; }
        bool operator==(const Iter &o) const { return index_ == o.index_; }
        bool operator!=(const Iter &o) const { return index_ != o.index_; }

      private:
        TraceT *trace_ = nullptr;
        std::size_t index_ = 0;
    };

    using const_iterator = Iter<const Trace, PhaseView>;
    using iterator = Iter<Trace, MutablePhaseView>;

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, phases_.size()}; }
    iterator begin() { return {this, 0}; }
    iterator end() { return {this, phases_.size()}; }

    /**
     * Total data bytes moved (excludes protection metadata). Summed
     * from the arena on demand: mutable views may edit access sizes,
     * so a cached total could silently go stale.
     */
    u64
    dataBytes() const
    {
        u64 total = 0;
        for (const LogicalAccess &acc : accesses_)
            total += acc.bytes;
        return total;
    }

    /** Total compute cycles across phases. */
    Cycles computeCycles() const { return computeCycles_; }

    /** Heap footprint of the packed representation, in bytes. */
    u64
    memoryBytes() const
    {
        return accesses_.capacity() * sizeof(LogicalAccess) +
               phases_.capacity() * sizeof(PhaseRec) +
               names_.capacity() +
               nameIndex_.size() *
                   (sizeof(std::string) + 2 * sizeof(void *));
    }

  private:
    /** Packed per-phase record: 32 bytes, arena offsets only. */
    struct PhaseRec
    {
        u32 nameOffset = 0;   ///< into names_
        u32 nameLength = 0;
        u64 accessBegin = 0;  ///< into accesses_
        u32 accessCount = 0;
        Cycles computeCycles = 0;
    };

    std::string_view
    nameOf(const PhaseRec &rec) const
    {
        return {names_.data() + rec.nameOffset, rec.nameLength};
    }

    u32 internName(const std::string &name);

    std::vector<LogicalAccess> accesses_; ///< flat arena, phase-contiguous
    std::vector<PhaseRec> phases_;
    std::vector<char> names_;             ///< interned name characters
    std::unordered_map<std::string, u32> nameIndex_; ///< name -> offset
    Cycles computeCycles_ = 0; ///< views cannot edit compute, safe to cache
};

/** Total data bytes moved by a trace (excludes protection metadata). */
u64 traceDataBytes(const Trace &trace);

/** Total compute cycles of a trace. */
Cycles traceComputeCycles(const Trace &trace);

} // namespace mgx::core

#endif // MGX_CORE_PHASE_H
