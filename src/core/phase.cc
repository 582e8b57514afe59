#include "phase.h"

namespace mgx::core {

u32
Trace::internName(const std::string &name)
{
    auto it = nameIndex_.find(name);
    if (it != nameIndex_.end())
        return it->second;
    const u32 offset = static_cast<u32>(names_.size());
    names_.insert(names_.end(), name.begin(), name.end());
    nameIndex_.emplace(name, offset);
    return offset;
}

void
Trace::push_back(const Phase &p)
{
    PhaseRec rec;
    rec.nameOffset = internName(p.name);
    rec.nameLength = static_cast<u32>(p.name.size());
    rec.accessBegin = accesses_.size();
    rec.accessCount = static_cast<u32>(p.accesses.size());
    rec.computeCycles = p.computeCycles;
    accesses_.insert(accesses_.end(), p.accesses.begin(),
                     p.accesses.end());
    computeCycles_ += p.computeCycles;
    phases_.push_back(rec);
}

u64
traceDataBytes(const Trace &trace)
{
    return trace.dataBytes();
}

Cycles
traceComputeCycles(const Trace &trace)
{
    return trace.computeCycles();
}

} // namespace mgx::core
