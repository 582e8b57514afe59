#include "phase_stream.h"

namespace mgx::core {

PhaseSink::~PhaseSink() = default;

PhaseSource::~PhaseSource() = default;

void
TraceBuildSink::consume(const Phase &phase)
{
    trace_->push_back(phase);
}

bool
TracePhaseSource::nextChunk(PhaseSink &sink)
{
    const std::size_t n = trace_->size();
    for (std::size_t i = 0; i < chunk_ && next_ < n; ++i, ++next_)
        sink.consume((*trace_)[next_]);
    return next_ < n;
}

} // namespace mgx::core
