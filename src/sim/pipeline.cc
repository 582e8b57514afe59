#include "pipeline.h"

#include <thread>

namespace mgx::sim {

RunResult
runPipelined(PerfModel &model, core::PhaseSource &source,
             std::size_t ring_capacity)
{
    core::PhaseRing ring(ring_capacity);

    // Producer: drain the source into the ring. Every exit path
    // closes the ring so the consumer can never block forever: a
    // clean drain and a consumer-initiated stop both end the stream,
    // and a throwing producer hands its exception to the consumer via
    // fail().
    std::thread producer([&ring, &source] {
        try {
            core::RingPushSink sink(ring);
            source.drainTo(sink);
            ring.closeProducer();
        } catch (const core::RingPushSink::ConsumerClosed &) {
            ring.closeProducer(); // consumer stopped early: clean exit
        } catch (...) {
            ring.fail(std::current_exception());
        }
    });

    RunResult result;
    try {
        core::PhaseRingSource ringSource(ring);
        result = model.run(ringSource);
    } catch (...) {
        // Replay failed (or the producer's exception resurfaced from
        // pop()): release and join the producer before rethrowing so
        // no thread outlives the call.
        ring.closeConsumer();
        producer.join();
        throw;
    }
    ring.closeConsumer();
    producer.join();

    const core::PhaseRing::Stats stats = ring.stats();
    result.pipelineProducerWaits = stats.producerWaits;
    result.pipelineConsumerWaits = stats.consumerWaits;
    result.pipelineMaxOccupancy = stats.maxOccupancy;
    return result;
}

} // namespace mgx::sim
