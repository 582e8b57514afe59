/**
 * @file
 * The experiment API: declare a workload x platform x scheme grid,
 * run it on a thread pool, and get a structured ResultSet back — the
 * programmatic form of "one paper figure".
 *
 *   ResultSet rs = Experiment()
 *                      .workloads({"dnn/ResNet", "dnn/BERT"})
 *                      .platforms({cloudPlatform(), edgePlatform()})
 *                      .schemes(trafficSchemes())
 *                      .run();
 *   double t = rs.trafficIncrease("dnn/ResNet", "Cloud",
 *                                 protection::Scheme::BP).value();
 *
 * Each grid cell simulates on a fresh DramSystem/ProtectionEngine, so
 * cells are independent and run embarrassingly parallel.
 *
 * Every cell streams its phases: a registry workload pulls them
 * straight off a fresh kernel, an explicit trace() entry through a
 * core::TracePhaseSource over the caller's trace. Memory stays
 * bounded by one phase regardless of workload size —
 * RunResult::peakPhaseBytes reports the high-water mark. Results are
 * deterministic and independent of the thread count and of the
 * replay mode (serial or pipelined).
 *
 * A cell keeps no state beyond its own fresh kernel and engine, so it
 * can be dropped at any chunk boundary: with a deadline() set, every
 * cell checks it before each chunk it pulls, and run() throws
 * DeadlineExceeded once it has passed.
 */

#ifndef MGX_SIM_EXPERIMENT_H
#define MGX_SIM_EXPERIMENT_H

#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner.h"

namespace mgx::sim {

/** Grid coordinates of one simulated run. */
struct RunKey
{
    std::string workload;  ///< registry name or explicit-trace label
    std::string platform;  ///< Platform::name
    protection::Scheme scheme = protection::Scheme::NP;
};

/** One grid cell's coordinates and simulation outcome. */
struct RunRecord
{
    RunKey key;
    RunResult result;
};

/**
 * The results of one experiment, in deterministic grid order
 * (workloads x platforms x schemes as declared).
 *
 * The normalized accessors return std::nullopt when the cell or its
 * NP baseline is missing — never a plausible-looking 0.0.
 */
class ResultSet
{
  public:
    void add(RunRecord record);

    const std::vector<RunRecord> &records() const { return records_; }
    bool empty() const { return records_.empty(); }

    /** The cell at @p key, or nullptr if it was never run. */
    const RunResult *find(const std::string &workload,
                          const std::string &platform,
                          protection::Scheme scheme) const;

    /**
     * Execution time of (workload, platform, scheme) normalized to the
     * same cell's NP run; nullopt if either run is missing.
     */
    std::optional<double> normalizedTime(const std::string &workload,
                                         const std::string &platform,
                                         protection::Scheme scheme) const;

    /** Total memory traffic normalized the same way. */
    std::optional<double>
    trafficIncrease(const std::string &workload,
                    const std::string &platform,
                    protection::Scheme scheme) const;

    /** Workload labels in first-seen order. */
    std::vector<std::string> workloads() const;

    /** Platform names in first-seen order. */
    std::vector<std::string> platforms() const;

    /** Schemes in first-seen order. */
    std::vector<protection::Scheme> schemes() const;

  private:
    std::vector<RunRecord> records_;
};

/**
 * Thrown by Experiment::run() once its deadline has passed: the run
 * stopped at a chunk boundary, and every thread it started has been
 * joined. A stopped run has no result, not even a partial one.
 */
struct DeadlineExceeded : std::runtime_error
{
    DeadlineExceeded() : std::runtime_error("deadline exceeded") {}
};

/** Builder for one workload x platform x scheme run grid. */
class Experiment
{
  public:
    /** Add one registry workload (see workload_registry.h). */
    Experiment &workload(const std::string &name);

    /** Add several registry workloads. */
    Experiment &workloads(const std::vector<std::string> &names);

    /**
     * Add an explicit pre-generated trace under @p label — for
     * schedules the registry cannot name (edited traces, replayed
     * files). Requires platforms() to be set. Its cells stream the
     * trace phase by phase (core::TracePhaseSource), like a kernel,
     * so they report the same footprint fields a registry cell would.
     */
    Experiment &trace(const std::string &label, core::Trace trace);

    /** Add one platform to the grid. */
    Experiment &platform(const Platform &p);

    /**
     * Set the platform axis. When never called, each registry
     * workload runs on its domain's defaultPlatform().
     */
    Experiment &platforms(const std::vector<Platform> &ps);

    /** Set the scheme axis (default: allSchemes()). */
    Experiment &schemes(const std::vector<protection::Scheme> &ss);

    /** Protection parameters shared by every cell (scheme overwritten). */
    Experiment &config(const protection::ProtectionConfig &cfg);

    /** Worker threads: 0 = hardware concurrency, 1 = serial. */
    Experiment &threads(u32 n);

    /**
     * Split each cell onto two threads at the engine/DRAM boundary
     * (see sim/pipeline.h): kernel streaming and protection-engine
     * expansion on one, DRAM timing on the other, over a bounded ring
     * of recorded DRAM commands — bitwise-identical results, but a
     * long single cell is no longer bound by one core. When never
     * called the choice is automatic: on when the grid has exactly one
     * cell (the pool cannot help), off otherwise (cross-cell
     * parallelism already fills the thread budget).
     *
     * The thread budget stays a true cap either way: a pipelined cell
     * costs two threads (engine + DRAM timer), so the pool runs at most
     * floor(threads / 2) cells at once, and pipelining is disabled
     * when the budget is a single thread.
     */
    Experiment &pipelined(bool on);

    /**
     * Stop at @p when: each cell checks the clock before it pulls its
     * next chunk of phases (usually one phase), so a cell overruns
     * @p when by at most one chunk, plus its kernel's construction if
     * the deadline passes before the first chunk. Unset, no cell ever
     * stops.
     */
    Experiment &deadline(std::chrono::steady_clock::time_point when);

    /**
     * Expand the grid, simulate every cell, return the results. Throws
     * DeadlineExceeded (after joining every thread) once the deadline
     * has passed.
     */
    ResultSet run() const;

  private:
    struct Entry
    {
        std::string label;
        bool isExplicitTrace = false;
        core::Trace explicitTrace;
    };

    std::vector<Entry> entries_;
    std::vector<Platform> platforms_;
    std::vector<protection::Scheme> schemes_;
    protection::ProtectionConfig config_;
    u32 threads_ = 0;
    std::optional<bool> pipelined_; ///< unset = automatic (see pipelined())
    std::chrono::steady_clock::time_point deadline_ =
        std::chrono::steady_clock::time_point::max();
};

} // namespace mgx::sim

#endif // MGX_SIM_EXPERIMENT_H
