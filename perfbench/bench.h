/**
 * @file
 * What every benchmark workload shares: the command-line options, and
 * the report a workload fills in — gated end-to-end metrics, per-layer
 * metrics from the traced run, printed-only metrics, and the
 * correctness tally (every checked operation is attempted; a wrong or
 * failed one is failed).
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string referenceDir; ///< committed reference outputs
    std::string outDir;       ///< results and span files
    std::string runDir;       ///< sockets of the served workloads
    std::string serveBinary;  ///< mgx_serve, for fleet_mix
};

/** A printed-only metric (not gated). */
struct Note
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> endToEnd; ///< gated, trace 0
    std::map<std::string, double> layers;   ///< per-layer, trace 1
    std::vector<Note> notes;                ///< printed only
    std::vector<double> repWalls;           ///< every untraced rep, in order
    std::vector<std::string> lines;         ///< free-form report lines
    std::vector<std::string> errors;        ///< first few failures

    /** Count one checked operation; @p ok false marks it failed. */
    void check(bool ok, const std::string &what);

    void note(const std::string &name, double value,
              const std::string &unit)
    {
        notes.push_back({name, value, unit});
    }
};

/** Set-up rounds per run, and set-ups per round; setup_s is the median
 *  of the rounds' mean set-up times. */
inline constexpr int kSetupRounds = 7;
inline constexpr int kSetupsPerRound = 3;

/**
 * A run's timed set-ups: kSetupRounds rounds spread evenly over its
 * measured seconds, each kSetupsPerRound set-ups back to back. On a
 * shared 4-vCPU virtual machine the CPU speed changed by up to 1.5x
 * between moments a fraction of a second apart, so one set-up fell into
 * a fast or a slow moment and a median of single set-ups jumped between
 * the two; a round's mean spans several moments, and rounds spread over
 * the run see the host the reps they are compared with see.
 */
class SetupSchedule
{
  public:
    /** @p once performs one set-up and returns its seconds. */
    SetupSchedule(double seconds, std::function<double()> once)
        : seconds_(seconds), once_(std::move(once))
    {
    }

    /** Run the rounds due @p elapsed seconds into the measurement (the
     *  first is due at 0). */
    void due(double elapsed);

    /** Run the rounds still owed; the median of all rounds. */
    double finish();

  private:
    void round();

    double seconds_;
    std::function<double()> once_;
    std::vector<double> rounds_; ///< mean set-up seconds of each round
};

/** Fixed-size hot set and cold-cell family of the served mixes. */
const std::vector<std::string> &servedHotWorkloads();
extern const char *const kColdWorkload;
extern const char *const kScaledPokec;

/** The workloads; each returns the filled report. */
Report runPaperGrid(const Options &opt);
Report runScaledPokec(const Options &opt);
Report runServeMix(const Options &opt);
Report runFleetMix(const Options &opt);

/** Regenerate every committed reference under opt.referenceDir. */
int writeReferences(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
