/**
 * @file
 * Failpoint registry: deterministic fault injection for tests and
 * fault drills against a live daemon.
 *
 * A failpoint is a named site in production code where a failure can
 * be simulated on demand — a syscall boundary in trace_io, an accept
 * or recv in the service loop. Sites evaluate `Point::fire()`; the
 * call is a cheap no-op unless the point has been armed, either
 * programmatically (`arm`, `armSpecList`) or through the
 * `MGX_FAILPOINTS` environment variable, which is parsed once when
 * the registry first initializes:
 *
 *   MGX_FAILPOINTS="trace_io.write.enospc=once,serve.recv.fail=every:2"
 *
 * Arm specs:
 *   off          never fires (default)
 *   once         fires on the first evaluation only
 *   every:N      fires on every Nth evaluation (N >= 1)
 *   always       fires on every evaluation
 *
 * Both lists go through one parser. A malformed entry in
 * `MGX_FAILPOINTS` is fatal, naming the entry, so a misspelled fault
 * drill cannot pass by injecting nothing.
 *
 * Points register themselves on first `Point::get(name)` — usually
 * from a namespace-scope `static Point &` in the file that owns the
 * site, so every failpoint in a linked binary is visible to
 * `failpoint::all()` before any test arms it. Specs for names that
 * have not registered yet are held and applied on registration, so
 * env arming works regardless of static-init order.
 *
 * Everything is thread-safe; `fire()` takes a per-point mutex, so
 * keep sites at coarse boundaries (per file, per phase, per request —
 * never per trace line).
 */
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace mgx::failpoint {

class Point
{
  public:
    /** Register-or-fetch; the returned reference is stable forever. */
    static Point &get(std::string_view name);

    /**
     * Evaluate the point: true when the armed spec says this site
     * should simulate its failure now. Counts evaluations and hits.
     */
    bool fire();

    /** Arm with a spec string (see file comment). False = bad spec. */
    bool arm(const std::string &spec);
    void disarm();

    const std::string &name() const { return name_; }
    std::string spec() const;
    u64 evaluations() const;
    u64 hits() const;

    ~Point(); // out of line: State is complete only in failpoint.cc

  private:
    explicit Point(std::string name);
    Point(const Point &) = delete;
    Point &operator=(const Point &) = delete;

    friend class Registry;
    struct State;
    std::unique_ptr<State> state_;
    std::string name_;
};

/** One registered point's observable state, for tests and stats. */
struct PointInfo {
    std::string name;
    std::string spec;
    u64 evaluations = 0;
    u64 hits = 0;
};

/**
 * Arm a comma-separated `name=spec` list (the MGX_FAILPOINTS
 * grammar). Unknown names are held and applied when the point
 * registers. Returns false and fills `error` on a malformed entry,
 * whether or not its point has registered; earlier entries in the
 * list stay armed.
 */
bool armSpecList(const std::string &list, std::string *error = nullptr);

/** Disarm every registered point and drop pending specs. */
void disarmAll();

/** Reset hit/evaluation counters on every registered point. */
void resetCounters();

/** Snapshot of every registered point, sorted by name. */
std::vector<PointInfo> all();

} // namespace mgx::failpoint
