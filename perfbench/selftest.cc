/**
 * @file
 * The benchmark's own tests: the percentile helper, the reference
 * comparator, and span self-time arithmetic. Run with
 * `python3 perfbench/run.py --self-test` (or ctest in the build dir);
 * exits nonzero when any check fails.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "reference.h"
#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                         __LINE__, #cond);                                 \
            ++failures;                                                    \
        }                                                                  \
    } while (0)

using namespace perfbench;

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i)
        v.push_back(static_cast<double>(i));
    return v;
}

void
testPercentile()
{
    // 1000 samples: rank 990, exactly ten beyond it.
    auto p99 = percentile(ramp(1000), 0.99);
    CHECK(p99.has_value() && *p99 == 990.0);
    // 999 samples leave nine beyond the p99 rank: refused.
    CHECK(!percentile(ramp(999), 0.99).has_value());
    CHECK(!percentile(ramp(100), 0.99).has_value());
    // Order does not matter.
    std::vector<double> shuffled = ramp(1000);
    std::swap(shuffled[0], shuffled[999]);
    std::swap(shuffled[10], shuffled[500]);
    CHECK(*percentile(shuffled, 0.99) == 990.0);
    // p50 of 20 needs ten beyond: rank 10.
    CHECK(*percentile(ramp(20), 0.5) == 10.0);
    CHECK(!percentile(ramp(19), 0.5).has_value());
    CHECK(!percentile({}, 0.5).has_value());
    CHECK(median({3.0, 1.0, 2.0}) == 2.0);
    CHECK(median({4.0, 1.0, 2.0, 3.0}) == 2.5);
    // Four or more: the extremes are dropped; fewer: plain mean.
    CHECK(trimmedMean({9.0, 1.0, 2.0, 4.0}) == 3.0);
    CHECK(trimmedMean({1.0, 2.0, 6.0}) == 3.0);
    CHECK(trimmedMean({}) == 0.0);
}

void
testComparator()
{
    std::vector<CellOutputs> cells(3);
    for (std::size_t c = 0; c < cells.size(); ++c) {
        cells[c].key = "w" + std::to_string(c) + "|Cloud|BP";
        for (std::size_t f = 0; f < kFieldCount; ++f)
            cells[c].values[f] = 1000 * c + f;
    }
    const std::string path = "perfbench_selftest_cells.tsv";
    CHECK(writeReference(path, cells));
    Reference ref;
    std::string error;
    CHECK(loadReference(path, &ref, &error));
    std::remove(path.c_str());
    CHECK(ref.size() == cells.size());
    for (const CellOutputs &c : cells)
        CHECK(compareCell(ref, c).empty());

    // One flipped field in one cell: exactly that difference.
    CellOutputs flipped = cells[1];
    flipped.values[10] ^= 1; // metaCache.hits
    const auto diffs = compareCell(ref, flipped);
    CHECK(diffs.size() == 1);
    CHECK(!diffs.empty() &&
          diffs[0].find("metaCache.hits") != std::string::npos);
    CHECK(compareCell(ref, cells[0]).empty());

    CellOutputs unknown = cells[2];
    unknown.key = "nowhere|Cloud|NP";
    CHECK(compareCell(ref, unknown).size() == 1);
}

Span
span(std::uint64_t id, std::uint64_t parent, std::int64_t start,
     std::int64_t end)
{
    Span s;
    s.name = "t";
    s.id = id;
    s.parent = parent;
    s.startNs = start;
    s.endNs = end;
    return s;
}

void
testSelfTime()
{
    // Parent [0,100) with children [10,30) and [20,50) (overlapping:
    // covered once, 40) and [90,120) (clipped to 10): self 50.
    const std::vector<Span> spans = {
        span(1, 0, 0, 100),  span(2, 1, 10, 30), span(3, 1, 20, 50),
        span(4, 1, 90, 120), span(5, 2, 12, 18), span(6, 99, 0, 7),
    };
    const auto self = selfTimes(spans);
    CHECK(self[0] == 50);
    CHECK(self[1] == 14); // 20 minus its child's 6
    CHECK(self[2] == 30);
    CHECK(self[3] == 30);
    CHECK(self[4] == 6);
    CHECK(self[5] == 7); // unknown parent: a root

    // Spans recorded through the tracer nest the same way.
    Tracer tracer;
    {
        ScopedSpan outer(tracer, "outer", 0);
        ScopedSpan inner(tracer, "inner", outer.id());
    }
    const auto recorded = tracer.collect();
    CHECK(recorded.size() == 2);
    const auto rself = selfTimes(recorded);
    for (std::size_t i = 0; i < recorded.size(); ++i)
        CHECK(rself[i] >= 0 &&
              rself[i] <= recorded[i].endNs - recorded[i].startNs);
}

} // namespace

int
main()
{
    testPercentile();
    testComparator();
    testSelfTime();
    if (failures != 0) {
        std::fprintf(stderr, "perfbench_test: %d check(s) failed\n",
                     failures);
        return 1;
    }
    std::printf("perfbench_test: all checks passed\n");
    return 0;
}
