#include "runner.h"

#include "common/log.h"
#include "experiment.h"

namespace mgx::sim {

namespace {

/**
 * The NP baseline and @p s entries of @p results. A missing entry is a
 * caller bug; panic() rather than assert() so the contract holds in
 * NDEBUG builds too instead of dereferencing end().
 */
auto
lookup(const std::map<protection::Scheme, RunResult> &results,
       protection::Scheme s)
{
    const auto np = results.find(protection::Scheme::NP);
    const auto it = results.find(s);
    if (np == results.end())
        panic("SchemeComparison: no NP baseline was run");
    if (it == results.end())
        panic("SchemeComparison: scheme %s was not run",
              protection::schemeName(s));
    return std::pair{np, it};
}

} // namespace

double
SchemeComparison::normalizedTime(protection::Scheme s) const
{
    const auto [np, it] = lookup(results, s);
    if (np->second.totalCycles == 0)
        panic("SchemeComparison: NP baseline has zero cycles");
    return static_cast<double>(it->second.totalCycles) /
           static_cast<double>(np->second.totalCycles);
}

double
SchemeComparison::trafficIncrease(protection::Scheme s) const
{
    const auto [np, it] = lookup(results, s);
    if (np->second.traffic.totalBytes() == 0)
        panic("SchemeComparison: NP baseline has zero traffic");
    return static_cast<double>(it->second.traffic.totalBytes()) /
           static_cast<double>(np->second.traffic.totalBytes());
}

SchemeComparison
compareSchemes(const core::Trace &trace, const Platform &platform,
               const protection::ProtectionConfig &base,
               const std::vector<protection::Scheme> &schemes)
{
    ResultSet rs = Experiment()
                       .trace("trace", trace)
                       .platform(platform)
                       .schemes(schemes)
                       .config(base)
                       .run();
    return rs.comparison("trace", platform.name);
}

std::vector<protection::Scheme>
allSchemes()
{
    using protection::Scheme;
    return {Scheme::NP, Scheme::MGX, Scheme::MGX_VN, Scheme::MGX_MAC,
            Scheme::BP};
}

std::vector<protection::Scheme>
trafficSchemes()
{
    using protection::Scheme;
    return {Scheme::NP, Scheme::MGX, Scheme::BP};
}

Platform
cloudPlatform()
{
    return {"Cloud", 700.0, dram::ddr4_2400(4)};
}

Platform
edgePlatform()
{
    return {"Edge", 900.0, dram::ddr4_2400(1)};
}

Platform
graphPlatform()
{
    return {"Graph", 800.0, dram::ddr4_2400(4)};
}

Platform
genomePlatform()
{
    return {"Genome", 800.0, dram::ddr4_2400(4)};
}

} // namespace mgx::sim
