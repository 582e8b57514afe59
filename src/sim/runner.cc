#include "runner.h"

namespace mgx::sim {

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

bool
platformByName(const std::string &name, Platform &out)
{
    if (name == "cloud")
        out = cloudPlatform();
    else if (name == "edge")
        out = edgePlatform();
    else if (name == "graph")
        out = graphPlatform();
    else if (name == "genome")
        out = genomePlatform();
    else
        return false;
    return true;
}

bool
schemeByName(const std::string &name, protection::Scheme &out)
{
    for (protection::Scheme s : protection::kAllSchemes) {
        if (name == protection::schemeName(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t pos = list.find(',', start);
        if (pos == std::string::npos)
            pos = list.size();
        if (pos > start)
            parts.push_back(list.substr(start, pos - start));
        start = pos + 1;
    }
    return parts;
}

} // namespace mgx::sim
