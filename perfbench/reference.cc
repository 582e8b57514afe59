#include "reference.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "protection/scheme.h"

namespace perfbench {

const char *const kFieldNames[kFieldCount] = {
    "cycles",          "computeCycles",   "memoryCycles",
    "traffic.data",    "traffic.expand",  "traffic.mac",
    "traffic.vn",      "traffic.tree",    "dramAccesses",
    "logicalAccesses", "metaCache.hits",  "metaCache.misses",
    "metaCache.writebacks",
};

CellOutputs
cellOutputs(const mgx::sim::RunRecord &record)
{
    const mgx::sim::RunResult &r = record.result;
    CellOutputs out;
    out.key = record.key.workload + "|" + record.key.platform + "|" +
              mgx::protection::schemeName(record.key.scheme);
    out.values = {r.totalCycles,        r.computeCycles,
                  r.memoryCycles,       r.traffic.dataBytes,
                  r.traffic.expandBytes, r.traffic.macBytes,
                  r.traffic.vnBytes,    r.traffic.treeBytes,
                  r.dramAccesses,       r.logicalAccesses,
                  r.metaCacheHits,      r.metaCacheMisses,
                  r.metaCacheWritebacks};
    return out;
}

bool
loadReference(const std::string &path, Reference *out, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot read reference " + path;
        return false;
    }
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        CellOutputs cell;
        std::getline(fields, cell.key, '\t');
        for (std::size_t f = 0; f < kFieldCount; ++f) {
            std::string v;
            if (!std::getline(fields, v, '\t') || v.empty()) {
                *error = path + ":" + std::to_string(lineNo) +
                         ": expected " + std::to_string(kFieldCount) +
                         " fields";
                return false;
            }
            char *end = nullptr;
            cell.values[f] = std::strtoull(v.c_str(), &end, 10);
            if (*end != '\0') {
                *error = path + ":" + std::to_string(lineNo) +
                         ": bad number '" + v + "'";
                return false;
            }
        }
        (*out)[cell.key] = cell;
    }
    return true;
}

bool
writeReference(const std::string &path,
               const std::vector<CellOutputs> &cells)
{
    std::ostringstream out;
    out << "# key";
    for (const char *name : kFieldNames)
        out << '\t' << name;
    out << '\n';
    for (const CellOutputs &cell : cells) {
        out << cell.key;
        for (std::uint64_t v : cell.values)
            out << '\t' << v;
        out << '\n';
    }
    return writeFile(path, out.str());
}

std::vector<std::string>
compareCell(const Reference &ref, const CellOutputs &got)
{
    auto it = ref.find(got.key);
    if (it == ref.end())
        return {got.key + ": not in the reference"};
    std::vector<std::string> diffs;
    for (std::size_t f = 0; f < kFieldCount; ++f)
        if (got.values[f] != it->second.values[f])
            diffs.push_back(got.key + ": " + kFieldNames[f] + " = " +
                            std::to_string(got.values[f]) +
                            ", reference " +
                            std::to_string(it->second.values[f]));
    return diffs;
}

std::string
servedBodyPath(const std::string &dir, const std::string &workload)
{
    std::string name;
    for (char c : workload)
        name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
    return dir + "/" + name + ".json";
}

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    *out = buf.str();
    return true;
}

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
    return static_cast<bool>(out.flush());
}

} // namespace perfbench
