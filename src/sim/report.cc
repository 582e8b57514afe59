#include "report.h"

#include <ostream>
#include <sstream>

namespace mgx::sim {
namespace {

/** JSON string escaping (control chars, quote, backslash). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Shortest round-trip double representation. */
std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonOptional(const std::optional<double> &v)
{
    return v ? jsonNumber(*v) : "null";
}

} // namespace

void
printTable(const ResultSet &rs, std::FILE *out)
{
    std::fprintf(out, "%-36s %-8s %-8s %12s %10s %10s %10s %5s\n",
                 "workload", "platform", "scheme", "time(ms)",
                 "norm.time", "traffic", "peak(KB)", "ring");
    std::fprintf(out,
                 "--------------------------------------------------"
                 "-----------------------------------------------\n");
    for (const auto &r : rs.records()) {
        const auto norm = rs.normalizedTime(
            r.key.workload, r.key.platform, r.key.scheme);
        const auto traffic = rs.trafficIncrease(
            r.key.workload, r.key.platform, r.key.scheme);
        std::fprintf(out, "%-36s %-8s %-8s %12.3f ",
                     r.key.workload.c_str(), r.key.platform.c_str(),
                     protection::schemeName(r.key.scheme),
                     r.result.seconds * 1e3);
        if (norm)
            std::fprintf(out, "%10.3f ", *norm);
        else
            std::fprintf(out, "%10s ", "n/a");
        if (traffic)
            std::fprintf(out, "%10.3f ", *traffic);
        else
            std::fprintf(out, "%10s ", "n/a");
        // The replay's phase-buffer high-water mark: the largest one
        // phase's estimated bytes (core::phaseArenaBytes).
        std::fprintf(out, "%10.1f ",
                     static_cast<double>(r.result.peakPhaseBytes) /
                         1024.0);
        // Pipelined cells report the command ring's occupancy
        // high-water mark; serial cells have no ring.
        if (r.result.pipelineMaxOccupancy > 0)
            std::fprintf(out, "%5llu\n",
                         static_cast<unsigned long long>(
                             r.result.pipelineMaxOccupancy));
        else
            std::fprintf(out, "%5s\n", "-");
    }
}

void
writeJson(const ResultSet &rs, std::ostream &out)
{
    out << "{\n  \"schema\": \"mgx-resultset-v1\",\n  \"records\": [";
    bool first = true;
    for (const auto &r : rs.records()) {
        const auto &t = r.result.traffic;
        out << (first ? "\n" : ",\n") << "    {"
            << "\"workload\": \"" << jsonEscape(r.key.workload)
            << "\", \"platform\": \"" << jsonEscape(r.key.platform)
            << "\", \"scheme\": \""
            << protection::schemeName(r.key.scheme) << "\",\n"
            << "     \"cycles\": " << r.result.totalCycles
            << ", \"computeCycles\": " << r.result.computeCycles
            << ", \"memoryCycles\": " << r.result.memoryCycles
            << ", \"seconds\": " << jsonNumber(r.result.seconds)
            << ", \"dramAccesses\": " << r.result.dramAccesses
            << ", \"logicalAccesses\": " << r.result.logicalAccesses
            << ", \"traceBytes\": " << r.result.traceBytes
            << ", \"peakPhaseBytes\": " << r.result.peakPhaseBytes
            << ",\n"
            << "     \"metaCache\": {\"hits\": "
            << r.result.metaCacheHits
            << ", \"misses\": " << r.result.metaCacheMisses
            << ", \"writebacks\": " << r.result.metaCacheWritebacks
            << "},\n"
            // Scheduling-dependent pipeline diagnostics: all zero on
            // serial replays, nondeterministic when pipelined — mask
            // them in bitwise comparisons.
            << "     \"pipeline\": {\"producerWaits\": "
            << r.result.pipelineProducerWaits
            << ", \"consumerWaits\": " << r.result.pipelineConsumerWaits
            << ", \"maxOccupancy\": " << r.result.pipelineMaxOccupancy
            << "},\n"
            // No replay is channel-sharded; the constant object keeps
            // mgx-resultset-v1 artifacts, and the served bodies pinned
            // byte for byte against them, unchanged.
            << "     \"shard\": {\"replayThreads\": 0, \"mergeWaits\": 0, "
               "\"channels\": []},\n"
            << "     \"traffic\": {\"data\": " << t.dataBytes
            << ", \"expand\": " << t.expandBytes
            << ", \"mac\": " << t.macBytes << ", \"vn\": " << t.vnBytes
            << ", \"tree\": " << t.treeBytes
            << ", \"total\": " << t.totalBytes() << "},\n"
            << "     \"normalizedTime\": "
            << jsonOptional(rs.normalizedTime(
                   r.key.workload, r.key.platform, r.key.scheme))
            << ", \"trafficIncrease\": "
            << jsonOptional(rs.trafficIncrease(
                   r.key.workload, r.key.platform, r.key.scheme))
            << "}";
        first = false;
    }
    out << "\n  ]\n}\n";
}

std::string
toJson(const ResultSet &rs)
{
    std::ostringstream out;
    writeJson(rs, out);
    return out.str();
}

} // namespace mgx::sim
