/**
 * @file
 * mgx_client: one-shot CLI client for mgx_serve. Builds the /run
 * query from mgx_run-style flags, prints the response body to stdout,
 * and exits non-zero on any non-2xx answer — so shell scripts can
 * pipe the resultset JSON exactly as they would `mgx_run --json`.
 *
 * Usage:
 *   mgx_client --socket /tmp/mgx.sock --run core/matmul --schemes NP,BP
 *   mgx_client --port 8931 --stats
 *   mgx_client --socket /tmp/mgx.sock --shutdown
 */

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "common/parse.h"
#include "serve/client.h"
#include "sim/runner.h"

namespace {

int
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: mgx_client (--socket PATH | --port N [--host H]) "
        "ACTION\n"
        "actions:\n"
        "  --run W[,W...]         run workloads; prints resultset JSON\n"
        "    --platforms P[,...]  cloud, edge, graph, genome\n"
        "    --schemes S[,...]    NP, MGX, MGX_VN, MGX_MAC, BP\n"
        "  --stats                print the service's counters\n"
        "  --shutdown             ask the daemon to drain and exit\n"
        "options:\n"
        "  --timeout-ms N         per-request timeout (default 120000)\n"
        "  --retries N            retry transient failures (connect\n"
        "                         refused, IO error, reset after a\n"
        "                         partial response, 429/503) up to N\n"
        "                         times (default 0)\n"
        "  --backoff-ms B         base retry delay; doubles per retry\n"
        "                         with jitter (default 100)\n"
        "  --client-stats         print per-class attempt/failure\n"
        "                         counters to stderr when done\n"
        "  --repeat N             issue the request N times over one\n"
        "                         kept-alive connection; prints a\n"
        "                         latency summary to stderr (default 1)\n"
        "  --no-keep-alive        with --repeat: reconnect for every\n"
        "                         request instead of reusing the\n"
        "                         connection\n"
        "  --help                 this message\n");
    return out == stdout ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mgx;

    serve::SocketAddress addr;
    std::string workloads, platforms, schemes;
    bool stats = false, shutdown = false, client_stats = false;
    bool keep_alive = true;
    int timeout_ms = 120000;
    int repeat = 1;
    serve::RetryOptions retry;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "mgx_client: %s needs a value\n",
                             arg.c_str());
                std::exit(usage(stderr));
            }
            return argv[++i];
        };
        auto number = [&](u64 max) -> u64 {
            const char *v = value();
            u64 n = 0;
            if (!parseDecimal(v, max, n)) {
                std::fprintf(stderr,
                             "mgx_client: %s needs a non-negative integer "
                             "no larger than %llu, got '%s'\n",
                             arg.c_str(),
                             static_cast<unsigned long long>(max), v);
                std::exit(usage(stderr));
            }
            return n;
        };
        if (arg == "--help" || arg == "-h")
            return usage(stdout);
        if (arg == "--socket") {
            addr.unixPath = value();
        } else if (arg == "--port") {
            addr.port = static_cast<u16>(
                number(std::numeric_limits<u16>::max()));
        } else if (arg == "--host") {
            addr.host = value();
        } else if (arg == "--run" || arg == "--workload" ||
                   arg == "-w") {
            workloads = value();
        } else if (arg == "--platforms" || arg == "--platform") {
            platforms = value();
        } else if (arg == "--schemes" || arg == "--scheme") {
            schemes = value();
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg == "--shutdown") {
            shutdown = true;
        } else if (arg == "--timeout-ms") {
            timeout_ms = static_cast<int>(number(INT_MAX));
        } else if (arg == "--retries") {
            retry.retries = static_cast<int>(number(INT_MAX));
        } else if (arg == "--backoff-ms") {
            retry.backoffMs = static_cast<int>(number(INT_MAX));
        } else if (arg == "--client-stats") {
            client_stats = true;
        } else if (arg == "--repeat") {
            repeat = static_cast<int>(number(INT_MAX));
        } else if (arg == "--no-keep-alive") {
            keep_alive = false;
        } else {
            std::fprintf(stderr, "mgx_client: unknown option '%s'\n",
                         arg.c_str());
            return usage(stderr);
        }
    }

    if (addr.unixPath.empty() && addr.port == 0) {
        std::fprintf(stderr,
                     "mgx_client: need --socket PATH or --port N\n");
        return usage(stderr);
    }
    const int actions = (workloads.empty() ? 0 : 1) + (stats ? 1 : 0) +
                        (shutdown ? 1 : 0);
    if (actions != 1) {
        std::fprintf(stderr, "mgx_client: pick exactly one of --run, "
                             "--stats, --shutdown\n");
        return usage(stderr);
    }

    std::string target;
    if (stats) {
        target = "/stats";
    } else if (shutdown) {
        target = "/shutdown";
    } else {
        target = "/run";
        char sep = '?';
        // One workload= per name keeps commas inside parameterized
        // names (e.g. core/matmul?m=64) unambiguous after encoding.
        for (const auto &w : sim::splitCommas(workloads)) {
            target += sep;
            target += "workload=" + serve::percentEncode(w);
            sep = '&';
        }
        if (!platforms.empty()) {
            target += sep;
            target += "platforms=" + serve::percentEncode(platforms);
            sep = '&';
        }
        if (!schemes.empty()) {
            target += sep;
            // Scheme names are [A-Z_] and the comma separator must
            // stay literal, so the list goes through unencoded.
            target += "schemes=" + schemes;
        }
    }

    serve::HttpResponse resp;
    std::string error;
    int attempts = 0;
    serve::RetryStats rstats;
    const auto printClientStats = [&] {
        if (!client_stats)
            return;
        std::fprintf(
            stderr,
            "mgx_client: stats: attempts %llu, connect %llu, "
            "send %llu, recv %llu, partialResponse %llu, "
            "parse %llu, backpressure %llu\n",
            static_cast<unsigned long long>(rstats.attempts),
            static_cast<unsigned long long>(rstats.connectFailures),
            static_cast<unsigned long long>(rstats.sendFailures),
            static_cast<unsigned long long>(rstats.recvFailures),
            static_cast<unsigned long long>(rstats.partialResponses),
            static_cast<unsigned long long>(rstats.parseFailures),
            static_cast<unsigned long long>(rstats.backpressure));
    };
    if (repeat > 1) {
        // Latency-measurement mode: the same request N times, either
        // over one kept-alive connection or with a fresh connect per
        // request (--no-keep-alive) — the delta is the connect cost.
        serve::ClientConnection conn(addr);
        double total_ms = 0, best_ms = 0, worst_ms = 0;
        u64 reused = 0;
        for (int r = 0; r < repeat; ++r) {
            const auto t0 = std::chrono::steady_clock::now();
            serve::GetFailure f = serve::GetFailure::None;
            const bool ok =
                keep_alive
                    ? conn.get(target, &resp, &error, timeout_ms, &f)
                    : serve::httpGet(addr, target, &resp, &error,
                                     timeout_ms, &f);
            ++rstats.attempts;
            if (!ok) {
                rstats.count(f);
                printClientStats();
                std::fprintf(stderr,
                             "mgx_client: request %d/%d failed (%s): "
                             "%s\n",
                             r + 1, repeat, serve::getFailureName(f),
                             error.c_str());
                return 1;
            }
            const double ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            total_ms += ms;
            best_ms = r == 0 ? ms : std::min(best_ms, ms);
            worst_ms = std::max(worst_ms, ms);
            if (keep_alive && conn.lastReused())
                ++reused;
            if (resp.status < 200 || resp.status >= 300) {
                printClientStats();
                std::fprintf(stderr, "mgx_client: HTTP %d %s\n",
                             resp.status, resp.reason.c_str());
                return 1;
            }
        }
        printClientStats();
        std::fprintf(stderr,
                     "mgx_client: %d requests (%llu on reused "
                     "connections): mean %.3f ms, min %.3f ms, "
                     "max %.3f ms\n",
                     repeat, static_cast<unsigned long long>(reused),
                     total_ms / repeat, best_ms, worst_ms);
        std::fputs(resp.body.c_str(), stdout);
        return 0;
    }

    if (!serve::httpGetRetry(addr, target, &resp, &error, timeout_ms,
                             retry, &attempts, &rstats)) {
        printClientStats();
        if (attempts > 1)
            std::fprintf(stderr,
                         "mgx_client: giving up after %d attempts: "
                         "%s\n",
                         attempts, error.c_str());
        else
            std::fprintf(stderr, "mgx_client: %s\n", error.c_str());
        return 1;
    }
    printClientStats();
    std::fputs(resp.body.c_str(), stdout);
    if (resp.status < 200 || resp.status >= 300) {
        if ((resp.status == 429 || resp.status == 503) && attempts > 1)
            std::fprintf(stderr,
                         "mgx_client: HTTP %d %s (still after %d "
                         "attempts)\n",
                         resp.status, resp.reason.c_str(), attempts);
        else
            std::fprintf(stderr, "mgx_client: HTTP %d %s\n",
                         resp.status, resp.reason.c_str());
        return 1;
    }
    return 0;
}
