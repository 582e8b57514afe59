/**
 * @file
 * mgx_serve: the experiment service daemon. Listens on a unix socket
 * (or TCP loopback) and serves /run, /stats, /healthz and /shutdown.
 * See src/serve/server.h for semantics.
 *
 * Usage:
 *   mgx_serve --socket /tmp/mgx.sock
 *   mgx_serve --port 0 --workers 4          # prints the bound port
 */

#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include <poll.h>

#include "common/parse.h"
#include "serve/server.h"

namespace {

volatile std::sig_atomic_t g_signaled = 0;

void
onSignal(int)
{
    g_signaled = 1;
}

int
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: mgx_serve [options]\n"
        "  --socket PATH          listen on a unix socket (default:\n"
        "                         TCP loopback)\n"
        "  --port N               TCP port (0 = kernel-assigned; the\n"
        "                         bound port is printed on startup)\n"
        "  --workers N            request handler threads (default 2,\n"
        "                         at most 1024)\n"
        "  --queue N              admission queue capacity before\n"
        "                         connections get 429 (default 16)\n"
        "  --deadline-ms N        wall-clock budget per /run request:\n"
        "                         on expiry the running cell stops\n"
        "                         and the request gets 503 (default\n"
        "                         0 = none)\n"
        "  --result-memo N        finished cells kept in memory\n"
        "                         (LRU; warm repeats skip the engine;\n"
        "                         default 64, 0 keeps none)\n"
        "  --keep-alive-idle-ms N close a kept-alive connection (the\n"
        "                         client asks per request with\n"
        "                         Connection: keep-alive) after N ms\n"
        "                         without a next request (default 2000)\n"
        "  --quiet                no startup/shutdown chatter\n"
        "  --help                 this message\n");
    return out == stdout ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mgx;

    serve::ServerOptions opts;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "mgx_serve: %s needs a value\n",
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
                             "mgx_serve: %s needs a non-negative integer "
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
            opts.listen.unixPath = value();
        } else if (arg == "--port") {
            opts.listen.port = static_cast<u16>(
                number(std::numeric_limits<u16>::max()));
        } else if (arg == "--workers") {
            opts.workers = static_cast<u32>(number(kMaxFlagThreads));
        } else if (arg == "--queue") {
            opts.admissionCapacity =
                number(std::numeric_limits<std::size_t>::max());
        } else if (arg == "--deadline-ms") {
            opts.requestDeadlineMs = static_cast<int>(number(INT_MAX));
        } else if (arg == "--result-memo") {
            opts.resultMemoCapacity =
                number(std::numeric_limits<std::size_t>::max());
        } else if (arg == "--keep-alive-idle-ms") {
            opts.keepAliveIdleMs = static_cast<int>(number(INT_MAX));
        } else if (arg == "--quiet" || arg == "-q") {
            quiet = true;
        } else {
            std::fprintf(stderr, "mgx_serve: unknown option '%s'\n",
                         arg.c_str());
            return usage(stderr);
        }
    }

    serve::Server server(opts);
    server.start();

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    if (!quiet)
        std::printf("mgx_serve: listening on %s\n",
                    server.addressDescription().c_str());
    std::fflush(stdout);

    // Sleep until a signal or a /shutdown request flips the flag.
    while (!g_signaled && !server.stopping())
        ::poll(nullptr, 0, 100);

    server.shutdown();

    if (!quiet) {
        const auto s = server.metricsSnapshot();
        std::printf("mgx_serve: drained; served %llu, rejected %llu, "
                    "cells %llu, collapsed %llu\n",
                    static_cast<unsigned long long>(s.served),
                    static_cast<unsigned long long>(s.rejected),
                    static_cast<unsigned long long>(s.cellsRun),
                    static_cast<unsigned long long>(s.dedupCollapsed));
    }
    return 0;
}
