/**
 * @file
 * mgx_fleet: front-end proxy + supervisor for a fleet of mgx_serve
 * workers. Forks N workers (each on its own unix socket), routes
 * /run by consistent hash of the request's cell set, probes
 * /healthz, restarts dead workers with
 * capped backoff, and fails requests over so a SIGKILLed worker
 * never surfaces as a client error. See src/fleet/ and
 * docs/ARCHITECTURE.md ("The fleet layer").
 *
 * Usage:
 *   mgx_fleet --socket /tmp/mgx.sock --workers 3
 *   mgx_fleet --port 0 --workers 3     # prints the bound port
 */

#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include <poll.h>
#include <sys/stat.h>

#include "common/parse.h"
#include "fleet/fleet.h"

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
        "usage: mgx_fleet [options]\n"
        "  --socket PATH          proxy listens on a unix socket\n"
        "                         (default: TCP loopback)\n"
        "  --port N               proxy TCP port (0 = kernel-assigned;\n"
        "                         printed on startup)\n"
        "  --workers N            mgx_serve worker processes\n"
        "                         (default 3, at most 64)\n"
        "  --socket-dir DIR       where worker sockets live (default:\n"
        "                         alongside --socket, else /tmp)\n"
        "  --worker-threads N     handler threads per worker\n"
        "                         (default 2, at most 1024)\n"
        "  --serve-binary PATH    the mgx_serve executable (default:\n"
        "                         found next to mgx_fleet)\n"
        "  --probe-interval-ms N  /healthz cadence (default 200)\n"
        "  --quiet                no startup/shutdown chatter\n"
        "  --help                 this message\n");
    return out == stdout ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mgx;

    fleet::FleetOptions opts;
    bool quiet = false;
    std::string socket_dir;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "mgx_fleet: %s needs a value\n",
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
                             "mgx_fleet: %s needs a non-negative integer "
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
            opts.proxy.listen.unixPath = value();
        } else if (arg == "--port") {
            opts.proxy.listen.port = static_cast<u16>(
                number(std::numeric_limits<u16>::max()));
        } else if (arg == "--workers") {
            opts.supervisor.workers =
                static_cast<int>(number(kMaxFlagProcesses));
        } else if (arg == "--socket-dir") {
            socket_dir = value();
        } else if (arg == "--worker-threads") {
            opts.supervisor.workerThreads =
                static_cast<u32>(number(kMaxFlagThreads));
        } else if (arg == "--serve-binary") {
            opts.supervisor.serveBinary = value();
        } else if (arg == "--probe-interval-ms") {
            opts.supervisor.probeIntervalMs =
                static_cast<int>(number(INT_MAX));
        } else if (arg == "--quiet" || arg == "-q") {
            quiet = true;
        } else {
            std::fprintf(stderr, "mgx_fleet: unknown option '%s'\n",
                         arg.c_str());
            return usage(stderr);
        }
    }

    if (socket_dir.empty()) {
        if (!opts.proxy.listen.unixPath.empty()) {
            const std::string &p = opts.proxy.listen.unixPath;
            const std::size_t slash = p.rfind('/');
            socket_dir =
                slash == std::string::npos ? "." : p.substr(0, slash);
        } else {
            socket_dir = "/tmp";
        }
    }
    ::mkdir(socket_dir.c_str(), 0777); // best effort; bind reports
    opts.supervisor.socketDir = socket_dir;

    fleet::Fleet f(opts);
    f.start();

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    if (!quiet)
        std::printf("mgx_fleet: %d workers behind %s\n",
                    opts.supervisor.workers,
                    f.proxy().addressDescription().c_str());
    std::fflush(stdout);

    while (!g_signaled && !f.stopping())
        ::poll(nullptr, 0, 100);

    f.shutdown();

    if (!quiet) {
        const auto &m = f.proxy().metrics();
        std::printf(
            "mgx_fleet: drained; routed %llu, failovers %llu, "
            "restarts %llu\n",
            static_cast<unsigned long long>(
                m.routed.load(std::memory_order_relaxed)),
            static_cast<unsigned long long>(
                m.failovers.load(std::memory_order_relaxed)),
            static_cast<unsigned long long>(
                f.supervisor().restartCount()));
    }
    return 0;
}
