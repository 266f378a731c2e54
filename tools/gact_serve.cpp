// gact_serve — the long-running solve server binary.
//
// Binds a TCP port, keeps one resident nogood pool warm across every
// request, and drains gracefully on SIGINT/SIGTERM: stop accepting,
// finish admitted solves, snapshot the pool, exit 0. The wire protocol
// and threading model live in src/service/server.h.
//
// Usage:
//   gact_serve [--port N] [--threads N] [--queue-depth N]
//              [--max-connections N] [--pool-file PATH]
//              [--snapshot-every SECONDS] [--timeout-ms N]
//              [--bind ADDR]
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "service/server.h"
#include "util/parse.h"

namespace {

void usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --port N             TCP port (default 7461; 0 = ephemeral)\n"
        "  --bind ADDR          bind address (default 127.0.0.1)\n"
        "  --threads N          solve worker threads, 1..256 (default 2)\n"
        "  --queue-depth N      admission queue bound (default 16)\n"
        "  --max-connections N  live-connection bound; accepts beyond\n"
        "                       it are refused (default 256)\n"
        "  --pool-file PATH     load/snapshot the nogood pool here\n"
        "  --snapshot-every S   snapshot period in seconds (default 0:\n"
        "                       only the final shutdown snapshot)\n"
        "  --timeout-ms N       default queue-wait deadline per request\n"
        "                       (default 0: none)\n",
        argv0);
}

}  // namespace

int main(int argc, char** argv) {
    gact::service::ServiceConfig config;
    config.port = 7461;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        const auto number = [&](std::uint64_t min, std::uint64_t max) {
            const auto n = gact::util::parse_unsigned(value(), min, max);
            if (!n.has_value()) {
                std::fprintf(stderr, "bad %s\n", arg.c_str());
                std::exit(2);
            }
            return *n;
        };
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--port") {
            config.port = static_cast<std::uint16_t>(number(0, 65535));
        } else if (arg == "--bind") {
            config.bind_address = value();
        } else if (arg == "--threads") {
            config.workers =
                static_cast<unsigned>(number(1, gact::util::kMaxThreads));
        } else if (arg == "--queue-depth") {
            config.queue_depth = number(1, SIZE_MAX);
        } else if (arg == "--max-connections") {
            config.max_connections = number(1, SIZE_MAX);
        } else if (arg == "--pool-file") {
            config.pool_file = value();
        } else if (arg == "--snapshot-every") {
            config.snapshot_every_seconds =
                static_cast<unsigned>(number(0, UINT_MAX));
        } else if (arg == "--timeout-ms") {
            config.default_timeout_ms = number(0, SIZE_MAX);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    gact::service::SolveServer server(std::move(config));
    const std::string err = server.start();
    if (!err.empty()) {
        std::fprintf(stderr, "gact_serve: %s\n", err.c_str());
        return 1;
    }
    if (!server.startup_warning().empty()) {
        std::fprintf(stderr, "gact_serve: warning: %s\n",
                     server.startup_warning().c_str());
    }
    std::printf("gact_serve listening on port %u\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    gact::service::install_stop_signal_handlers(server);
    server.wait_until_stop_requested();
    std::printf("gact_serve: draining...\n");
    std::fflush(stdout);
    server.stop();
    gact::service::uninstall_stop_signal_handlers();
    std::printf("gact_serve: stopped\n");
    return 0;
}
