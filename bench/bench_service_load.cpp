// bench_service_load — closed-loop load generator for the solve server.
//
// Starts an in-process SolveServer on an ephemeral loopback port, then
// hammers it from N concurrent connections, each a closed loop (send a
// solve request, await the reply, repeat) for a fixed duration. Reports
// total requests/s plus p50/p95/p99 served latency, and splits the cold
// first request (the solve that actually searches) from the warm
// remainder (served out of the resident nogood pool) — the number that
// justifies a resident server over per-request process launches.
//
// Usage: bench_service_load [SECONDS] [CONNECTIONS] [SCENARIO]
//   defaults: 10 seconds, 8 connections, chr2-2p-wf
// SECONDS is a whole number in 1..86400; CONNECTIONS (one client thread
// each) is in 1..256. A malformed or out-of-range value exits 2.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "service/client.h"
#include "service/server.h"
#include "util/json.h"
#include "util/parse.h"

namespace {

using Clock = std::chrono::steady_clock;

struct WorkerResult {
    std::vector<double> latencies_ms;
    std::size_t failures = 0;
};

double percentile(std::vector<double>& sorted, double p) {
    if (sorted.empty()) return 0.0;
    const double rank = p * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

int main(int argc, char** argv) {
    std::uint64_t seconds = 10;
    unsigned connections = 8;
    std::string scenario = "chr2-2p-wf";

    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--", 2) == 0) {
            std::fprintf(stderr,
                         "usage: %s [SECONDS] [CONNECTIONS] [SCENARIO]\n",
                         argv[0]);
            return 2;
        }
        switch (positional++) {
            case 0: {
                const auto n = gact::util::parse_unsigned(
                    argv[i], 1, gact::util::kMaxSeconds);
                if (!n.has_value()) {
                    std::fprintf(stderr, "bad SECONDS '%s'\n", argv[i]);
                    return 2;
                }
                seconds = *n;
                break;
            }
            case 1: {
                // One client thread per connection: bounded like every
                // other thread count on a command line.
                const auto n = gact::util::parse_unsigned(
                    argv[i], 1, gact::util::kMaxThreads);
                if (!n.has_value()) {
                    std::fprintf(stderr, "bad CONNECTIONS '%s'\n", argv[i]);
                    return 2;
                }
                connections = static_cast<unsigned>(*n);
                break;
            }
            case 2: scenario = argv[i]; break;
            default:
                std::fprintf(stderr, "too many arguments\n");
                return 2;
        }
    }

    gact::service::ServiceConfig config;
    config.port = 0;  // ephemeral
    config.workers = std::max(2u, std::thread::hardware_concurrency() / 2);
    config.queue_depth = connections * 2;
    gact::service::SolveServer server(std::move(config));
    const std::string err = server.start();
    if (!err.empty()) {
        std::fprintf(stderr, "server start failed: %s\n", err.c_str());
        return 1;
    }
    const std::uint16_t port = server.port();

    // Cold request first, alone: the one solve that actually searches.
    // Everything after it is served out of the now-warm resident pool,
    // so the cold/warm split below is deterministic, not racy.
    double cold_ms = 0.0;
    {
        gact::service::ServiceClient warmup;
        std::string cerr = warmup.connect("127.0.0.1", port);
        if (!cerr.empty()) {
            std::fprintf(stderr, "connect failed: %s\n", cerr.c_str());
            server.stop();
            return 1;
        }
        gact::util::Json req = gact::util::Json::object();
        req.set("type", gact::util::Json("solve"));
        req.set("scenario", gact::util::Json(scenario));
        const auto t0 = Clock::now();
        const auto reply = warmup.request(req, &cerr);
        const auto t1 = Clock::now();
        if (!reply.has_value()) {
            std::fprintf(stderr, "cold request failed: %s\n", cerr.c_str());
            server.stop();
            return 1;
        }
        const gact::util::Json* ok = reply->find("ok");
        if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
            std::fprintf(stderr, "cold request rejected: %s\n",
                         reply->dump().c_str());
            server.stop();
            return 1;
        }
        cold_ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
    }

    std::atomic<bool> stop{false};
    std::vector<WorkerResult> results(connections);
    std::vector<std::thread> threads;
    threads.reserve(connections);
    for (unsigned c = 0; c < connections; ++c) {
        threads.emplace_back([&, c] {
            WorkerResult& result = results[c];
            gact::service::ServiceClient client;
            if (!client.connect("127.0.0.1", port).empty()) {
                ++result.failures;
                return;
            }
            gact::util::Json req = gact::util::Json::object();
            req.set("type", gact::util::Json("solve"));
            req.set("scenario", gact::util::Json(scenario));
            while (!stop.load(std::memory_order_relaxed)) {
                const auto t0 = Clock::now();
                const auto reply = client.request(req);
                const auto t1 = Clock::now();
                if (!reply.has_value()) {
                    ++result.failures;
                    return;
                }
                const gact::util::Json* ok = reply->find("ok");
                if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
                    ++result.failures;
                    continue;
                }
                result.latencies_ms.push_back(
                    std::chrono::duration<double, std::milli>(t1 - t0)
                        .count());
            }
        });
    }

    const auto bench_start = Clock::now();
    std::this_thread::sleep_for(std::chrono::seconds(seconds));
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads) t.join();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - bench_start).count();

    std::vector<double> warm;
    std::size_t failures = 0;
    for (const WorkerResult& r : results) {
        warm.insert(warm.end(), r.latencies_ms.begin(),
                    r.latencies_ms.end());
        failures += r.failures;
    }
    std::sort(warm.begin(), warm.end());

    server.stop();

    if (warm.empty()) {
        std::fprintf(stderr, "no successful warm requests (%zu failures)\n",
                     failures);
        return 1;
    }
    const double rps = static_cast<double>(warm.size()) / elapsed;
    std::printf("scenario: %s, connections: %u, duration: %.1fs\n",
                scenario.c_str(), connections, elapsed);
    std::printf("cold first-request latency: %.2f ms\n", cold_ms);
    std::printf(
        "warm served latency: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n",
        percentile(warm, 0.50), percentile(warm, 0.95),
        percentile(warm, 0.99));
    std::printf("requests/s: %.1f (%zu warm requests, %zu failures)\n",
                rps, warm.size(), failures);
    return 0;
}
