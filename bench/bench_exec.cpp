// E14 — the exec substrate itself: what one fork/join round trip costs
// on the resident scheduler versus spawning-and-joining std::threads
// per call (the pattern every parallel layer used before src/exec/),
// plus steal throughput on a deliberately imbalanced fork.
//
// The spawn-per-call replica below is a faithful local copy of the
// pre-exec parallel loop: one std::thread per shard, self-scheduling
// atomic index, join-all — so the comparison isolates exactly what the
// refactor removed (thread creation + teardown per call), not a change
// in scheduling shape.
//
// Usage: bench_exec [rounds] [gbench args...] — fork/join rounds per
// measured leg of the report (default 2000; CI smoke passes 1).
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_size.h"
#include "exec/for_index.h"
#include "exec/scheduler.h"
#include "exec/task_group.h"

namespace {

using namespace gact;

std::size_t g_rounds = 2000;

constexpr std::size_t kUnits = 64;   // indices per fork/join round
constexpr unsigned kParallelism = 4; // shard width of both legs

/// The pre-refactor substrate, verbatim shape: spawn min(threads, n)
/// std::threads, pull indices off a shared atomic, join them all.
void spawn_per_call_round(std::size_t n, unsigned num_threads) {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> sink{0};
    std::vector<std::thread> threads;
    const std::size_t spawn =
        std::min<std::size_t>(num_threads, n);
    threads.reserve(spawn);
    for (std::size_t t = 0; t < spawn; ++t) {
        threads.emplace_back([&] {
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n) break;
                sink.fetch_add(i, std::memory_order_relaxed);
            }
        });
    }
    for (std::thread& t : threads) t.join();
    benchmark::DoNotOptimize(sink.load());
}

void scheduler_round(exec::Scheduler& scheduler, std::size_t n,
                     unsigned num_threads) {
    std::atomic<std::size_t> sink{0};
    exec::for_index(scheduler, n, num_threads, [&](std::size_t i) {
        sink.fetch_add(i, std::memory_order_relaxed);
    });
    benchmark::DoNotOptimize(sink.load());
}

void print_report() {
    std::cout << "=== E14: fork/join round trip, " << kUnits
              << " trivial units x" << kParallelism << ", " << g_rounds
              << " rounds ===\n";
    exec::Scheduler scheduler(kParallelism);

    auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < g_rounds; ++r) {
        spawn_per_call_round(kUnits, kParallelism);
    }
    const double spawn_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();

    start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < g_rounds; ++r) {
        scheduler_round(scheduler, kUnits, kParallelism);
    }
    const double sched_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();

    const double rounds = static_cast<double>(g_rounds);
    std::cout << "spawn-per-call: " << spawn_ms << " ms ("
              << spawn_ms * 1000.0 / rounds << " us/round); "
              << "resident scheduler: " << sched_ms << " ms ("
              << sched_ms * 1000.0 / rounds << " us/round); "
              << "ratio " << (sched_ms > 0 ? spawn_ms / sched_ms : 0.0)
              << "x\n";

    // Steal throughput: fork kUnits tasks from ONE worker (via a
    // detached driver that spins instead of draining its own deque) and
    // report how many the peers stole.
    exec::Scheduler steal_pool(kParallelism);
    std::atomic<bool> driver_done{false};
    steal_pool.submit([&steal_pool, &driver_done] {
        exec::TaskGroup group(steal_pool);
        std::atomic<std::size_t> done{0};
        for (std::size_t i = 0; i < kUnits; ++i) {
            group.run([&done] { done.fetch_add(1); });
        }
        while (done.load() < kUnits) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        group.wait();
        driver_done.store(true);
    });
    while (!driver_done.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const exec::ExecStats stats = steal_pool.stats();
    std::cout << "imbalanced fork: " << stats.tasks_stolen << "/" << kUnits
              << " tasks stolen by peers\n"
              << std::endl;
}

void BM_SpawnPerCallForkJoin(benchmark::State& state) {
    for (auto _ : state) {
        spawn_per_call_round(kUnits, kParallelism);
    }
}
BENCHMARK(BM_SpawnPerCallForkJoin)->Unit(benchmark::kMicrosecond);

void BM_SchedulerForkJoin(benchmark::State& state) {
    exec::Scheduler scheduler(kParallelism);
    for (auto _ : state) {
        scheduler_round(scheduler, kUnits, kParallelism);
    }
}
BENCHMARK(BM_SchedulerForkJoin)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
    g_rounds = static_cast<std::size_t>(
        gact::bench::consume_size_arg(argc, argv, 2000));
    if (g_rounds == 0) g_rounds = 1;
    print_report();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
