// E8 — the headline reproduction: L_t solvable in Res_t via GACT
// (Theorem 6.1 + Proposition 9.2), executed end to end through the
// engine's general route.
//
// Regenerates the paper's claim as measurements: one Engine::solve on the
// registry's flagship (L_1, Res_1) scenario yields the terminating
// subdivision, delta, and the admissibility verdict; the report's
// artifacts feed protocol extraction and the Definition 4.1 verifier.
// Benchmarks every pipeline stage.
// Usage: bench_gact_t_resilient [prefix_depth] [gbench args...] — depth
// of the arbitrary-schedule prefix of the enumerated compact run families
// (default 1).
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_size.h"
#include "engine/engine.h"
#include "engine/scenario_registry.h"
#include "iis/run_enumeration.h"
#include "protocol/gact_protocol.h"
#include "protocol/verifier.h"

namespace {

using namespace gact;

std::uint32_t g_prefix_depth = 1;

struct Setup {
    engine::Scenario scenario;
    engine::SolveReport report;

    Setup()
        : scenario(*engine::ScenarioRegistry::standard().find(
              "lt-2-1-res1")) {
        scenario.options.run_prefix_depth = g_prefix_depth;
        report = engine::Engine{}.solve(scenario);
    }
};

const Setup& setup() {
    static const Setup s;
    return s;
}

void print_report() {
    std::cout << "=== E8: L_1 solvable in Res_1 (Theorem 6.1 / Proposition "
                 "9.2) ===\n";
    const Setup& s = setup();
    std::cout << "engine: " << s.report.summary() << "\n";
    std::cout << "compact Res_1 family: " << s.report.model_runs.size()
              << " runs; admissible = " << s.report.admissibility->admissible
              << "; max landing round = "
              << s.report.admissibility->max_landing_round << "\n";
    iis::ViewArena arena;
    const auto build = protocol::build_gact_protocol(
        *s.report.tsub, *s.report.witness, s.report.model_runs, 8, arena);
    std::cout << "protocol: " << build.protocol.size() << " entries, "
              << build.conflicts << " conflicts, " << build.landed_runs << "/"
              << build.total_runs << " runs landed\n";
    const auto verification = protocol::verify_inputless(
        s.scenario.task, build.protocol, s.report.model_runs, 8, arena);
    std::cout << "Definition 4.1: " << verification.summary() << "\n";
    // Contrast with the wait-free model: WF contains runs that never land
    // (solo runs), so the same T is not admissible for all of WF.
    const auto all_runs = iis::enumerate_stabilized_runs(3, g_prefix_depth);
    const auto wf_adm =
        core::check_admissibility(*s.report.tsub, all_runs, 8);
    std::cout << "contrast (WF family): admissible = " << wf_adm.admissible
              << " with " << wf_adm.failures.size()
              << " non-landing runs - L_1 is a genuinely t-resilient task\n"
              << std::endl;
}

void BM_EngineSolveScenario(benchmark::State& state) {
    const Setup& s = setup();
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine::Engine{}.solve(s.scenario));
    }
}
BENCHMARK(BM_EngineSolveScenario)->Iterations(2)
    ->Unit(benchmark::kMillisecond);

void BM_Admissibility(benchmark::State& state) {
    const Setup& s = setup();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::check_admissibility(*s.report.tsub, s.report.model_runs, 8));
    }
}
BENCHMARK(BM_Admissibility)->Iterations(3)->Unit(benchmark::kMillisecond);

void BM_ProtocolExtraction(benchmark::State& state) {
    const Setup& s = setup();
    for (auto _ : state) {
        iis::ViewArena arena;
        benchmark::DoNotOptimize(protocol::build_gact_protocol(
            *s.report.tsub, *s.report.witness, s.report.model_runs, 8,
            arena));
    }
}
BENCHMARK(BM_ProtocolExtraction)->Iterations(3)->Unit(benchmark::kMillisecond);

void BM_Definition41Verification(benchmark::State& state) {
    const Setup& s = setup();
    iis::ViewArena arena;
    const auto build = protocol::build_gact_protocol(
        *s.report.tsub, *s.report.witness, s.report.model_runs, 8, arena);
    for (auto _ : state) {
        benchmark::DoNotOptimize(protocol::verify_inputless(
            s.scenario.task, build.protocol, s.report.model_runs, 8, arena));
    }
}
BENCHMARK(BM_Definition41Verification)
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

void BM_SingleRunLanding(benchmark::State& state) {
    const Setup& s = setup();
    const iis::Run behind = iis::Run::forever(
        3,
        iis::OrderedPartition({ProcessSet::of({0, 1}), ProcessSet::of({2})}));
    const core::LandingIndex index(*s.report.tsub);
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::find_landing(index, behind, 8));
    }
}
BENCHMARK(BM_SingleRunLanding)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    g_prefix_depth = static_cast<std::uint32_t>(
        gact::bench::consume_size_arg(argc, argv, 1));
    print_report();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
