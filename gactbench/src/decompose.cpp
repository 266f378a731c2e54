// The traced decompositions: Engine::solve and runtime::fuzz re-run as
// the sequence of layer calls they make, each call inside a span. The
// traced run compares every decomposed result (verdict, witness digest,
// backtracks; fuzz digest and violations) with the untraced library
// call, so a decomposition that drifts from the library fails the run.
#include <algorithm>

#include "bench.h"
#include "core/act_solver.h"
#include "core/eval_cache.h"
#include "core/lt_pipeline.h"
#include "core/terminating_subdivision.h"
#include "engine/executable.h"
#include "engine/report_json.h"
#include "iis/run_enumeration.h"
#include "runtime/executor.h"
#include "runtime/fuzz.h"
#include "runtime/schedule.h"
#include "topology/adjacency_index.h"

namespace gactbench {

namespace {

using namespace gact;

/// Facet count of a pure complex: its top-dimensional simplices.
std::size_t facet_count(const topo::SimplicialComplex& complex) {
    int dim = -1;
    std::size_t count = 0;
    for (const topo::Simplex& s : complex.simplices()) {
        if (s.dimension() > dim) {
            dim = s.dimension();
            count = 0;
        }
        if (s.dimension() == dim) ++count;
    }
    return count;
}

/// Engine::solve's preconditions for the routes below to be the whole
/// story: no nogood pool (in memory or on disk) and no time budget.
bool plain_solve(const engine::Scenario& scenario) {
    const engine::EngineOptions& o = scenario.options;
    return o.nogood_pool == nullptr && o.pool_file.empty() &&
           o.time_budget_ms == 0 && o.solver.cancel == nullptr;
}

/// The Corollary 7.1 route (core::run_act_search): Chr^k I for
/// k = 0..max_depth, one CSP per depth.
void wait_free_route(const engine::Scenario& scenario, Tracer& tracer,
                     Decomposed& d) {
    const core::SolverConfig& solver = scenario.options.solver;
    const tasks::Task& task = scenario.task;
    topo::SubdividedComplex chr;
    std::optional<core::SimplicialMap> witness;
    {
        Tracer::Scope root = tracer.open("engine.solve");
        d.root = root.index();
        tracer.span("tasks.validate", [&] { return task.validate(); });
        core::AllowedComplexLru lru(solver.allowed_lru_capacity);
        core::AllowedComplexLru* lru_ptr =
            solver.allowed_lru_capacity > 0 ? &lru : nullptr;
        chr = tracer.span("topology.identity", [&] {
            return topo::SubdividedComplex::identity(task.inputs);
        });
        bool exhausted_all = true;
        for (int k = 0; k <= scenario.options.max_depth; ++k) {
            if (k > 0) {
                chr = tracer.span("topology.chr_subdivision",
                                  [&] { return chr.chromatic_subdivision(); });
                d.chr_facets += tracer.span("bench.count_facets", [&] {
                    return facet_count(chr.complex().complex());
                });
            }
            const core::ChromaticMapProblem problem =
                tracer.span("core.problem_build", [&] {
                    return core::act_problem(task, chr, lru_ptr, nullptr);
                });
            const core::ChromaticMapResult result =
                tracer.span("core.csp.solve", [&] {
                    return core::solve_chromatic_map(problem, solver);
                });
            d.counters.add(result.counters);
            if (!result.exhausted) exhausted_all = false;
            if (result.map.has_value()) {
                witness = result.map;
                break;
            }
        }
        d.answer.verdict = witness.has_value() ? "solvable"
                           : exhausted_all     ? "unsolvable-to-depth"
                                               : "budget-exhausted";
    }
    d.answer.backtracks = d.counters.backtracks;
    if (witness.has_value()) {
        d.answer.digest = engine::witness_digest_hex(*witness);
    }
    tracer.span("topology.adjacency_index", [&] {
        return topo::AdjacencyIndex(chr.complex().complex())
            .indexed_simplex_count();
    });
}

/// The Theorem 6.1 route (engine::build_general_witness, then run
/// enumeration and admissibility).
void general_route(const engine::Scenario& scenario, Tracer& tracer,
                   Decomposed& d) {
    const engine::EngineOptions& o = scenario.options;
    if (!scenario.affine.has_value() || o.stable_rule == nullptr) {
        d.answer.verdict = "unsupported";
        return;
    }
    const tasks::AffineTask& affine = *scenario.affine;
    const engine::StableRule& rule = *o.stable_rule;
    core::LtGuidance guidance = o.guidance;
    if (guidance == core::LtGuidance::kRadial &&
        affine.subdivision.base().dimension() != 2) {
        guidance = core::LtGuidance::kNearest;
    }
    core::TerminatingSubdivision tsub;
    std::optional<core::ChromaticMapProblem> problem;
    std::optional<core::SimplicialMap> delta;
    core::AllowedComplexLru lru(o.solver.allowed_lru_capacity);
    {
        Tracer::Scope root = tracer.open("engine.solve");
        d.root = root.index();
        tsub = tracer.span("core.tsub.init", [&] {
            return core::TerminatingSubdivision(affine.task.inputs);
        });
        for (std::size_t i = 0; i < o.subdivision_stages; ++i) {
            tracer.span("core.tsub.advance.s" +
                            std::to_string(std::min<std::size_t>(i, 3)),
                        [&] {
                            tsub.advance(
                                [&rule](const core::SubdividedComplex& cx,
                                        const topo::Simplex& s) {
                                    return rule.stable(cx, s);
                                },
                                o.shard_threads);
                        });
        }
        const bool empty = tracer.span("core.tsub.stable_complex", [&] {
            return tsub.stable_complex().is_empty();
        });
        if (empty) {
            d.answer.verdict = "budget-exhausted";
            return;
        }
        problem = tracer.span("core.problem_build", [&] {
            return core::lt_approximation_problem(
                affine, tsub, o.fix_identity, guidance,
                o.solver.allowed_lru_capacity > 0 ? &lru : nullptr, nullptr,
                rule.name());
        });
        const core::ChromaticMapResult result =
            tracer.span("core.csp.solve", [&] {
                return core::solve_chromatic_map(*problem, o.solver);
            });
        d.counters = result.counters;
        delta = result.map;
        if (!delta.has_value()) {
            d.answer.verdict =
                result.exhausted ? "unsolvable-to-depth" : "budget-exhausted";
        } else {
            const std::vector<iis::Run> runs =
                tracer.span("iis.enumerate_runs", [&] {
                    return iis::filter_by_model(
                        iis::enumerate_stabilized_runs(
                            scenario.task.num_processes, o.run_prefix_depth),
                        *scenario.model);
                });
            d.runs = runs.size();
            if (runs.empty()) {
                d.answer.verdict = "budget-exhausted";
            } else {
                const core::AdmissibilityReport adm =
                    tracer.span("core.admissibility", [&] {
                        return core::check_admissibility(
                            tsub, runs, o.max_landing_round);
                    });
                d.runs_checked = adm.runs_checked;
                d.answer.verdict =
                    adm.admissible ? "solvable" : "unsolvable-to-depth";
            }
        }
    }
    d.answer.backtracks = d.counters.backtracks;
    if (delta.has_value()) d.answer.digest = engine::witness_digest_hex(*delta);
    if (tsub.stages() > 0) {
        d.tsub_facets = facet_count(
            tsub.complex_at(tsub.stages() - 1).complex().complex());
    }
    d.stable_facets = tsub.stable_facets().size();
    tracer.span("topology.adjacency_index", [&] {
        return topo::AdjacencyIndex(problem->domain->complex())
            .indexed_simplex_count();
    });
}

/// runtime/fuzz.cpp's per-execution digest and its order-sensitive fold,
/// restated so the decomposition can be compared digest for digest.
std::uint64_t fold(std::uint64_t acc, std::uint64_t word) {
    return runtime::mix_seed(acc ^ (word + 0xd1b54a32d192ed03ULL),
                             0x2545f4914f6cdd1dULL);
}

std::uint64_t digest_of(const runtime::ExecutionResult& r) {
    std::uint64_t d = 0x243f6a8885a308d3ULL;
    d = fold(d, r.rounds);
    d = fold(d, r.all_decided ? 1 : 0);
    for (const auto& out : r.outputs) {
        d = fold(d, out.has_value() ? 1 + static_cast<std::uint64_t>(*out)
                                    : 0);
    }
    d = fold(d, r.violations.size());
    return d;
}

}  // namespace

Decomposed decompose_solve(const engine::Scenario& scenario, Tracer& tracer) {
    Decomposed d;
    if (!plain_solve(scenario)) {
        d.answer.verdict = "not-decomposable";
        return d;
    }
    if (scenario.is_wait_free()) {
        wait_free_route(scenario, tracer, d);
    } else {
        general_route(scenario, tracer, d);
    }
    return d;
}

DecomposedFuzz decompose_fuzz(const engine::Scenario& scenario,
                              const engine::SolveReport& report,
                              std::uint64_t seed, std::size_t iterations,
                              const std::string& root_name, Tracer& tracer) {
    // Defaults of runtime::FuzzConfig, which the untraced call uses too.
    const runtime::FuzzConfig config;
    DecomposedFuzz out;
    Tracer::Scope root = tracer.open(root_name);
    out.root = root.index();
    const std::unique_ptr<runtime::DecisionRule> rule =
        tracer.span("engine.make_decision_rule", [&] {
            return engine::make_decision_rule(scenario, report);
        });
    const tasks::Task& task = scenario.task;
    const std::uint32_t n = task.num_processes;
    const bool inputless = task.is_inputless();
    std::vector<topo::Simplex> facets;
    if (!inputless) {
        facets = task.inputs.complex().simplices_of_dimension(
            static_cast<int>(n) - 1);
    }
    const std::size_t base_rounds =
        scenario.is_wait_free()
            ? static_cast<std::size_t>(std::max(report.witness_depth, 0))
            : scenario.options.max_landing_round;
    const std::uint32_t max_prefix =
        scenario.is_wait_free()
            ? config.max_prefix_rounds
            : std::min(config.max_prefix_rounds,
                       scenario.options.run_prefix_depth);
    const runtime::ScheduleGenerator generator =
        tracer.span("runtime.schedule_generator", [&] {
            return runtime::ScheduleGenerator(n, scenario.model, max_prefix);
        });

    out.digest = seed;
    for (std::size_t i = 0; i < iterations; ++i) {
        runtime::SplitMix64 rng(runtime::mix_seed(seed, i));
        const runtime::Schedule s = tracer.span(
            "runtime.schedule_gen", [&] { return generator.next(rng); });
        const std::size_t omega_index =
            facets.empty() ? 0 : rng.below(facets.size());
        std::vector<std::optional<topo::VertexId>> inputs(n);
        topo::Simplex face;
        if (inputless) {
            for (gact::ProcessId p : s.participants().members()) {
                face = face.with(static_cast<topo::VertexId>(p));
            }
        } else {
            const topo::Simplex& omega = facets[omega_index];
            for (gact::ProcessId p = 0; p < n; ++p) {
                inputs[p] = task.inputs.vertex_with_color(omega, p);
            }
            for (gact::ProcessId p : s.participants().members()) {
                face = face.with(*inputs[p]);
            }
        }
        runtime::ExecutionConfig ec;
        ec.horizon = s.prefix.size() + base_rounds + config.horizon_slack;
        ec.stability_tail = config.stability_tail;
        ec.check_views = config.check_views;
        const runtime::ExecutionResult r =
            tracer.span("runtime.execute", [&] {
                return runtime::execute(task, *rule, s, inputs,
                                        task.delta.at(face), ec);
            });
        out.digest = fold(out.digest, digest_of(r));
        out.rounds += r.rounds;
        ++out.executed;
        if (!r.violations.empty()) ++out.violations;
    }
    return out;
}

}  // namespace gactbench
