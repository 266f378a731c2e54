// The benchmark workloads (see gactbench/README.md for why each exists).
//
// Every workload has the same shape: a set-up phase timed several times
// (setup_s is the median), then either an untraced measurement loop that
// runs the workload's operation until --seconds have been measured
// (end-to-end metrics), or a traced run that makes the same library
// calls once untraced and once decomposed into per-layer spans
// (per-layer metrics). Every operation is checked against the expected
// answers; a mismatch or a throw is a failed operation.
#include <sys/resource.h>

#include <algorithm>
#include <functional>
#include <optional>

#include "bench.h"
#include "engine/scenario_registry.h"
#include "exec/scheduler.h"
#include "runtime/fuzz.h"

namespace gactbench {

namespace {

using namespace gact;

/// The per-layer metrics every traced run reports (BENCHMARK.json
/// per_layer, same order). Layers a workload never calls report 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"core.tsub.advance_ms.s0", "ms"},
        {"core.tsub.advance_ms.s1", "ms"},
        {"core.tsub.advance_ms.s2", "ms"},
        {"core.tsub.advance_ms.s3", "ms"},
        {"core.tsub.stable_complex_ms", "ms"},
        {"core.tsub.facets", "count"},
        {"core.tsub.stable_facets", "count"},
        {"topology.chr_subdivision_ms", "ms"},
        {"topology.chr_facets", "count"},
        {"topology.adjacency_index_ms", "ms"},
        {"core.problem_build_ms", "ms"},
        {"core.csp.solve_ms", "ms"},
        {"core.csp.backtracks", "count"},
        {"core.csp.backjumps", "count"},
        {"core.csp.restarts", "count"},
        {"core.csp.nogoods_recorded", "count"},
        {"core.csp.nogoods_evicted", "count"},
        {"core.csp.nogood_prunings", "count"},
        {"core.csp.eval_cache_hit_ratio", "ratio"},
        {"core.csp.prunings_per_nogood", "ratio"},
        {"core.csp.evicted_per_recorded", "ratio"},
        {"iis.enumerate_runs_ms", "ms"},
        {"iis.runs", "count"},
        {"core.admissibility_ms", "ms"},
        {"core.admissibility.runs_checked", "count"},
        {"exec.tasks_executed", "count"},
        {"exec.tasks_stolen", "count"},
        {"exec.steal_ratio", "ratio"},
        {"exec.tasks_helped", "count"},
        {"exec.batch_speedup", "ratio"},
        {"exec.efficiency", "ratio"},
        {"runtime.fuzz_ms.table", "ms"},
        {"runtime.fuzz_ms.landing", "ms"},
        {"runtime.execute_us.table", "us"},
        {"runtime.execute_us.landing", "us"},
        {"runtime.schedule_gen_us", "us"},
        {"runtime.rounds_per_exec", "count"},
        {"trace.overhead_ratio", "ratio"},
        {"trace.unattributed_ratio", "ratio"},
    };
    return m;
}

/// Per-layer values of one traced run, emitted in layer_metrics() order.
class LayerValues {
public:
    double& operator[](const std::string& name) { return values_[name]; }

    void add_counters(const core::SearchCounters& c) {
        values_["core.csp.backtracks"] += c.backtracks;
        values_["core.csp.backjumps"] += c.backjumps;
        values_["core.csp.restarts"] += c.restarts;
        values_["core.csp.nogoods_recorded"] += c.nogoods_recorded;
        values_["core.csp.nogoods_evicted"] += c.nogoods_evicted;
        values_["core.csp.nogood_prunings"] += c.nogood_prunings;
        cache_hits_ += c.eval_cache_hits;
        cache_misses_ += c.eval_cache_misses;
    }

    void add_exec(const exec::ExecStats& before, const exec::ExecStats& after) {
        values_["exec.tasks_executed"] +=
            after.tasks_executed - before.tasks_executed;
        values_["exec.tasks_stolen"] +=
            after.tasks_stolen - before.tasks_stolen;
        values_["exec.tasks_helped"] +=
            after.tasks_helped - before.tasks_helped;
    }

    void emit(const Tracer& tracer, Outcome& out) {
        const auto ratio = [](double num, double den) {
            return den > 0.0 ? num / den : 0.0;
        };
        // Layer time metrics: the self time of the spans of one name.
        static const std::pair<const char*, const char*> kSpanMetrics[] = {
            {"core.tsub.advance_ms.s0", "core.tsub.advance.s0"},
            {"core.tsub.advance_ms.s1", "core.tsub.advance.s1"},
            {"core.tsub.advance_ms.s2", "core.tsub.advance.s2"},
            {"core.tsub.advance_ms.s3", "core.tsub.advance.s3"},
            {"core.tsub.stable_complex_ms", "core.tsub.stable_complex"},
            {"topology.chr_subdivision_ms", "topology.chr_subdivision"},
            {"topology.adjacency_index_ms", "topology.adjacency_index"},
            {"core.problem_build_ms", "core.problem_build"},
            {"core.csp.solve_ms", "core.csp.solve"},
            {"iis.enumerate_runs_ms", "iis.enumerate_runs"},
            {"core.admissibility_ms", "core.admissibility"},
        };
        const std::map<std::string, double> self_ms = tracer.self_ms_by_name();
        for (const auto& [metric, span] : kSpanMetrics) {
            const auto it = self_ms.find(span);
            if (it != self_ms.end()) values_[metric] += it->second;
        }
        values_["core.csp.eval_cache_hit_ratio"] =
            ratio(static_cast<double>(cache_hits_),
                  static_cast<double>(cache_hits_ + cache_misses_));
        values_["core.csp.prunings_per_nogood"] =
            ratio(values_["core.csp.nogood_prunings"],
                  values_["core.csp.nogoods_recorded"]);
        values_["core.csp.evicted_per_recorded"] =
            ratio(values_["core.csp.nogoods_evicted"],
                  values_["core.csp.nogoods_recorded"]);
        values_["exec.steal_ratio"] = ratio(values_["exec.tasks_stolen"],
                                            values_["exec.tasks_executed"]);
        for (const auto& [name, unit] : layer_metrics()) {
            out.metric(name, values_[name], unit);
        }
    }

private:
    std::map<std::string, double> values_;
    std::size_t cache_hits_ = 0;
    std::size_t cache_misses_ = 0;
};

double peak_rss_mb() {
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Median wall time of the set-ups: at least 5, and more until 1 s has
/// been spent, so a sub-millisecond set-up still gets a steady median.
/// The last value made stays in `slot`; the previous one is destroyed
/// off the clock.
template <typename T, typename Make>
double timed_setup(std::optional<T>& slot, Make&& make) {
    std::vector<double> times;
    double total = 0.0;
    while (times.size() < 5 || total < 1.0) {
        slot.reset();
        const auto start = Clock::now();
        T value = make();
        const double dt = seconds_since(start);
        slot.emplace(std::move(value));
        times.push_back(dt);
        total += dt;
    }
    return median(times);
}

/// Run `op(i)` for i = 0, 1, .. until `seconds` of operation time have
/// been measured and at least `min_ops` operations ran. `op` returns the
/// wall time of its library call; checking the result stays off the
/// clock.
template <typename Op>
std::vector<double> measure(double seconds, std::size_t min_ops, Op&& op) {
    std::vector<double> times;
    double total = 0.0;
    while (total < seconds || times.size() < min_ops) {
        times.push_back(op(times.size()));
        total += times.back();
    }
    return times;
}

/// The end-to-end metrics of an untraced run. `items_per_op` is what one
/// operation completes (solves, grid cells, schedules); `throughput` is
/// the workload's own name for ops_per_s (cells_per_s, ...), printed in
/// the log.
void report_end_to_end(const std::vector<double>& times, double items_per_op,
                       double setup_s, const std::string& throughput,
                       Outcome& out) {
    std::vector<double> t = times;
    std::sort(t.begin(), t.end());
    const auto at = [&t](double q) {
        const double last = static_cast<double>(t.size() - 1);
        return std::to_string(t[static_cast<std::size_t>(q * last)]);
    };
    const double med = median(t);
    out.notes.push_back("verdict_s samples: n=" + std::to_string(t.size()) +
                        " min=" + at(0) + " q1=" + at(0.25) +
                        " median=" + std::to_string(med) + " q3=" + at(0.75) +
                        " max=" + at(1));
    out.metric("verdict_s", med, "s");
    out.metric("ops_per_s", items_per_op / med, "1/s");
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.notes.push_back(throughput + " = " +
                        std::to_string(items_per_op / med) + " 1/s");
}

/// SplitMix64 over (seed, stream): the benchmark's own input generator.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// The seed-driven permutation of `n` grid cells for pass `pass`
/// (Fisher-Yates).
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed,
                                     std::uint64_t pass) {
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::uint64_t state = mix(seed, pass);
    for (std::size_t i = n; i > 1; --i) {
        state = mix(state, i);
        std::swap(order[i - 1], order[state % i]);
    }
    return order;
}

/// Record one solve and check it against the expected file.
void check_solve(const Expected& expected, const Answer& got,
                 const std::string& cell, Outcome& out) {
    const std::string why = expected.mismatch(cell, got);
    out.record(why.empty(), why);
}

/// Record that the decomposition of `cell` reproduced the untraced solve.
void check_decomposition(const Answer& decomposed, const Answer& untraced,
                         const std::string& cell, Outcome& out) {
    out.record(decomposed == untraced,
               cell + ": decomposed " + decomposed.str() +
                   " differs from Engine::solve " + untraced.str());
}

void add_decomposed(const Decomposed& d, LayerValues& layers) {
    layers.add_counters(d.counters);
    layers["topology.chr_facets"] += d.chr_facets;
    layers["core.tsub.facets"] += d.tsub_facets;
    layers["core.tsub.stable_facets"] += d.stable_facets;
    layers["iis.runs"] += d.runs;
    layers["core.admissibility.runs_checked"] += d.runs_checked;
}

std::optional<engine::Scenario> find_cell(const std::string& cell) {
    std::string error;
    std::optional<engine::Scenario> s =
        engine::ScenarioRegistry::standard().find(cell, &error);
    if (!s.has_value()) throw std::runtime_error(cell + ": " + error);
    return s;
}

// ------------------------------------------------ lt-heavy, ksa-search

/// One named cell through Engine::solve: the operation is the solve. A
/// run makes at least `min_ops` of them, so every run of the workload
/// reaches the same peak memory.
void solve_workload(const Options& o, const Expected& expected,
                    const std::string& cell, std::size_t min_ops,
                    Outcome& out, Tracer& tracer) {
    std::optional<engine::Scenario> scenario;
    const double setup_s =
        timed_setup(scenario, [&] { return *find_cell(cell); });
    const engine::Engine engine;

    if (!o.trace) {
        const std::vector<double> times =
            measure(o.seconds, min_ops, [&](std::size_t) {
                const auto start = Clock::now();
                const engine::SolveReport report = engine.solve(*scenario);
                const double dt = seconds_since(start);
                check_solve(expected, answer_of(report), cell, out);
                return dt;
            });
        report_end_to_end(times, 1.0, setup_s, "solves_per_s", out);
        return;
    }

    // Untraced, decomposed, untraced again: the overhead ratio compares
    // the decomposition with the second untraced solve, so both run on a
    // heap the first solve already grew (lt-heavy's first solve pays
    // ~0.5 GB of fresh page faults).
    LayerValues layers;
    const auto untraced_solve = [&](double* seconds) {
        const auto start = Clock::now();
        const engine::SolveReport report = engine.solve(*scenario);
        *seconds = seconds_since(start);
        const Answer a = answer_of(report);
        check_solve(expected, a, cell, out);
        return a;
    };
    double cold_s = 0.0;
    const exec::ExecStats before = exec::Scheduler::shared().stats();
    const Answer untraced = untraced_solve(&cold_s);
    layers.add_exec(before, exec::Scheduler::shared().stats());

    const Decomposed d = decompose_solve(*scenario, tracer);
    check_decomposition(d.answer, untraced, cell, out);
    add_decomposed(d, layers);
    double warm_s = 0.0;
    untraced_solve(&warm_s);
    const double traced_s = d.root >= 0 ? tracer.duration_us(d.root) / 1e6 : 0;
    layers["trace.overhead_ratio"] = traced_s / warm_s;
    layers["trace.unattributed_ratio"] =
        tracer.max_unattributed_ratio("engine.solve");
    layers.emit(tracer, out);
}

// ---------------------------------------------------------------- grid

void grid_workload(const Options& o, const Expected& expected, Outcome& out,
                   Tracer& tracer) {
    exec::Scheduler::shared();  // the resident pool solve_batch uses
    std::optional<std::vector<engine::Scenario>> grid;
    const double setup_s = timed_setup(
        grid,
        [&] {
            std::vector<engine::Scenario> cells =
                engine::ScenarioRegistry::standard().quick_grid();
            // Creating a pool of the shared scheduler's width is part of
            // what a batch caller pays before its first batch.
            exec::Scheduler pool(o.nproc);
            return cells;
        });
    std::vector<std::string> names;
    for (const engine::Scenario& s : *grid) names.push_back(s.name);
    out.record(names == expected.grid,
               "grid: quick_grid() cells differ from the expected file");

    const engine::Engine engine;
    // Batch `batch`: `copies` copies of the grid in one seed-driven order.
    const auto ordered = [&](std::uint64_t batch, std::size_t copies) {
        std::vector<engine::Scenario> cells;
        for (std::size_t i :
             permutation(grid->size() * copies, o.seed, batch)) {
            cells.push_back((*grid)[i % grid->size()]);
        }
        return cells;
    };
    const auto solve_pass = [&](const std::vector<engine::Scenario>& cells,
                                unsigned workers, double* seconds) {
        const auto start = Clock::now();
        std::vector<engine::SolveReport> reports =
            engine.solve_batch(cells, workers);
        *seconds = seconds_since(start);
        std::vector<Answer> answers;
        for (std::size_t i = 0; i < reports.size(); ++i) {
            answers.push_back(answer_of(reports[i]));
            check_solve(expected, answers.back(), cells[i].name, out);
        }
        return answers;
    };

    if (!o.trace) {
        // The operation solves kGridCopies copies of the grid in one batch:
        // a single pass ends on whichever long cell its order put last
        // (0.7-1.2 s for the same 22 cells), and the copies dilute that
        // tail so the seed's order no longer decides the figure.
        constexpr std::size_t kGridCopies = 4;
        double warmup_s = 0.0;
        solve_pass(ordered(0, 1), o.nproc, &warmup_s);
        const std::vector<double> times =
            measure(o.seconds, 3, [&](std::size_t i) {
                const std::vector<engine::Scenario> cells =
                    ordered(i + 1, kGridCopies);
                double dt = 0.0;
                solve_pass(cells, o.nproc, &dt);
                return dt;
            });
        report_end_to_end(times,
                          static_cast<double>(grid->size() * kGridCopies),
                          setup_s, "cells_per_s", out);
        return;
    }

    LayerValues layers;
    const std::vector<engine::Scenario> cells = ordered(0, 1);
    const exec::ExecStats before = exec::Scheduler::shared().stats();
    double parallel_s = 0.0;
    solve_pass(cells, o.nproc, &parallel_s);
    layers.add_exec(before, exec::Scheduler::shared().stats());
    double serial_s = 0.0;
    const std::vector<Answer> untraced = solve_pass(cells, 1, &serial_s);
    layers["exec.batch_speedup"] = serial_s / parallel_s;
    layers["exec.efficiency"] = serial_s / parallel_s / o.nproc;

    double traced_s = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Decomposed d = decompose_solve(cells[i], tracer);
        check_decomposition(d.answer, untraced[i], cells[i].name, out);
        add_decomposed(d, layers);
        if (d.root >= 0) traced_s += tracer.duration_us(d.root) / 1e6;
    }
    layers["trace.overhead_ratio"] = traced_s / serial_s;
    layers["trace.unattributed_ratio"] =
        tracer.max_unattributed_ratio("engine.solve");
    layers.emit(tracer, out);
}

// ------------------------------------------------ fuzz-table, fuzz-landing

/// One fuzz leg: the operation is one runtime::fuzz call of `chunk`
/// schedules at 1 thread on the solved witness of `cell`.
void fuzz_workload(const Options& o, const Expected& expected,
                   const std::string& cell, const std::string& leg,
                   std::size_t chunk, Outcome& out, Tracer& tracer) {
    struct Solved {
        engine::Scenario scenario;
        engine::SolveReport report;
    };
    std::optional<Solved> solved;
    const double setup_s = timed_setup(
        solved,
        [&] {
            Solved s{*find_cell(cell), {}};
            s.report = engine::Engine().solve(s.scenario);
            return s;
        });
    check_solve(expected, answer_of(solved->report), cell, out);

    // Chunk 0 draws from FuzzConfig::seed = --seed itself, so the pinned
    // digest of the expected file applies to it.
    const auto chunk_seed = [&](std::uint64_t c) {
        return c == 0 ? o.seed : mix(o.seed, c);
    };
    const auto pin = expected.fuzz.find(cell);
    const auto run_chunk = [&](std::uint64_t c, double* seconds) {
        runtime::FuzzConfig config;
        config.seed = chunk_seed(c);
        config.iterations = chunk;
        config.threads = 1;
        const auto start = Clock::now();
        const runtime::FuzzResult r =
            runtime::fuzz(solved->scenario, solved->report, config);
        *seconds = seconds_since(start);
        bool ok = !r.skipped && r.executed == chunk && r.violation_count == 0;
        if (pin != expected.fuzz.end() && pin->second.seed == config.seed &&
            pin->second.iterations == chunk) {
            ok = ok && r.result_digest == pin->second.digest;
        }
        out.record(ok, cell + " fuzz chunk " + std::to_string(c) + ": " +
                           r.summary());
        return r;
    };

    if (!o.trace) {
        double warmup_s = 0.0;
        run_chunk(0, &warmup_s);
        const std::vector<double> times =
            measure(o.seconds, 3, [&](std::size_t i) {
                double dt = 0.0;
                run_chunk(i + 1, &dt);
                return dt;
            });
        report_end_to_end(times, static_cast<double>(chunk), setup_s,
                          "schedules_per_s." + leg, out);
        return;
    }

    LayerValues layers;
    double untraced_s = 0.0;
    double traced_s = 0.0;
    std::size_t executed = 0;
    std::size_t rounds = 0;
    constexpr std::uint64_t kChunks = 3;
    for (std::uint64_t c = 0; c < kChunks; ++c) {
        double dt = 0.0;
        const runtime::FuzzResult r = run_chunk(c, &dt);
        untraced_s += dt;
        const DecomposedFuzz d =
            decompose_fuzz(solved->scenario, solved->report, chunk_seed(c),
                           chunk, "runtime.fuzz", tracer);
        out.record(d.digest == r.result_digest && d.executed == r.executed &&
                       d.violations == r.violation_count,
                   cell + " fuzz chunk " + std::to_string(c) +
                       ": decomposition differs from runtime::fuzz");
        traced_s += tracer.duration_us(d.root) / 1e6;
        executed += d.executed;
        rounds += d.rounds;
    }
    const auto self_ms = tracer.self_ms_by_name();
    const auto self_of = [&](const std::string& span) {
        const auto it = self_ms.find(span);
        return it == self_ms.end() ? 0.0 : it->second;
    };
    const double n = static_cast<double>(executed);
    layers["runtime.fuzz_ms." + leg] = untraced_s * 1000.0 / kChunks;
    layers["runtime.execute_us." + leg] =
        self_of("runtime.execute") * 1000.0 / n;
    layers["runtime.schedule_gen_us"] =
        self_of("runtime.schedule_gen") * 1000.0 / n;
    layers["runtime.rounds_per_exec"] = static_cast<double>(rounds) / n;
    layers["trace.overhead_ratio"] = traced_s / untraced_s;
    layers["trace.unattributed_ratio"] =
        tracer.max_unattributed_ratio("runtime.fuzz");
    layers.emit(tracer, out);
}

struct Workload {
    std::string name;
    std::function<void(const Options&, const Expected&, Outcome&, Tracer&)>
        run;
};

const std::vector<Workload>& workloads() {
    static const std::vector<Workload> all = {
        {"lt-heavy",
         [](const Options& o, const Expected& e, Outcome& out, Tracer& t) {
             solve_workload(o, e, "lt-3-2-res2", 2, out, t);
         }},
        {"ksa-search",
         [](const Options& o, const Expected& e, Outcome& out, Tracer& t) {
             solve_workload(o, e, "ksa-4-3-4-wf", 1, out, t);
         }},
        {"grid", grid_workload},
        {"fuzz-table",
         [](const Options& o, const Expected& e, Outcome& out, Tracer& t) {
             fuzz_workload(o, e, "chr2-2p-wf", "table", 2000, out, t);
         }},
        {"fuzz-landing",
         [](const Options& o, const Expected& e, Outcome& out, Tracer& t) {
             fuzz_workload(o, e, "approx-2-of2", "landing", 16, out, t);
         }},
    };
    return all;
}

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const Workload& w : workloads()) v.push_back(w.name);
        return v;
    }();
    return names;
}

bool run_workload(const Options& options, const Expected& expected,
                  Outcome& outcome, Tracer& tracer) {
    for (const Workload& w : workloads()) {
        if (w.name == options.workload) {
            w.run(options, expected, outcome, tracer);
            return true;
        }
    }
    return false;
}

}  // namespace gactbench
