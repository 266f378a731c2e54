// E12 (ablation) — the chromatic-map solver against its reference.
//
// The solver runs one search strategy (core/chromatic_csp.h): forward
// checking with MRV/degree ordering plus always-on incremental layers
// (evaluation cache, nogood learning with collection and Luby restarts,
// conflict-directed backjumping). The seed's plain backtracker
// (SolverConfig::naive()) is kept as the independent reference. This
// bench pits the two, the cross-solve pool, and the portfolio race
// against the Proposition 9.2 instance — the chromatic simplicial
// approximation K(T) -> L_t for n = 2, t = 1 — across the two
// orthogonal problem ablations the seed measured: identity fixing of
// R_0 and radial-projection candidate guidance.
//
// Per problem cell it prints one row per engine:
//   naive            — the seed backtracker (reference);
//   shipped          — SolverConfig::fast(), the default engine;
//   warm re-solve    — the shipped engine re-solving with a
//                      SharedNogoodPool its own cold run populated
//                      (cross-solve nogood reuse);
//   portfolio x2     — two diversified shipped searches racing and
//                      trading nogoods mid-flight
//                      (SolverConfig::live_exchange).
// After the cells, a dedicated exchange-ablation section races the
// free-R_0 *unguided* instance with the mid-flight exchange off vs on —
// the one report instance whose race runs long enough for the trade to
// reach the settling thread (see the section comment).
// Rows report found/exhausted, backtracks, backjumps, nogood
// prunings/recordings, pool seeding, exchange traffic, cache hit rates,
// and wall time; the summary lines compare naive vs the shipped engine
// (backtracks and wall time; a settled disagreement prints "solver
// bug"), cold vs warm (reuse), and the portfolio with the exchange off
// vs on (CI fails on a regression past the race-noise slack).
//
// Usage: bench_csp_ablation [extra_stages]
// `extra_stages` (default 2) is the number of stabilization stages past
// Chr^2. CI runs 2: at 1 every problem cell settles at 0 backtracks on
// both engines, so the engine comparison would compare nothing.
#include <chrono>
#include <iostream>

#include "bench_size.h"
#include "core/lt_pipeline.h"

namespace {

using namespace gact;
using core::ChromaticMapProblem;
using core::LtGuidance;
using core::SolverConfig;
using core::TerminatingSubdivision;

std::size_t g_extra_stages = 2;

struct Instance {
    tasks::AffineTask task = tasks::t_resilience_task(2, 1);
    TerminatingSubdivision tsub;

    Instance() {
        tsub = TerminatingSubdivision(
            topo::ChromaticComplex::standard_simplex(2));
        const auto nothing = [](const topo::SubdividedComplex&,
                                const topo::Simplex&) { return false; };
        tsub.advance(nothing);
        tsub.advance(nothing);
        for (std::size_t i = 0; i < g_extra_stages; ++i) {
            tsub.advance([](const topo::SubdividedComplex& cx,
                            const topo::Simplex& s) {
                return core::lt_stable_rule(2, 1, cx, s);
            });
        }
    }

    ChromaticMapProblem problem(bool fix_identity, bool guide,
                                core::SharedNogoodPool* pool = nullptr) const {
        return core::lt_approximation_problem(
            task, tsub, fix_identity,
            guide ? LtGuidance::kRadial : LtGuidance::kNone, nullptr, pool);
    }
};

const Instance& instance() {
    static const Instance i;
    return i;
}

struct Cell {
    bool found = false;
    bool exhausted = false;
    double millis = 0.0;
    core::SearchCounters counters;
};

Cell run_cell(const ChromaticMapProblem& problem, const SolverConfig& config) {
    const auto start = std::chrono::steady_clock::now();
    const auto result = core::solve_chromatic_map(problem, config);
    const auto end = std::chrono::steady_clock::now();
    Cell cell;
    cell.found = result.map.has_value();
    cell.exhausted = result.exhausted;
    cell.millis =
        std::chrono::duration<double, std::milli>(end - start).count();
    cell.counters = result.counters;
    return cell;
}

void print_cell(const char* engine, const Cell& c) {
    const core::SearchCounters& n = c.counters;
    std::cout << "    " << engine << ": "
              << (c.found ? "found" : "NOT found") << ", " << n.backtracks
              << " backtracks, " << c.millis << " ms";
    if (n.backjumps != 0) std::cout << ", " << n.backjumps << " backjumps";
    if (n.nogoods_recorded != 0 || n.nogood_prunings != 0) {
        std::cout << ", nogoods " << n.nogoods_recorded << " recorded / "
                  << n.nogood_prunings << " prunings";
    }
    if (n.pool_seeded != 0) {
        std::cout << ", pool " << n.pool_seeded << " seeded";
    }
    if (n.exchange_published != 0 || n.exchange_imported != 0) {
        std::cout << ", exchange " << n.exchange_published
                  << " published / " << n.exchange_imported << " imported";
    }
    if (n.eval_cache_hits + n.eval_cache_misses != 0) {
        const double rate =
            100.0 * static_cast<double>(n.eval_cache_hits) /
            static_cast<double>(n.eval_cache_hits + n.eval_cache_misses);
        std::cout << ", cache " << static_cast<int>(rate) << "% hits";
    }
    std::cout << (c.exhausted || c.found ? "" : " (budget hit)") << "\n";
}

void print_report() {
    std::cout << "=== E12 (ablation): chromatic-map solver engines on the "
                 "L_t (n=2, t=1) approximation (extra_stages="
              << g_extra_stages << ") ===\n";
    const Instance& inst = instance();
    struct Config {
        const char* name;
        bool fix;
        bool guide;
        std::size_t budget;
    };
    const Config configs[] = {
        {"identity-fixed + radial guidance (shipped)", true, true, 2000000},
        {"identity-fixed, unguided candidates", true, false, 2000000},
        {"free R_0 (no fixing), radial guidance", false, true, 2000000},
    };
    for (const Config& c : configs) {
        const auto problem = inst.problem(c.fix, c.guide);
        std::cout << c.name << ":\n";
        const Cell naive =
            run_cell(problem, SolverConfig::naive(c.budget));
        print_cell("naive (seed backtracker)   ", naive);
        const Cell fast = run_cell(problem, SolverConfig::fast(c.budget));
        print_cell("shipped engine             ", fast);
        // Cross-solve reuse: the shipped engine against a pool its own
        // cold run populated (the cold run repeats the `fast` cell, plus
        // publishing).
        core::SharedNogoodPool pool;
        const auto pooled_problem = inst.problem(c.fix, c.guide, &pool);
        const Cell cold = run_cell(pooled_problem, SolverConfig::fast(c.budget));
        const Cell warm = run_cell(pooled_problem, SolverConfig::fast(c.budget));
        print_cell("warm re-solve (shared pool)", warm);
        const Cell portfolio =
            run_cell(problem, SolverConfig::portfolio(2, c.budget));
        print_cell("portfolio x2 (shipped race)", portfolio);

        // Every shipped variant must agree with the reference wherever
        // either side settled: a witness on one side and a proven
        // exhaustion on the other is a solver bug.
        const auto settled_disagree = [&naive](const Cell& shipped) {
            return shipped.found != naive.found &&
                   (shipped.found ? naive.exhausted : shipped.exhausted);
        };
        if (settled_disagree(fast) || settled_disagree(cold) ||
            settled_disagree(warm) || settled_disagree(portfolio)) {
            std::cout << "    old-vs-new: engines DISAGREE on "
                         "satisfiability — solver bug\n";
        } else if (naive.found != fast.found) {
            const char* loser = naive.found ? "shipped" : "naive";
            const Cell& found_cell = naive.found ? naive : fast;
            const Cell& lost_cell = naive.found ? fast : naive;
            std::cout << "    old-vs-new: " << loser
                      << " inconclusive at its budget ("
                      << lost_cell.counters.backtracks
                      << " backtracks); the other engine found a witness at "
                      << found_cell.counters.backtracks << "\n";
        } else if (!naive.found && !naive.exhausted && !fast.exhausted) {
            // Neither engine settled the instance: budget-truncated
            // backtrack counts measure the budget, not the engines.
            std::cout << "    old-vs-new: both inconclusive (budgets "
                         "exhausted without a witness or a refutation); "
                         "backtrack counts not comparable\n";
        } else if (!naive.found && naive.exhausted != fast.exhausted) {
            const char* settled = naive.exhausted ? "naive" : "shipped";
            const char* hit = naive.exhausted ? "shipped" : "naive";
            std::cout << "    old-vs-new: " << settled
                      << " proved unsatisfiability; " << hit
                      << " budgeted out (counts not comparable)\n";
        } else {
            const std::size_t old_bt = naive.counters.backtracks;
            const std::size_t new_bt = fast.counters.backtracks;
            std::cout << "    old-vs-new: " << old_bt << " -> " << new_bt
                      << " backtracks ("
                      << (new_bt < old_bt   ? "strictly fewer"
                          : new_bt == old_bt ? "equal"
                                             : "more")
                      << "), " << naive.millis << " -> " << fast.millis
                      << " ms\n";
        }
        if (cold.found == warm.found && cold.exhausted == warm.exhausted) {
            std::cout << "    nogood reuse: cold "
                      << cold.counters.backtracks << " -> warm "
                      << warm.counters.backtracks << " backtracks ("
                      << warm.counters.pool_seeded
                      << " nogoods seeded from the " << "pool)\n";
        }
    }

    // --- the mid-flight exchange ablation ------------------------------
    // Measured on the free-R_0 UNGUIDED problem, deliberately not one of
    // the ladder cells above: it is the instance where the shipped
    // engine still searches long enough (hundreds of backtracks) for
    // the racing threads' mid-flight learning to reach the settling
    // thread before it finishes — on the radial-guided cells the race
    // settles too fast for any exchange to matter, which would make
    // this comparison vacuous. Counters report the settling thread, so
    // both numbers are one coherent search's account; they are racy by
    // nature (imports interleave differently run to run), so the
    // regression verdict allows race noise — only an exchange-on count
    // beyond twice the exchange-off count plus a small floor prints the
    // regression marker (which fails CI).
    {
        std::cout << "exchange ablation (free R_0, unguided candidates, "
                     "x2 threads):\n";
        const auto problem = inst.problem(false, false);
        SolverConfig race_off = SolverConfig::portfolio(2, 8000000);
        race_off.live_exchange = false;
        const Cell off_cell = run_cell(problem, race_off);
        print_cell("portfolio x2 (no exchange) ", off_cell);
        const Cell on_cell =
            run_cell(problem, SolverConfig::portfolio(2, 8000000));
        print_cell("portfolio x2 +exchange     ", on_cell);
        if (off_cell.found == on_cell.found &&
            off_cell.exhausted == on_cell.exhausted) {
            const std::size_t off = off_cell.counters.backtracks;
            const std::size_t on = on_cell.counters.backtracks;
            std::cout << "    exchange: x2 threads, off " << off
                      << " -> on " << on << " backtracks ("
                      << on_cell.counters.exchange_published
                      << " published / "
                      << on_cell.counters.exchange_imported << " imported"
                      << (on > 2 * off + 128
                              ? ") — MORE: exchange regression\n"
                              : on < off ? ", reduced)\n"
                                         : ", within race noise)\n");
        } else {
            std::cout << "    exchange: cells disagree on settling "
                         "(budget artifacts); backtracks not comparable\n";
        }
    }

    std::cout << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
    g_extra_stages = gact::bench::parse_size_arg(argc, argv, 2);
    print_report();
    return 0;
}
