// The shipped solver's incremental layers must be invisible except in
// wall time and counters: for every quick scenario in the standard
// registry and every cell of the quick sweep grid, the shipped engine
// (evaluation cache, nogood learning with collection and Luby restarts,
// conflict-directed backjumping, and optionally the cross-solve
// SharedNogoodPool, the mid-flight exchange, and the portfolio race)
// must produce the identical SolveReport verdict and witness as the
// seed's naive backtracker — the one independent reference. Plus the
// nogood lifecycle at the shipped constants, unit coverage for the
// bounded NogoodStore (including the hash-collision dedup regression),
// the SharedNogoodPool, the AllowedComplexLru capacity behavior, and the
// portfolio counter-merge audit.
#include <gtest/gtest.h>

#include <map>

#include "core/act_solver.h"
#include "core/eval_cache.h"
#include "core/nogood_store.h"
#include "engine/engine.h"
#include "engine/report_json.h"
#include "engine/scenario_registry.h"
#include "tasks/standard_tasks.h"

namespace gact {
namespace {

using core::NogoodLiteral;
using core::NogoodStore;
using core::SharedNogoodPool;

// --- property: the shipped engine agrees with the naive reference -------

/// Every scenario the property tests cover: the non-heavy registry specs
/// (heavy ones are multi-second builds, covered by CI benches) and the
/// quick sweep grid.
std::vector<engine::Scenario> covered_scenarios() {
    const engine::ScenarioRegistry& registry =
        engine::ScenarioRegistry::standard();
    std::vector<engine::Scenario> out;
    for (const auto& spec : registry.specs()) {
        if (spec.heavy) continue;
        engine::Scenario scenario = spec.make();
        scenario.name = spec.name;
        out.push_back(std::move(scenario));
    }
    for (engine::Scenario& cell : registry.quick_grid()) {
        out.push_back(std::move(cell));
    }
    return out;
}

/// The naive backtracker's report for `scenario` (same budgets), solved
/// once per name and shared by every property test in this binary.
const engine::SolveReport& naive_reference(const engine::Scenario& scenario) {
    static std::map<std::string, engine::SolveReport> solved;
    const auto it = solved.find(scenario.name);
    if (it != solved.end()) return it->second;
    engine::Scenario naive = scenario;
    naive.options.nogood_pool = nullptr;
    naive.options.solver =
        core::SolverConfig::naive(scenario.options.solver.max_backtracks);
    return solved.emplace(scenario.name, engine::Engine().solve(naive))
        .first->second;
}

void expect_equivalent(const engine::SolveReport& reference,
                       const engine::SolveReport& shipped,
                       const std::string& label) {
    EXPECT_EQ(reference.verdict, shipped.verdict) << label;
    ASSERT_EQ(reference.witness.has_value(), shipped.witness.has_value())
        << label;
    if (reference.witness.has_value()) {
        EXPECT_EQ(engine::witness_digest_hex(*reference.witness),
                  engine::witness_digest_hex(*shipped.witness))
            << label;
        EXPECT_EQ(reference.witness->vertex_map(),
                  shipped.witness->vertex_map())
            << label;
    }
    EXPECT_EQ(reference.witness_depth, shipped.witness_depth) << label;
    ASSERT_EQ(reference.admissibility.has_value(),
              shipped.admissibility.has_value())
        << label;
    if (reference.admissibility.has_value()) {
        EXPECT_EQ(reference.admissibility->admissible,
                  shipped.admissibility->admissible)
            << label;
    }
}

TEST(SolverCacheProperty, ShippedEngineMatchesTheNaiveReference) {
    const engine::Engine eng;
    const std::vector<engine::Scenario> scenarios = covered_scenarios();
    EXPECT_GE(scenarios.size(), 30u);
    for (const engine::Scenario& scenario : scenarios) {
        const engine::SolveReport& reference = naive_reference(scenario);
        // A budget-exhausted reference would make the comparison
        // vacuous: the seed backtracker settles every covered scenario.
        EXPECT_NE(reference.verdict, engine::Verdict::kBudgetExhausted)
            << scenario.name;
        expect_equivalent(reference, eng.solve(scenario), scenario.name);
    }
}

TEST(SolverCacheProperty, SharedPoolPreservesEveryRegistryVerdictAndWitness) {
    // Cross-solve reuse is pruning-only: a scenario solved cold, then
    // twice more against the pool its first solve populated, must report
    // the identical verdict and witness every time — the naive
    // reference's.
    const engine::Engine eng;
    for (const auto& spec : engine::ScenarioRegistry::standard().specs()) {
        if (spec.heavy) continue;
        engine::Scenario scenario = spec.make();
        scenario.name = spec.name;
        const engine::SolveReport& reference = naive_reference(scenario);

        scenario.options.nogood_pool =
            std::make_shared<SharedNogoodPool>();
        expect_equivalent(reference, eng.solve(scenario),
                          spec.name + " [pool cold]");
        expect_equivalent(reference, eng.solve(scenario),
                          spec.name + " [pool warm 1]");
        expect_equivalent(reference, eng.solve(scenario),
                          spec.name + " [pool warm 2]");
    }
}

TEST(SolverCacheProperty, ExchangePoolThreadMatrixPreservesVerdictAndWitness) {
    // Mid-flight exchange on/off x cross-solve pool on/off x threads
    // 1/N, every cell bit-identical to the naive reference. The
    // N-thread cells run the portfolio undiversified
    // (diversify_portfolio = false): every thread then performs the
    // identical search, so whichever thread settles reports the same
    // witness — which is what makes "bit-identical across the matrix" a
    // deterministic assertion rather than a race (with diversification
    // on, *which* witness wins is timing; the per-thread searches are
    // still witness-invariant under exchange imports, since pruned
    // subtrees never contain a witness).
    const engine::Engine eng;
    for (const auto& spec : engine::ScenarioRegistry::standard().specs()) {
        if (spec.heavy) continue;
        engine::Scenario scenario = spec.make();
        scenario.name = spec.name;
        const engine::SolveReport& reference = naive_reference(scenario);

        for (const bool pool : {false, true}) {
            for (const bool exchange : {false, true}) {
                for (const unsigned threads : {1u, 3u}) {
                    engine::Scenario cell = spec.make();
                    cell.name = spec.name;
                    core::SolverConfig solver = core::SolverConfig::fast();
                    solver.num_threads = threads;
                    solver.live_exchange = exchange;
                    solver.diversify_portfolio = false;
                    cell.options.solver = solver;
                    if (pool) {
                        cell.options.nogood_pool =
                            std::make_shared<SharedNogoodPool>();
                    }
                    const std::string label =
                        spec.name + " [matrix pool=" +
                        std::to_string(pool) + " exchange=" +
                        std::to_string(exchange) + " threads=" +
                        std::to_string(threads) + "]";
                    expect_equivalent(reference, eng.solve(cell), label);
                    if (pool) {
                        // Warm re-solve against the pool the cold cell
                        // populated: still bit-identical.
                        expect_equivalent(reference, eng.solve(cell),
                                          label + " warm");
                    }
                }
            }
        }
    }
}

// --- the nogood lifecycle at the shipped constants ----------------------

TEST(NogoodLifecycle, StoreCollectsAndRestartsFireAtTheShippedConstants) {
    using topo::ChromaticComplex;
    using topo::Simplex;
    using topo::SimplicialComplex;

    // Every branch dies instantly: the codomain has 5,000 color-matching
    // candidates per domain vertex but not a single edge, so each root
    // assignment wipes out its neighbors' domains and records one unit
    // nogood — more distinct conflicts than the 4,096-entry store can
    // hold, and more backtracks than the first Luby runs allot.
    constexpr topo::VertexId kPerColor = 5000;
    const ChromaticComplex domain(
        SimplicialComplex::from_facets({Simplex{0, 1, 2}}),
        {{0, 0}, {1, 1}, {2, 2}});
    std::vector<Simplex> isolated_vertices;
    std::unordered_map<topo::VertexId, topo::Color> colors;
    for (topo::VertexId v = 10; v < 10 + 3 * kPerColor; ++v) {
        isolated_vertices.push_back(Simplex{v});
        colors[v] = static_cast<topo::Color>((v - 10) % 3);
    }
    const ChromaticComplex edgeless(
        SimplicialComplex::from_facets(isolated_vertices), std::move(colors));
    core::ChromaticMapProblem problem;
    problem.domain = &domain;
    problem.codomain = &edgeless;
    problem.allowed =
        [&edgeless](const Simplex&) -> const SimplicialComplex& {
        return edgeless.complex();
    };

    const auto result =
        core::solve_chromatic_map(problem, core::SolverConfig::fast());
    EXPECT_FALSE(result.map.has_value());
    EXPECT_TRUE(result.exhausted);
    // Recording continues past the capacity...
    EXPECT_EQ(result.counters.nogoods_recorded, 5000u);
    EXPECT_GT(result.counters.nogoods_recorded, core::kNogoodCapacity);
    // ...because one collection retired the idle half of the store...
    EXPECT_EQ(result.counters.nogoods_evicted, 2048u);
    // ...and the Luby schedule abandoned the tree along the way.
    EXPECT_EQ(result.counters.restarts, 6u);
}

// --- the counter-accumulation audit (SearchCounters::add) ---------------

TEST(SearchCounters, AddAccumulatesEveryField) {
    // Each field gets a distinct value on both sides, so a field that
    // add() dropped or overwrote shows up as a wrong sum. The other
    // half of the guarantee is compile-time: the static_assert next to
    // add()'s definition (chromatic_csp.cpp) pins sizeof(SearchCounters)
    // to the field count, so a NEW counter cannot be added without
    // revisiting add() and this test.
    core::SearchCounters a;
    a.backtracks = 1;
    a.nogood_prunings = 2;
    a.nogoods_recorded = 3;
    a.nogoods_evicted = 4;
    a.restarts = 5;
    a.backjumps = 6;
    a.pool_seeded = 7;
    a.pool_published = 8;
    a.exchange_published = 9;
    a.exchange_imported = 10;
    a.eval_cache_hits = 11;
    a.eval_cache_misses = 12;
    core::SearchCounters b;
    b.backtracks = 100;
    b.nogood_prunings = 200;
    b.nogoods_recorded = 300;
    b.nogoods_evicted = 400;
    b.restarts = 500;
    b.backjumps = 600;
    b.pool_seeded = 700;
    b.pool_published = 800;
    b.exchange_published = 900;
    b.exchange_imported = 1000;
    b.eval_cache_hits = 1100;
    b.eval_cache_misses = 1200;

    a.add(b);
    EXPECT_EQ(a.backtracks, 101u);
    EXPECT_EQ(a.nogood_prunings, 202u);
    EXPECT_EQ(a.nogoods_recorded, 303u);
    EXPECT_EQ(a.nogoods_evicted, 404u);
    EXPECT_EQ(a.restarts, 505u);
    EXPECT_EQ(a.backjumps, 606u);
    EXPECT_EQ(a.pool_seeded, 707u);
    EXPECT_EQ(a.pool_published, 808u);
    EXPECT_EQ(a.exchange_published, 909u);
    EXPECT_EQ(a.exchange_imported, 1010u);
    EXPECT_EQ(a.eval_cache_hits, 1111u);
    EXPECT_EQ(a.eval_cache_misses, 1212u);

    // ChromaticMapResult::add_counters funnels through add() and must
    // leave the verdict fields alone.
    core::ChromaticMapResult r;
    r.exhausted = true;
    core::ChromaticMapResult other;
    other.counters = b;
    other.exhausted = false;
    r.add_counters(other);
    EXPECT_EQ(r.counters.backtracks, 100u);
    EXPECT_TRUE(r.exhausted);
    EXPECT_FALSE(r.map.has_value());
}

// --- the portfolio counter-merge audit ----------------------------------

/// A problem whose search is identical on every portfolio thread:
/// singleton per-vertex domains (one color-matching codomain vertex
/// each), so the per-thread value shuffle is the identity and every
/// thread performs the exact same backtracks. The reported counters must
/// then equal the single-thread run's for ANY thread count — the old
/// merge summed losing threads' partially-updated counters into the
/// settled total, making it grow with the thread count.
TEST(PortfolioMerge, CountersAreThreadCountIndependentOnDeterministicRaces) {
    using topo::ChromaticComplex;
    using topo::Simplex;
    using topo::SimplicialComplex;

    // UNSAT: an edge must map to an edge, but the codomain's two
    // color-matching vertices span none.
    const ChromaticComplex domain(
        SimplicialComplex::from_facets({Simplex{0, 1}}),
        {{0, 0}, {1, 1}});
    const ChromaticComplex no_edge(
        SimplicialComplex::from_facets({Simplex{10}, Simplex{11}}),
        {{10, 0}, {11, 1}});
    core::ChromaticMapProblem unsat;
    unsat.domain = &domain;
    unsat.codomain = &no_edge;
    unsat.allowed = [&no_edge](const Simplex&) -> const SimplicialComplex& {
        return no_edge.complex();
    };

    // SAT: the same edge with the edge present — settles witness {0->10,
    // 1->11} with zero backtracks on every thread.
    const ChromaticComplex edge(
        SimplicialComplex::from_facets({Simplex{10, 11}}),
        {{10, 0}, {11, 1}});
    core::ChromaticMapProblem sat;
    sat.domain = &domain;
    sat.codomain = &edge;
    sat.allowed = [&edge](const Simplex&) -> const SimplicialComplex& {
        return edge.complex();
    };

    const auto single_unsat =
        core::solve_chromatic_map(unsat, core::SolverConfig::fast());
    EXPECT_FALSE(single_unsat.map.has_value());
    EXPECT_TRUE(single_unsat.exhausted);
    EXPECT_GT(single_unsat.counters.backtracks, 0u);

    const auto single_sat =
        core::solve_chromatic_map(sat, core::SolverConfig::fast());
    ASSERT_TRUE(single_sat.map.has_value());
    EXPECT_EQ(single_sat.counters.backtracks, 0u);

    for (unsigned threads : {2u, 4u}) {
        // Exchange OFF for the counter-equality half: with the
        // mid-flight exchange on, a thread may import a racing thread's
        // nogoods and legitimately finish with fewer backtracks than
        // the single-thread run — counters are then racy by design and
        // only the verdict/witness stay pinned (asserted below).
        core::SolverConfig isolated = core::SolverConfig::portfolio(threads);
        isolated.live_exchange = false;
        const auto racy_unsat = core::solve_chromatic_map(unsat, isolated);
        EXPECT_FALSE(racy_unsat.map.has_value());
        EXPECT_TRUE(racy_unsat.exhausted);
        EXPECT_EQ(racy_unsat.counters.backtracks,
                  single_unsat.counters.backtracks)
            << "x" << threads
            << ": the merge must report the settling thread's coherent "
               "count, not a sum over stopped threads";
        EXPECT_EQ(racy_unsat.counters.nogoods_recorded,
                  single_unsat.counters.nogoods_recorded)
            << "x" << threads;

        const auto racy_sat = core::solve_chromatic_map(sat, isolated);
        ASSERT_TRUE(racy_sat.map.has_value());
        EXPECT_EQ(racy_sat.map->vertex_map(), single_sat.map->vertex_map());
        EXPECT_EQ(racy_sat.counters.backtracks, 0u) << "x" << threads;

        // Exchange ON (the shipped portfolio default): verdict and
        // witness must be untouched whatever the import interleaving.
        const auto traded_unsat = core::solve_chromatic_map(
            unsat, core::SolverConfig::portfolio(threads));
        EXPECT_FALSE(traded_unsat.map.has_value());
        EXPECT_TRUE(traded_unsat.exhausted) << "x" << threads;

        const auto traded_sat = core::solve_chromatic_map(
            sat, core::SolverConfig::portfolio(threads));
        ASSERT_TRUE(traded_sat.map.has_value());
        EXPECT_EQ(traded_sat.map->vertex_map(),
                  single_sat.map->vertex_map())
            << "x" << threads;
    }
}

// --- NogoodStore unit coverage ------------------------------------------

TEST(NogoodStore, RecordsAndBlocksCompletedNogoods) {
    NogoodStore store(16);
    ASSERT_TRUE(store.record({{1, 10}, {2, 20}}));
    EXPECT_EQ(store.size(), 1u);

    std::unordered_map<topo::VertexId, topo::VertexId> assignment;
    // Nothing else assigned: assigning 1 := 10 alone is not blocked.
    EXPECT_FALSE(store.blocked(1, 10, assignment));
    // With 2 := 20 in place, 1 := 10 would complete the nogood.
    assignment[2] = 20;
    EXPECT_TRUE(store.blocked(1, 10, assignment));
    // A different value for vertex 1 is fine.
    EXPECT_FALSE(store.blocked(1, 11, assignment));
    // And so is the same value under a different neighborhood.
    assignment[2] = 21;
    EXPECT_FALSE(store.blocked(1, 10, assignment));
}

TEST(NogoodStore, UnitNogoodBlocksUnconditionally) {
    NogoodStore store(4);
    ASSERT_TRUE(store.record({{7, 3}}));
    const std::unordered_map<topo::VertexId, topo::VertexId> empty;
    EXPECT_TRUE(store.blocked(7, 3, empty));
    EXPECT_FALSE(store.blocked(7, 4, empty));
}

TEST(NogoodStore, DropsEmptyAndDuplicateRecords) {
    NogoodStore store(8);
    EXPECT_FALSE(store.record({}));
    EXPECT_TRUE(store.record({{2, 5}, {1, 4}}));
    // Same set in another order is the same canonical nogood.
    EXPECT_FALSE(store.record({{1, 4}, {2, 5}}));
    EXPECT_EQ(store.size(), 1u);
}

TEST(NogoodStore, ZeroCapacityIsRejected) {
    EXPECT_THROW(NogoodStore store(0), precondition_error);
}

TEST(NogoodStore, HashCollisionMustNotDropADistinctNogood) {
    // Regression: the store used to dedup by hash alone, so two distinct
    // nogoods whose literal vectors collide were treated as duplicates
    // and the second silently rejected — invisible learning loss. Force
    // every record into one bucket with a constant hasher: dedup must
    // survive on literal-vector comparison.
    NogoodStore store(16, [](const std::vector<NogoodLiteral>&) {
        return std::size_t{42};
    });
    EXPECT_TRUE(store.record({{1, 10}, {2, 20}}));
    // A genuinely different nogood, same (forced) hash: must be kept.
    EXPECT_TRUE(store.record({{3, 30}, {4, 40}}));
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store.rejected_as_duplicate(), 0u);

    // Both survive and both block.
    std::unordered_map<topo::VertexId, topo::VertexId> assignment{{2, 20}};
    EXPECT_TRUE(store.blocked(1, 10, assignment));
    assignment = {{4, 40}};
    EXPECT_TRUE(store.blocked(3, 30, assignment));

    // True duplicates are still rejected, and now observably counted.
    EXPECT_FALSE(store.record({{2, 20}, {1, 10}}));
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store.rejected_as_duplicate(), 1u);
}

// --- SharedNogoodPool unit coverage -------------------------------------

TEST(SharedNogoodPool, InternsStableKeysAndScopesNogoods) {
    SharedNogoodPool pool(8);
    const auto p0 = topo::BaryPoint::vertex(0);
    const auto p1 = topo::BaryPoint::vertex(1);
    const auto k0 = pool.intern(p0, 0);
    const auto k1 = pool.intern(p1, 1);
    EXPECT_NE(k0, k1);
    EXPECT_EQ(pool.intern(p0, 0), k0);  // stable across calls
    // Same position, different color: a different key.
    EXPECT_NE(pool.intern(p0, 1), k0);

    EXPECT_TRUE(pool.publish("task-a", {{k0, 10}, {k1, 11}}));
    // Duplicate (any literal order) is rejected by comparison.
    EXPECT_FALSE(pool.publish("task-a", {{k1, 11}, {k0, 10}}));
    EXPECT_EQ(pool.rejected_as_duplicate(), 1u);
    // The same literals under another scope are independent.
    EXPECT_TRUE(pool.publish("task-b", {{k0, 10}, {k1, 11}}));
    EXPECT_EQ(pool.size("task-a"), 1u);
    EXPECT_EQ(pool.size("task-b"), 1u);
    EXPECT_EQ(pool.size("task-c"), 0u);

    std::size_t visited = 0;
    pool.for_each("task-a", [&](const auto& literals) {
        ++visited;
        ASSERT_EQ(literals.size(), 2u);
        EXPECT_EQ(literals[0].var_key, k0);
        EXPECT_EQ(literals[0].value, 10u);
    });
    EXPECT_EQ(visited, 1u);
}

TEST(SharedNogoodPool, CapacityCapsEachScope) {
    SharedNogoodPool pool(2);
    const auto k = pool.intern(topo::BaryPoint::vertex(0), 0);
    EXPECT_TRUE(pool.publish("s", {{k, 1}}));
    EXPECT_TRUE(pool.publish("s", {{k, 2}}));
    EXPECT_FALSE(pool.publish("s", {{k, 3}}));  // at capacity
    EXPECT_EQ(pool.size("s"), 2u);
    EXPECT_EQ(pool.rejected_at_capacity(), 1u);
    // A duplicate at capacity still counts as the duplicate it is.
    EXPECT_FALSE(pool.publish("s", {{k, 1}}));
    EXPECT_EQ(pool.rejected_as_duplicate(), 1u);
    EXPECT_EQ(pool.rejected_at_capacity(), 1u);
    // Another scope has its own budget.
    EXPECT_TRUE(pool.publish("t", {{k, 3}}));
}

TEST(SharedNogoodPool, ZeroCapacityDisablesThePool) {
    SharedNogoodPool pool(0);
    const auto k = pool.intern(topo::BaryPoint::vertex(0), 0);
    EXPECT_FALSE(pool.publish("s", {{k, 1}}));
    EXPECT_EQ(pool.size("s"), 0u);
    EXPECT_EQ(pool.published(), 0u);
}

// --- EvalCache / AllowedComplexLru capacity behavior --------------------

TEST(AllowedComplexLru, EvictsLeastRecentlyUsed) {
    core::AllowedComplexLru lru(2);
    topo::SimplicialComplex a, b, c;
    std::size_t builds = 0;
    const auto miss_of = [&](const topo::SimplicialComplex& cx) {
        return [&builds, &cx]() {
            ++builds;
            return &cx;
        };
    };
    lru.get(topo::Simplex{0}, miss_of(a));
    lru.get(topo::Simplex{1}, miss_of(b));
    lru.get(topo::Simplex{0}, miss_of(a));  // hit; 1 becomes LRU
    lru.get(topo::Simplex{2}, miss_of(c));  // evicts 1
    EXPECT_EQ(builds, 3u);
    EXPECT_EQ(lru.size(), 2u);
    lru.get(topo::Simplex{1}, miss_of(b));  // re-miss after eviction
    EXPECT_EQ(builds, 4u);
    EXPECT_EQ(lru.hits(), 1u);
    EXPECT_EQ(lru.misses(), 4u);
}

TEST(AllowedComplexLru, ZeroCapacityAlwaysMisses) {
    core::AllowedComplexLru lru(0);
    topo::SimplicialComplex a;
    std::size_t builds = 0;
    for (int i = 0; i < 3; ++i) {
        lru.get(topo::Simplex{0}, [&]() {
            ++builds;
            return &a;
        });
    }
    EXPECT_EQ(builds, 3u);
    EXPECT_EQ(lru.size(), 0u);
}

}  // namespace
}  // namespace gact
