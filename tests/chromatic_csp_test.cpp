#include "core/chromatic_csp.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <span>

#include "core/lt_pipeline.h"
#include "engine/report_json.h"
#include "exec/cancel.h"
#include "topology/carrier_map.h"
#include "topology/subdivision.h"

namespace gact::core {
namespace {

using topo::CarrierMap;

/// An "allowed" function that only requires images to live in the given
/// complex (no carrier constraints).
std::function<const SimplicialComplex&(const Simplex&)> allow_all(
    const ChromaticComplex& codomain) {
    return [&codomain](const Simplex&) -> const SimplicialComplex& {
        return codomain.complex();
    };
}

TEST(ChromaticCsp, IdentityOnStandardSimplex) {
    const ChromaticComplex s = topo::ChromaticComplex::standard_simplex(2);
    ChromaticMapProblem problem;
    problem.domain = &s;
    problem.codomain = &s;
    problem.allowed = allow_all(s);
    const auto result = solve_chromatic_map(problem, SolverConfig::naive());
    ASSERT_TRUE(result.map.has_value());
    // Colors force the identity.
    for (topo::VertexId v : s.vertex_ids()) {
        EXPECT_EQ(result.map->apply(v), v);
    }
    EXPECT_TRUE(result.exhausted || result.counters.backtracks == 0);
}

TEST(ChromaticCsp, RetractionOfChrFoundBySearch) {
    const ChromaticComplex s = topo::ChromaticComplex::standard_simplex(2);
    const topo::SubdividedComplex chr =
        topo::SubdividedComplex::identity(s).chromatic_subdivision();
    // Constrain images to the carrier: a chromatic carrier-preserving map
    // Chr s -> s (the canonical retraction qualifies, so search succeeds).
    CarrierMap closure;
    for (const Simplex& sigma : s.complex().simplices()) {
        closure.set(sigma, SimplicialComplex::from_facets({sigma}));
    }
    ChromaticMapProblem problem;
    problem.domain = &chr.complex();
    problem.codomain = &s;
    problem.allowed = [&closure, &chr](const Simplex& sigma)
        -> const SimplicialComplex& {
        return closure.at(chr.carrier_of(sigma));
    };
    const auto result = solve_chromatic_map(problem, SolverConfig::naive());
    ASSERT_TRUE(result.map.has_value());
    EXPECT_EQ(check_chromatic_map(problem, *result.map), "");
}

TEST(ChromaticCsp, DisconnectedTargetIsUnsatisfiable) {
    // Domain: a path of two edges with colors 0-1-0. Codomain: two
    // disjoint edges. Fixing the path's endpoints into different
    // components makes the problem unsatisfiable.
    SimplicialComplex path =
        SimplicialComplex::from_facets({Simplex{0, 1}, Simplex{1, 2}});
    ChromaticComplex domain(path, {{0, 0}, {1, 1}, {2, 0}});
    SimplicialComplex two =
        SimplicialComplex::from_facets({Simplex{10, 11}, Simplex{20, 21}});
    ChromaticComplex codomain(two, {{10, 0}, {11, 1}, {20, 0}, {21, 1}});

    ChromaticMapProblem problem;
    problem.domain = &domain;
    problem.codomain = &codomain;
    problem.allowed = allow_all(codomain);
    problem.fixed = {{0, 10}, {2, 20}};
    const auto result = solve_chromatic_map(problem, SolverConfig::naive());
    EXPECT_FALSE(result.map.has_value());
    EXPECT_TRUE(result.exhausted);
    EXPECT_GT(result.counters.backtracks, 0u);
}

TEST(ChromaticCsp, SatisfiableWithConsistentFixing) {
    SimplicialComplex path =
        SimplicialComplex::from_facets({Simplex{0, 1}, Simplex{1, 2}});
    ChromaticComplex domain(path, {{0, 0}, {1, 1}, {2, 0}});
    SimplicialComplex two =
        SimplicialComplex::from_facets({Simplex{10, 11}, Simplex{20, 21}});
    ChromaticComplex codomain(two, {{10, 0}, {11, 1}, {20, 0}, {21, 1}});

    ChromaticMapProblem problem;
    problem.domain = &domain;
    problem.codomain = &codomain;
    problem.allowed = allow_all(codomain);
    problem.fixed = {{0, 10}, {2, 10}};
    const auto result = solve_chromatic_map(problem, SolverConfig::naive());
    ASSERT_TRUE(result.map.has_value());
    EXPECT_EQ(result.map->apply(topo::VertexId{1}), 11u);
}

TEST(ChromaticCsp, CandidateOrderIsRespected) {
    // One free vertex with two valid images: the first candidate wins.
    SimplicialComplex pt = SimplicialComplex::from_facets({Simplex{0}});
    ChromaticComplex domain(pt, {{0, 0}});
    SimplicialComplex two_pts =
        SimplicialComplex::from_facets({Simplex{10}, Simplex{20}});
    ChromaticComplex codomain(two_pts, {{10, 0}, {20, 0}});

    ChromaticMapProblem problem;
    problem.domain = &domain;
    problem.codomain = &codomain;
    problem.allowed = allow_all(codomain);
    // Descending ids: 20 before 10.
    problem.order_candidates = [](topo::VertexId,
                                  std::span<topo::VertexId> candidates) {
        std::ranges::sort(candidates, std::greater<>{});
    };
    const auto result = solve_chromatic_map(problem, SolverConfig::naive());
    ASSERT_TRUE(result.map.has_value());
    EXPECT_EQ(result.map->apply(topo::VertexId{0}), 20u);
}

TEST(ChromaticCsp, BacktrackBudgetReportsNonExhaustion) {
    // The unsatisfiable problem above, with a budget of 0 backtracks.
    SimplicialComplex path =
        SimplicialComplex::from_facets({Simplex{0, 1}, Simplex{1, 2}});
    ChromaticComplex domain(path, {{0, 0}, {1, 1}, {2, 0}});
    SimplicialComplex two =
        SimplicialComplex::from_facets({Simplex{10, 11}, Simplex{20, 21}});
    ChromaticComplex codomain(two, {{10, 0}, {11, 1}, {20, 0}, {21, 1}});
    ChromaticMapProblem problem;
    problem.domain = &domain;
    problem.codomain = &codomain;
    problem.allowed = allow_all(codomain);
    problem.fixed = {{0, 10}, {2, 20}};
    const auto result = solve_chromatic_map(problem, SolverConfig::naive(1));
    EXPECT_FALSE(result.map.has_value());
    EXPECT_FALSE(result.exhausted);
}

TEST(ChromaticCsp, CheckRejectsBadMaps) {
    const ChromaticComplex s = topo::ChromaticComplex::standard_simplex(1);
    ChromaticMapProblem problem;
    problem.domain = &s;
    problem.codomain = &s;
    problem.allowed = allow_all(s);
    // Swapping colors is not chromatic.
    SimplicialMap swap(std::unordered_map<topo::VertexId, topo::VertexId>{
        {0, 1}, {1, 0}});
    EXPECT_NE(check_chromatic_map(problem, swap), "");
    // Identity is fine.
    SimplicialMap id(std::unordered_map<topo::VertexId, topo::VertexId>{
        {0, 0}, {1, 1}});
    EXPECT_EQ(check_chromatic_map(problem, id), "");
}

TEST(ChromaticCsp, MissingInputsRejected) {
    ChromaticMapProblem problem;
    EXPECT_THROW(solve_chromatic_map(problem, SolverConfig::naive()),
                 precondition_error);
}

// --- SolverConfig engines -------------------------------------------------

/// Every problem shape exercised above, rebuilt for engine comparison.
/// The vectors/complexes referenced by the returned problems live in the
/// fixture members.
class SolverEquivalence : public ::testing::Test {
protected:
    SolverEquivalence()
        : simplex_(topo::ChromaticComplex::standard_simplex(2)),
          chr_(topo::SubdividedComplex::identity(simplex_)
                   .chromatic_subdivision()),
          path_(ChromaticComplex(
              SimplicialComplex::from_facets({Simplex{0, 1}, Simplex{1, 2}}),
              {{0, 0}, {1, 1}, {2, 0}})),
          two_edges_(ChromaticComplex(
              SimplicialComplex::from_facets(
                  {Simplex{10, 11}, Simplex{20, 21}}),
              {{10, 0}, {11, 1}, {20, 0}, {21, 1}})) {
        for (const Simplex& sigma : simplex_.complex().simplices()) {
            closure_.set(sigma, SimplicialComplex::from_facets({sigma}));
        }
    }

    /// Both engines must agree on satisfiability, and the
    /// forward-checking/MRV engine must never backtrack more than the
    /// naive one.
    void expect_equivalent(const ChromaticMapProblem& problem,
                           std::size_t budget = 1000000) {
        const auto naive =
            solve_chromatic_map(problem, SolverConfig::naive(budget));
        const auto fast =
            solve_chromatic_map(problem, SolverConfig::fast(budget));
        ASSERT_TRUE(naive.exhausted || naive.map.has_value())
            << "naive engine hit its budget; raise it for this problem";
        ASSERT_TRUE(fast.exhausted || fast.map.has_value())
            << "fast engine hit its budget; raise it for this problem";
        EXPECT_EQ(naive.map.has_value(), fast.map.has_value());
        EXPECT_LE(fast.counters.backtracks, naive.counters.backtracks);
        if (fast.map.has_value()) {
            EXPECT_EQ(check_chromatic_map(problem, *fast.map), "");
        }
    }

    ChromaticComplex simplex_;
    topo::SubdividedComplex chr_;
    ChromaticComplex path_;
    ChromaticComplex two_edges_;
    CarrierMap closure_;
};

TEST_F(SolverEquivalence, IdentityOnStandardSimplex) {
    ChromaticMapProblem problem;
    problem.domain = &simplex_;
    problem.codomain = &simplex_;
    problem.allowed = allow_all(simplex_);
    expect_equivalent(problem);
}

TEST_F(SolverEquivalence, RetractionOfChr) {
    ChromaticMapProblem problem;
    problem.domain = &chr_.complex();
    problem.codomain = &simplex_;
    problem.allowed = [this](const Simplex& sigma)
        -> const SimplicialComplex& {
        return closure_.at(chr_.carrier_of(sigma));
    };
    expect_equivalent(problem);
}

TEST_F(SolverEquivalence, DisconnectedTargetUnsatisfiable) {
    ChromaticMapProblem problem;
    problem.domain = &path_;
    problem.codomain = &two_edges_;
    problem.allowed = allow_all(two_edges_);
    problem.fixed = {{0, 10}, {2, 20}};
    expect_equivalent(problem);
}

TEST_F(SolverEquivalence, SatisfiableWithConsistentFixing) {
    ChromaticMapProblem problem;
    problem.domain = &path_;
    problem.codomain = &two_edges_;
    problem.allowed = allow_all(two_edges_);
    problem.fixed = {{0, 10}, {2, 10}};
    expect_equivalent(problem);
}

TEST_F(SolverEquivalence, CandidateOrderProblem) {
    SimplicialComplex pt = SimplicialComplex::from_facets({Simplex{0}});
    ChromaticComplex domain(pt, {{0, 0}});
    SimplicialComplex two_pts =
        SimplicialComplex::from_facets({Simplex{10}, Simplex{20}});
    ChromaticComplex codomain(two_pts, {{10, 0}, {20, 0}});
    ChromaticMapProblem problem;
    problem.domain = &domain;
    problem.codomain = &codomain;
    problem.allowed = allow_all(codomain);
    problem.order_candidates = [](topo::VertexId,
                                  std::span<topo::VertexId> candidates) {
        std::ranges::sort(candidates, std::greater<>{});
    };
    expect_equivalent(problem);
    // The first candidate must win in both engines.
    const auto fast = solve_chromatic_map(problem, SolverConfig::fast());
    ASSERT_TRUE(fast.map.has_value());
    EXPECT_EQ(fast.map->apply(topo::VertexId{0}), 20u);
}

TEST(ChromaticCspConfig, FastEngineFoldsSquareOntoPath) {
    SimplicialComplex square = SimplicialComplex::from_facets(
        {Simplex{0, 1}, Simplex{1, 2}, Simplex{2, 3}, Simplex{0, 3}});
    ChromaticComplex domain(square, {{0, 0}, {1, 1}, {2, 0}, {3, 1}});
    // Codomain: a path 10-11-12 with colors 0,1,0; folding the square
    // onto one edge is a valid chromatic map.
    SimplicialComplex path =
        SimplicialComplex::from_facets({Simplex{10, 11}, Simplex{11, 12}});
    ChromaticComplex codomain(path, {{10, 0}, {11, 1}, {12, 0}});
    ChromaticMapProblem problem;
    problem.domain = &domain;
    problem.codomain = &codomain;
    problem.allowed = [&codomain](const Simplex&) -> const SimplicialComplex& {
        return codomain.complex();
    };
    const auto result = solve_chromatic_map(problem, SolverConfig::fast());
    ASSERT_TRUE(result.map.has_value());
    EXPECT_EQ(check_chromatic_map(problem, *result.map), "");
}

TEST(ChromaticCspConfig, PortfolioFindsWitnessAndValidates) {
    const ChromaticComplex s = topo::ChromaticComplex::standard_simplex(2);
    const topo::SubdividedComplex chr =
        topo::SubdividedComplex::identity(s).chromatic_subdivision();
    CarrierMap closure;
    for (const Simplex& sigma : s.complex().simplices()) {
        closure.set(sigma, SimplicialComplex::from_facets({sigma}));
    }
    ChromaticMapProblem problem;
    problem.domain = &chr.complex();
    problem.codomain = &s;
    problem.allowed = [&closure, &chr](const Simplex& sigma)
        -> const SimplicialComplex& {
        return closure.at(chr.carrier_of(sigma));
    };
    const auto result =
        solve_chromatic_map(problem, SolverConfig::portfolio(3));
    ASSERT_TRUE(result.map.has_value());
    EXPECT_EQ(check_chromatic_map(problem, *result.map), "");
}

TEST(ChromaticCspConfig, PortfolioAgreesOnUnsatisfiable) {
    SimplicialComplex path =
        SimplicialComplex::from_facets({Simplex{0, 1}, Simplex{1, 2}});
    ChromaticComplex domain(path, {{0, 0}, {1, 1}, {2, 0}});
    SimplicialComplex two =
        SimplicialComplex::from_facets({Simplex{10, 11}, Simplex{20, 21}});
    ChromaticComplex codomain(two, {{10, 0}, {11, 1}, {20, 0}, {21, 1}});
    ChromaticMapProblem problem;
    problem.domain = &domain;
    problem.codomain = &codomain;
    problem.allowed = [&codomain](const Simplex&) -> const SimplicialComplex& {
        return codomain.complex();
    };
    problem.fixed = {{0, 10}, {2, 20}};
    const auto result =
        solve_chromatic_map(problem, SolverConfig::portfolio(2));
    EXPECT_FALSE(result.map.has_value());
    EXPECT_TRUE(result.exhausted);
}

TEST(ChromaticCspConfig, StrayCandidatesRejectedByBothEngines) {
    // A vertex that allowed() admits but the codomain lacks never enters
    // a domain, in any engine: candidates come from the codomain, so the
    // ordering closure is never even handed it, and the FC engine, which
    // has no 0-dimensional constraints, cannot pick it (regression: a
    // stray value used to trip the internal solver-bug check instead of
    // being rejected).
    SimplicialComplex pt = SimplicialComplex::from_facets({Simplex{0}});
    ChromaticComplex domain(pt, {{0, 0}});
    SimplicialComplex target = SimplicialComplex::from_facets({Simplex{10}});
    ChromaticComplex codomain(target, {{10, 0}});
    // An "allowed" complex wider than the codomain, so the stray vertex
    // would pass the per-vertex constraint filter.
    SimplicialComplex wide =
        SimplicialComplex::from_facets({Simplex{10}, Simplex{99}});
    ChromaticMapProblem problem;
    problem.domain = &domain;
    problem.codomain = &codomain;
    problem.allowed = [&wide](const Simplex&) -> const SimplicialComplex& {
        return wide;
    };
    std::vector<topo::VertexId> handed;
    problem.order_candidates = [&handed](topo::VertexId,
                                         std::span<topo::VertexId> c) {
        handed.insert(handed.end(), c.begin(), c.end());
    };
    for (const SolverConfig& config :
         {SolverConfig::naive(), SolverConfig::fast()}) {
        handed.clear();
        const auto result = solve_chromatic_map(problem, config);
        ASSERT_TRUE(result.map.has_value());
        EXPECT_EQ(result.map->apply(topo::VertexId{0}), 10u);
        EXPECT_EQ(handed, (std::vector<topo::VertexId>{10}));
    }
}

/// Root propagation refutes the problem before any search: the shipped
/// engine answers exhausted with no map and 0 backtracks, and the naive
/// reference, which re-checks the fixed vertices by search, reaches the
/// same verdict.
void expect_refuted_at_root(const ChromaticMapProblem& problem) {
    const ChromaticMapResult fast =
        solve_chromatic_map(problem, SolverConfig::fast());
    EXPECT_FALSE(fast.map.has_value());
    EXPECT_TRUE(fast.exhausted);
    EXPECT_EQ(fast.counters.backtracks, 0u);
    const ChromaticMapResult naive =
        solve_chromatic_map(problem, SolverConfig::naive());
    EXPECT_FALSE(naive.map.has_value());
    EXPECT_TRUE(naive.exhausted);
}

/// One edge {0, 1} (colors 0, 1) mapped onto one edge {10, 11}.
struct EdgeOntoEdge {
    ChromaticComplex domain{SimplicialComplex::from_facets({Simplex{0, 1}}),
                            {{0, 0}, {1, 1}}};
    ChromaticComplex codomain{
        SimplicialComplex::from_facets({Simplex{10, 11}}), {{10, 0}, {11, 1}}};
};

TEST(ChromaticCspRootRefutation, FixedValueOutsideItsOwnDomain) {
    // Vertex 0's own constraint complex holds only 11, so its fixed
    // value 10 is filtered out of its initial domain.
    const EdgeOntoEdge e;
    const SimplicialComplex only_11 =
        SimplicialComplex::from_facets({Simplex{11}});
    ChromaticMapProblem problem;
    problem.domain = &e.domain;
    problem.codomain = &e.codomain;
    problem.allowed = [&](const Simplex& sigma) -> const SimplicialComplex& {
        return sigma == Simplex{0} ? only_11 : e.codomain.complex();
    };
    problem.fixed = {{0, 10}, {1, 11}};
    expect_refuted_at_root(problem);
}

TEST(ChromaticCspRootRefutation, FixedEdgeImageViolatesAllowed) {
    // Both endpoints are fixed, each value allowed on its own, but the
    // edge's constraint complex has no edge: the image {10, 11} is a
    // codomain simplex outside allowed({0, 1}).
    const EdgeOntoEdge e;
    const SimplicialComplex no_edge =
        SimplicialComplex::from_facets({Simplex{10}, Simplex{11}});
    ChromaticMapProblem problem;
    problem.domain = &e.domain;
    problem.codomain = &e.codomain;
    problem.allowed = [&](const Simplex& sigma) -> const SimplicialComplex& {
        return sigma.size() == 2 ? no_edge : e.codomain.complex();
    };
    problem.fixed = {{0, 10}, {1, 11}};
    expect_refuted_at_root(problem);
}

TEST(ChromaticCspRootRefutation, FixedNeighborsEmptyAFreeDomain) {
    // The free middle of the path 0-1-2 must map to 11 (edge {0, 1}
    // fixed at 10) and to 21 (edge {1, 2} fixed at 20).
    const ChromaticComplex domain(
        SimplicialComplex::from_facets({Simplex{0, 1}, Simplex{1, 2}}),
        {{0, 0}, {1, 1}, {2, 0}});
    const ChromaticComplex codomain(
        SimplicialComplex::from_facets({Simplex{10, 11}, Simplex{20, 21}}),
        {{10, 0}, {11, 1}, {20, 0}, {21, 1}});
    ChromaticMapProblem problem;
    problem.domain = &domain;
    problem.codomain = &codomain;
    problem.allowed = allow_all(codomain);
    problem.fixed = {{0, 10}, {2, 20}};
    expect_refuted_at_root(problem);
}

TEST(ChromaticCspConfig, ShuffledValueOrderIsDeterministicPerSeed) {
    SimplicialComplex pt = SimplicialComplex::from_facets({Simplex{0}});
    ChromaticComplex domain(pt, {{0, 0}});
    SimplicialComplex pts = SimplicialComplex::from_facets(
        {Simplex{10}, Simplex{20}, Simplex{30}, Simplex{40}});
    ChromaticComplex codomain(pts,
                              {{10, 0}, {20, 0}, {30, 0}, {40, 0}});
    ChromaticMapProblem problem;
    problem.domain = &domain;
    problem.codomain = &codomain;
    problem.allowed = [&codomain](const Simplex&) -> const SimplicialComplex& {
        return codomain.complex();
    };
    SolverConfig config = SolverConfig::fast();
    config.value_order = ValueOrder::kShuffled;
    config.seed = 7;
    const auto first = solve_chromatic_map(problem, config);
    const auto second = solve_chromatic_map(problem, config);
    ASSERT_TRUE(first.map.has_value());
    ASSERT_TRUE(second.map.has_value());
    EXPECT_EQ(first.map->apply(topo::VertexId{0}),
              second.map->apply(topo::VertexId{0}));
}

// --- the L_t (n = 2, t = 1) approximation CSP ------------------------------

/// K(T) of the Section 9.2 construction with two stabilization stages
/// past Chr^2 s: the terminating subdivision the engine builds for
/// lt-2-1-res1 (LtStableRule over 4 stages) and bench_csp_ablation's
/// default instance.
struct LtInstance {
    tasks::AffineTask task = tasks::t_resilience_task(2, 1);
    TerminatingSubdivision tsub{topo::ChromaticComplex::standard_simplex(2)};

    LtInstance() {
        for (int stage = 0; stage < 4; ++stage) {
            tsub.advance([](const topo::SubdividedComplex& cx,
                            const Simplex& s) {
                return lt_stable_rule(2, 1, cx, s);
            });
        }
    }
};

const LtInstance& lt_instance() {
    static const LtInstance instance;
    return instance;
}

TEST(ChromaticCspPinned, FreeR0RadialSearchCounters) {
    // The ablation bench's searching cell: R_0 left free, radial
    // candidate guidance, one thread. Every counter of the shipped
    // engine is pinned, so a change to the set-up (decomposition order,
    // initial domains, root pruning) or to the search itself that moves
    // the search shows here — re-pin only deliberately.
    const LtInstance& inst = lt_instance();
    const ChromaticMapProblem problem = lt_approximation_problem(
        inst.task, inst.tsub, /*fix_identity=*/false, LtGuidance::kRadial);
    const ChromaticMapResult result =
        solve_chromatic_map(problem, SolverConfig::fast());
    ASSERT_TRUE(result.map.has_value());
    EXPECT_EQ(engine::witness_digest_hex(*result.map), "c6de68e4b066261e");
    const SearchCounters& c = result.counters;
    EXPECT_EQ(c.backtracks, 167u);
    EXPECT_EQ(c.nogood_prunings, 72u);
    EXPECT_EQ(c.nogoods_recorded, 167u);
    EXPECT_EQ(c.nogoods_evicted, 0u);
    EXPECT_EQ(c.restarts, 0u);
    EXPECT_EQ(c.backjumps, 276u);
    EXPECT_EQ(c.pool_seeded, 0u);
    EXPECT_EQ(c.pool_published, 0u);
    EXPECT_EQ(c.exchange_published, 0u);
    EXPECT_EQ(c.exchange_imported, 0u);
    EXPECT_EQ(c.eval_cache_hits, 5331u);
    EXPECT_EQ(c.eval_cache_misses, 5951u);
}

TEST(ChromaticCspPinned, FixedR0RadialSearchCounters) {
    // The engine's own cell: R_0 fixed to the identity, radial
    // guidance, one thread. Root propagation prunes the free vertices
    // next to R_0 here (FreeR0RadialSearchCounters has no fixed
    // vertex), so a change to the candidate pools, their order or the
    // propagation that moves the search shows here.
    const LtInstance& inst = lt_instance();
    const ChromaticMapProblem problem = lt_approximation_problem(
        inst.task, inst.tsub, /*fix_identity=*/true, LtGuidance::kRadial);
    const ChromaticMapResult result =
        solve_chromatic_map(problem, SolverConfig::fast());
    ASSERT_TRUE(result.map.has_value());
    EXPECT_EQ(engine::witness_digest_hex(*result.map), "2804cd4511698afd");
    const SearchCounters& c = result.counters;
    EXPECT_EQ(c.backtracks, 0u);
    EXPECT_EQ(c.nogood_prunings, 0u);
    EXPECT_EQ(c.nogoods_recorded, 0u);
    EXPECT_EQ(c.nogoods_evicted, 0u);
    EXPECT_EQ(c.restarts, 0u);
    EXPECT_EQ(c.backjumps, 0u);
    EXPECT_EQ(c.pool_seeded, 0u);
    EXPECT_EQ(c.pool_published, 0u);
    EXPECT_EQ(c.exchange_published, 0u);
    EXPECT_EQ(c.exchange_imported, 0u);
    EXPECT_EQ(c.eval_cache_hits, 408u);
    EXPECT_EQ(c.eval_cache_misses, 1554u);
}

TEST(ChromaticCspPinned, NaiveReferenceBacktracks) {
    // The naive engine branches in decompose()'s static
    // maximum-cardinality order (the shipped engine picks by MRV and
    // never reads it), so these counts pin that order: the ablation
    // bench's naive rows.
    const LtInstance& inst = lt_instance();
    struct Cell {
        bool fix_identity;
        LtGuidance guidance;
        std::size_t backtracks;
        const char* digest;
    };
    for (const Cell& cell :
         {Cell{false, LtGuidance::kRadial, 640, "2804cd4511698afd"},
          Cell{true, LtGuidance::kNone, 2046, "f3ce5d89159d5770"}}) {
        const ChromaticMapProblem problem = lt_approximation_problem(
            inst.task, inst.tsub, cell.fix_identity, cell.guidance);
        const ChromaticMapResult result =
            solve_chromatic_map(problem, SolverConfig::naive());
        ASSERT_TRUE(result.map.has_value());
        EXPECT_EQ(result.counters.backtracks, cell.backtracks);
        EXPECT_EQ(engine::witness_digest_hex(*result.map), cell.digest);
    }
}

TEST(ChromaticCspCancel, CancelledSetupSkipsCandidateOrders) {
    // A token cancelled before the solve stops the domain build at its
    // first vertex: the result is a cancelled search's (no map, not
    // exhausted), and the expensive candidate closure is not run for
    // the rest of K(T).
    const LtInstance& inst = lt_instance();
    ChromaticMapProblem problem = lt_approximation_problem(
        inst.task, inst.tsub, /*fix_identity=*/true, LtGuidance::kRadial);
    // Atomic: the set-up runs the closure on several workers.
    std::atomic<std::size_t> calls = 0;
    problem.order_candidates = [&calls, inner = problem.order_candidates](
                                   VertexId v, std::span<VertexId> c) {
        ++calls;
        inner(v, c);
    };
    exec::CancelToken token;
    token.cancel();
    for (SolverConfig config : {SolverConfig::fast(), SolverConfig::naive(),
                                SolverConfig::portfolio(2)}) {
        calls = 0;
        config.cancel = &token;
        const ChromaticMapResult result = solve_chromatic_map(problem, config);
        EXPECT_FALSE(result.map.has_value());
        EXPECT_FALSE(result.exhausted);
        EXPECT_LE(calls, 1u);
    }
}

TEST(ChromaticCspCancel, CancelDuringDomainsStopsRootPropagation) {
    // Cancelled while the last vertex's domain is being filtered: the
    // domain build finishes, and root propagation polls before its
    // first fixed vertex, so no constraint of dimension >= 1 is ever
    // evaluated (the uncancelled solve evaluates many).
    const LtInstance& inst = lt_instance();
    ChromaticMapProblem problem = lt_approximation_problem(
        inst.task, inst.tsub, /*fix_identity=*/true, LtGuidance::kRadial);
    const VertexId last = inst.tsub.stable_complex().vertex_ids().back();
    const auto base_allowed = problem.allowed;
    exec::CancelToken token;
    bool cancel_at_last = true;
    std::atomic<std::size_t> constraint_calls = 0;  // called from workers
    problem.allowed = [&](const Simplex& sigma) -> const SimplicialComplex& {
        if (sigma.size() > 1) ++constraint_calls;
        if (cancel_at_last && sigma == Simplex{last}) token.cancel();
        return base_allowed(sigma);
    };
    SolverConfig config = SolverConfig::fast();
    config.cancel = &token;
    const ChromaticMapResult cancelled = solve_chromatic_map(problem, config);
    EXPECT_FALSE(cancelled.map.has_value());
    EXPECT_FALSE(cancelled.exhausted);
    EXPECT_EQ(constraint_calls, 0u);

    // Not vacuous: left alone, the same solve evaluates constraints.
    cancel_at_last = false;
    exec::CancelToken fresh;
    config.cancel = &fresh;
    const ChromaticMapResult solved = solve_chromatic_map(problem, config);
    EXPECT_TRUE(solved.map.has_value());
    EXPECT_GT(constraint_calls, 0u);
}

}  // namespace
}  // namespace gact::core
