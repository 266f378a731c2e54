// The L_t pipeline across the t spectrum:
//  * t = n: the wait-free degeneracy of Section 7 — the terminating
//    subdivision stabilizes everything at depth 2, K(T) = Chr^2 s, delta
//    is a Corollary 7.1 witness, and the protocol solves L_n in WF;
//  * t = 0: the 0-resilient task — only runs where everybody is fast land.
#include <gtest/gtest.h>

#include "protocol/gact_protocol.h"
#include "protocol/verifier.h"
#include "lt_witness.h"



namespace gact::core {
namespace {

using test_support::build_lt_witness;
using test_support::LtWitness;

TEST(LtWaitFreeDegeneracy, EverythingStabilizesAtDepthTwo) {
    const LtWitness p = build_lt_witness(2, 2, 1);
    // K(T) is all of Chr^2 s: GACT collapses to ACT (Section 7).
    EXPECT_EQ(p.tsub.stable_facets().size(), 169u);
    EXPECT_EQ(p.task.l_complex.facets().size(), 169u);
    // delta is the identity (every stable vertex is an L vertex).
    EXPECT_EQ(p.backtracks, 0u);
}

TEST(LtWaitFreeDegeneracy, AdmissibleForAllWaitFreeRuns) {
    const LtWitness p = build_lt_witness(2, 2, 1);
    const auto runs = iis::enumerate_stabilized_runs(3, 1);
    const AdmissibilityReport report = check_admissibility(p.tsub, runs, 4);
    EXPECT_TRUE(report.admissible);
    // Every run lands as soon as sigma_2 exists.
    EXPECT_LE(report.max_landing_round, 2u);
}

TEST(LtWaitFreeDegeneracy, ProtocolSolvesLnWaitFree) {
    const LtWitness p = build_lt_witness(2, 2, 1);
    const auto runs = iis::enumerate_stabilized_runs(3, 1);
    iis::ViewArena arena;
    const auto build = protocol::build_gact_protocol(
        p.tsub, p.delta, runs, 6, arena);
    EXPECT_EQ(build.conflicts, 0u);
    EXPECT_EQ(build.landed_runs, build.total_runs);
    const auto report = protocol::verify_inputless(
        p.task.task, build.protocol, runs, 6, arena);
    EXPECT_TRUE(report.solved) << report.summary();
}

TEST(LtZeroResilient, BuildsAndAvoidsTheOneSkeleton) {
    const LtWitness p = build_lt_witness(2, 0, 2);
    // The forbidden region is the whole boundary (n-t-1 = 1 skeleton):
    // every stable vertex is interior.
    for (topo::VertexId v : p.tsub.stable_complex().vertex_ids()) {
        EXPECT_EQ(p.tsub.stable_position(v).support(),
                  topo::Simplex({0, 1, 2}));
    }
}

TEST(LtZeroResilient, SolvesInResZero) {
    const LtWitness p = build_lt_witness(2, 0, 2);
    const iis::TResilientModel res0(3, 0);
    const auto runs = iis::filter_by_model(
        iis::enumerate_stabilized_runs(3, 1), res0);
    ASSERT_FALSE(runs.empty());
    const AdmissibilityReport adm = check_admissibility(p.tsub, runs, 8);
    EXPECT_TRUE(adm.admissible)
        << adm.failures.size() << " failures; first: "
        << (adm.failures.empty() ? "" : adm.failures[0].to_string());

    iis::ViewArena arena;
    const auto build = protocol::build_gact_protocol(
        p.tsub, p.delta, runs, 8, arena);
    EXPECT_EQ(build.conflicts, 0u);
    const auto report = protocol::verify_inputless(
        p.task.task, build.protocol, runs, 8, arena);
    EXPECT_TRUE(report.solved) << report.summary();
}

TEST(LtZeroResilient, TwoFastRunsDoNotLand) {
    // With t = 0, a run whose fast set misses a process converges to the
    // boundary, which K(T) avoids entirely.
    const LtWitness p = build_lt_witness(2, 0, 2);
    const iis::Run duo = iis::Run::forever(
        3, iis::OrderedPartition::concurrent(ProcessSet::of({0, 1})));
    EXPECT_FALSE(iis::TResilientModel(3, 0).contains(duo));
    EXPECT_FALSE(find_landing(p.tsub, duo, 8).has_value());
}

TEST(LtSpectrum, StableFacetCountsGrowWithStages) {
    // More stages extend K(T) monotonically (Sigma_k increasing).
    const LtWitness two = build_lt_witness(2, 1, 2);
    const LtWitness three = build_lt_witness(2, 1, 3);
    EXPECT_GT(three.tsub.stable_facets().size(),
              two.tsub.stable_facets().size());
    // The earlier rings agree.
    std::size_t ring0_two = 0;
    std::size_t ring0_three = 0;
    for (const auto& f : two.tsub.stable_facets()) {
        if (ring_of_stable_facet(two.tsub, f) == 0) ++ring0_two;
    }
    for (const auto& f : three.tsub.stable_facets()) {
        if (ring_of_stable_facet(three.tsub, f) == 0) ++ring0_three;
    }
    EXPECT_EQ(ring0_two, ring0_three);
}

}  // namespace
}  // namespace gact::core
