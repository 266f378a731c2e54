#include "core/lt_pipeline.h"

#include <gtest/gtest.h>

#include <map>
#include "lt_witness.h"



namespace gact::core {
namespace {

using test_support::build_lt_witness;
using test_support::LtWitness;

// Build once; the pipeline is deterministic and somewhat expensive.
const LtWitness& pipeline21() {
    static const LtWitness p = build_lt_witness(2, 1, 2);
    return p;
}

TEST(LtPipeline, BuildsForN2T1) {
    const LtWitness& p = pipeline21();
    EXPECT_FALSE(p.tsub.stable_complex().is_empty());
    EXPECT_EQ(p.task.task.validate(), "");
}

TEST(LtPipeline, RingZeroIsL1) {
    const LtWitness& p = pipeline21();
    // Ring-0 stable facets are exactly the facets of L_1.
    std::size_t ring0 = 0;
    for (const Simplex& f : p.tsub.stable_facets()) {
        if (ring_of_stable_facet(p.tsub, f) == 0) ++ring0;
    }
    EXPECT_EQ(ring0, p.task.l_complex.facets().size());
}

TEST(LtPipeline, RingsPartitionStableFacets) {
    const LtWitness& p = pipeline21();
    std::map<std::size_t, std::size_t> by_ring;
    for (const Simplex& f : p.tsub.stable_facets()) {
        ++by_ring[ring_of_stable_facet(p.tsub, f)];
    }
    // Two stabilization stages: rings 0 and 1 exist.
    ASSERT_EQ(by_ring.size(), 2u);
    EXPECT_GT(by_ring[0], 0u);
    EXPECT_GT(by_ring[1], 0u);
}

TEST(LtPipeline, StableVerticesAvoidForbiddenSkeleton) {
    const LtWitness& p = pipeline21();
    // No stable vertex of K(T) lies on the 0-skeleton (corners), by the
    // stabilization rule (n - t = 1).
    for (topo::VertexId v : p.tsub.stable_complex().vertex_ids()) {
        EXPECT_GE(p.tsub.stable_position(v).support().dimension(), 1);
    }
}

TEST(LtPipeline, DeltaIsAValidApproximation) {
    const LtWitness& p = pipeline21();
    // delta is chromatic, simplicial, and carrier-preserving into Delta.
    const ChromaticComplex& k = p.tsub.stable_complex();
    EXPECT_TRUE(p.delta.is_simplicial(k.complex(),
                                      p.task.task.outputs.complex()));
    EXPECT_TRUE(p.delta.is_chromatic(k, p.task.task.outputs));
    for (const Simplex& sigma : k.complex().simplices()) {
        const Simplex carrier = p.tsub.stable_carrier(sigma);
        EXPECT_TRUE(p.task.task.delta.allows(carrier, p.delta.apply(sigma)))
            << sigma.to_string();
    }
}

TEST(LtPipeline, DeltaIsIdentityOnRingZero) {
    const LtWitness& p = pipeline21();
    for (topo::VertexId v : p.tsub.stable_complex().vertex_ids()) {
        const auto lv = p.task.subdivision.find_vertex(
            p.tsub.stable_position(v), p.tsub.stable_complex().color(v));
        if (lv.has_value() && p.task.l_complex.contains_vertex(*lv)) {
            EXPECT_EQ(p.delta.apply(v), *lv);
        }
    }
}

TEST(LtPipeline, RadialProjectionFixesL) {
    const LtWitness& p = pipeline21();
    const topo::BaryPoint center = topo::BaryPoint::barycenter(
        Simplex{0, 1, 2});
    EXPECT_EQ(radial_projection_l1(p.task, center), center);
}

TEST(LtPipeline, RadialProjectionSendsOutsideToBoundary) {
    const LtWitness& p = pipeline21();
    // A point near corner 0 (outside L_1) projects onto the boundary.
    const topo::BaryPoint x{{{0, Rational(9, 10)},
                             {1, Rational(1, 20)},
                             {2, Rational(1, 20)}}};
    ASSERT_FALSE(point_in_l(p.task, x));
    const topo::BaryPoint fx = radial_projection_l1(p.task, x);
    EXPECT_TRUE(point_in_l(p.task, fx));
    // The image lies on a boundary edge of L_1.
    bool on_boundary = false;
    for (const Simplex& e : l_boundary_edges(p.task)) {
        if (topo::point_in_simplex(fx, p.task.subdivision.positions_of(e))) {
            on_boundary = true;
        }
    }
    EXPECT_TRUE(on_boundary);
}

TEST(LtPipeline, RadialProjectionPreservesBoundaryFaces) {
    // The paper: "radial projection preserves boundaries". A point on an
    // edge of s projects to a point of the same edge.
    const LtWitness& p = pipeline21();
    const topo::BaryPoint x{{{0, Rational(19, 20)}, {1, Rational(1, 20)}}};
    ASSERT_FALSE(point_in_l(p.task, x));
    const topo::BaryPoint fx = radial_projection_l1(p.task, x);
    EXPECT_TRUE(fx.support().is_face_of(Simplex{0, 1}));
}

TEST(LtPipeline, RadialProjectionOnStableVertices) {
    // f is defined on all of |K(T)| and is the identity exactly on R_0.
    const LtWitness& p = pipeline21();
    for (topo::VertexId v : p.tsub.stable_complex().vertex_ids()) {
        const topo::BaryPoint& x = p.tsub.stable_position(v);
        const topo::BaryPoint fx = radial_projection_l1(p.task, x);
        EXPECT_TRUE(point_in_l(p.task, fx));
        if (point_in_l(p.task, x)) {
            EXPECT_EQ(fx, x);
        }
    }
}

TEST(LtPipeline, AdmissibleForResilientRuns) {
    const LtWitness& p = pipeline21();
    const iis::TResilientModel res1(3, 1);
    const auto runs = iis::filter_by_model(
        iis::enumerate_stabilized_runs(3, 1), res1);
    ASSERT_FALSE(runs.empty());
    const AdmissibilityReport report = check_admissibility(p.tsub, runs, 8);
    EXPECT_TRUE(report.admissible)
        << report.failures.size() << " failures; first: "
        << (report.failures.empty() ? "" : report.failures[0].to_string());
    EXPECT_EQ(report.runs_checked, runs.size());
    EXPECT_GE(report.max_landing_round, 1u);
}

TEST(LtPipeline, SoloRunNeverLands) {
    // A solo run converges to a corner, which K(T) never covers: not
    // admissible — and indeed not a Res_1 run.
    const LtWitness& p = pipeline21();
    const iis::Run solo = iis::Run::forever(
        3, iis::OrderedPartition::concurrent(ProcessSet::of({0})));
    EXPECT_FALSE(find_landing(p.tsub, solo, 10).has_value());
    EXPECT_FALSE(iis::TResilientModel(3, 1).contains(solo));
}

TEST(LtPipeline, FullyConcurrentRunLandsImmediately) {
    const LtWitness& p = pipeline21();
    const iis::Run lockstep = iis::Run::forever(
        3, iis::OrderedPartition::concurrent(ProcessSet::full(3)));
    const auto landing = find_landing(p.tsub, lockstep, 8);
    ASSERT_TRUE(landing.has_value());
    // The lockstep run stays at the barycentric center, inside R_0.
    EXPECT_LE(landing->round, 3u);
    EXPECT_EQ(ring_of_stable_facet(p.tsub, landing->stable_facet), 0u);
}

TEST(LtPipeline, StableRuleRejectsEarlyStages) {
    const topo::ChromaticComplex s = topo::ChromaticComplex::standard_simplex(2);
    const SubdividedComplex id = SubdividedComplex::identity(s);
    EXPECT_FALSE(lt_stable_rule(2, 1, id, Simplex{0, 1, 2}));
}

}  // namespace
}  // namespace gact::core
