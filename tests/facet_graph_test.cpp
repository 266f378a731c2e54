#include "topology/facet_graph.h"

#include <gtest/gtest.h>

#include <set>

#include "core/lt_pipeline.h"
#include "tasks/standard_tasks.h"
#include "topology/subdivision.h"
#include "lt_witness.h"



namespace gact::topo {
namespace {

using test_support::build_lt_witness;
using test_support::LtWitness;

TEST(FacetGraph, SingleTriangle) {
    const FacetGraph g(SimplicialComplex::from_facets({Simplex{0, 1, 2}}));
    EXPECT_EQ(g.num_facets(), 1u);
    EXPECT_TRUE(g.neighbors(0).empty());
    EXPECT_EQ(g.num_components(), 1u);
    EXPECT_TRUE(g.is_pseudomanifold());
    EXPECT_EQ(g.boundary_ridges().size(), 3u);
}

TEST(FacetGraph, TwoTrianglesSharingAnEdge) {
    const FacetGraph g(SimplicialComplex::from_facets(
        {Simplex{0, 1, 2}, Simplex{1, 2, 3}}));
    EXPECT_EQ(g.num_facets(), 2u);
    EXPECT_EQ(g.neighbors(0).size(), 1u);
    EXPECT_EQ(g.num_components(), 1u);
    EXPECT_EQ(g.boundary_ridges().size(), 4u);
}

TEST(FacetGraph, BranchingIsNotPseudomanifold) {
    const FacetGraph g(SimplicialComplex::from_facets(
        {Simplex{0, 1, 2}, Simplex{1, 2, 3}, Simplex{1, 2, 4}}));
    EXPECT_FALSE(g.is_pseudomanifold());
}

TEST(FacetGraph, ChrIsAConnectedPseudomanifold) {
    const auto chr = SubdividedComplex::iterated_chromatic(
        ChromaticComplex::standard_simplex(2), 2);
    const FacetGraph g(chr.complex().complex());
    EXPECT_EQ(g.num_facets(), 169u);
    EXPECT_EQ(g.num_components(), 1u);
    EXPECT_TRUE(g.is_pseudomanifold());
}

TEST(FacetGraph, LOrdIsSixIsolatedSimplices) {
    // The six sigma_alpha share no codimension-1 face: the dual graph of
    // L_ord is six isolated nodes (visible in the Section 4.2 figure).
    const tasks::AffineTask lord = tasks::total_order_task(2);
    const FacetGraph g(lord.l_complex);
    EXPECT_EQ(g.num_facets(), 6u);
    EXPECT_EQ(g.num_components(), 6u);
}

TEST(FacetGraph, L1IsConnected) {
    const tasks::AffineTask l1 = tasks::t_resilience_task(2, 1);
    const FacetGraph g(l1.l_complex);
    EXPECT_EQ(g.num_components(), 1u);
    EXPECT_TRUE(g.is_pseudomanifold());
}

TEST(FacetGraph, RingOneSplitsIntoThreeCornerStrips) {
    // The collar ring R_1 of the L_1 construction is one strip per
    // forbidden corner — the structure the Section 9.2 figure shows and
    // that the CSP solver exploits via component decomposition.
    const LtWitness p = build_lt_witness(2, 1, 2);
    SimplicialComplex ring1;
    for (const Simplex& f : p.tsub.stable_facets()) {
        if (core::ring_of_stable_facet(p.tsub, f) == 1) ring1.add_simplex(f);
    }
    const FacetGraph g(ring1);
    EXPECT_EQ(g.num_components(), 3u);
}

TEST(FacetGraph, BoundaryOfChrEdgeIsTwoPoints) {
    const auto chr = SubdividedComplex::iterated_chromatic(
        ChromaticComplex::standard_simplex(1), 2);
    const FacetGraph g(chr.complex().complex());
    // A path of 9 edges: endpoints are the two boundary ridges.
    EXPECT_EQ(g.boundary_ridges().size(), 2u);
    EXPECT_EQ(g.num_components(), 1u);
}

}  // namespace
}  // namespace gact::topo
