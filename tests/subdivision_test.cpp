#include "topology/subdivision.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <latch>
#include <thread>
#include <utility>

#include "topology/combinatorics.h"

namespace gact::topo {
namespace {

TEST(Subdivision, IdentityOfStandardSimplex) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(2);
    const SubdividedComplex id = SubdividedComplex::identity(s);
    EXPECT_EQ(id.depth(), 0);
    EXPECT_TRUE(id.complex() == s);
    EXPECT_EQ(id.position(1), BaryPoint::vertex(1));
    EXPECT_EQ(id.carrier(1), Simplex({1}));
    id.verify_subdivision_exactness();
}

TEST(Subdivision, ChrOfEdge) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(1);
    const SubdividedComplex chr =
        SubdividedComplex::identity(s).chromatic_subdivision();
    EXPECT_EQ(chr.depth(), 1);
    // Chr of an edge: 4 vertices, 3 edges.
    EXPECT_EQ(chr.complex().vertex_ids().size(), 4u);
    EXPECT_EQ(chr.complex().facets().size(), 3u);
    chr.verify_subdivision_exactness();
}

TEST(Subdivision, ChrEdgeGeometry) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(1);
    const SubdividedComplex chr =
        SubdividedComplex::identity(s).chromatic_subdivision();
    // Vertex (0, {0,1}) sits at 1/3 x0 + 2/3 x1 (paper, Section 3.2).
    const VertexId v = chr.vertex_for(0, Simplex{0, 1});
    EXPECT_EQ(chr.position(v).coord(0), Rational(1, 3));
    EXPECT_EQ(chr.position(v).coord(1), Rational(2, 3));
    EXPECT_EQ(chr.complex().color(v), 0u);
    EXPECT_EQ(chr.carrier(v), Simplex({0, 1}));
}

TEST(Subdivision, ChrTriangleCounts) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(2);
    const SubdividedComplex chr =
        SubdividedComplex::identity(s).chromatic_subdivision();
    // Facets of Chr s are the 13 ordered partitions of {0,1,2}.
    EXPECT_EQ(chr.complex().facets().size(), 13u);
    // Vertices are the pairs (i, t), i in t: 3 + 6 + 3 = 12.
    EXPECT_EQ(chr.complex().vertex_ids().size(), 12u);
    // Euler characteristic of a disk is 1.
    EXPECT_EQ(chr.complex().complex().euler_characteristic(), 1);
    chr.verify_subdivision_exactness();
}

TEST(Subdivision, ChrPreservesPurityAndColors) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(2);
    const SubdividedComplex chr =
        SubdividedComplex::identity(s).chromatic_subdivision();
    EXPECT_TRUE(chr.complex().is_pure(2));
    // Every facet carries all three colors.
    for (const Simplex& f : chr.complex().facets()) {
        EXPECT_EQ(chr.complex().colors_of(f), ProcessSet::full(3));
    }
}

TEST(Subdivision, IteratedChrCountsAreProductsOfOrderedBell) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(2);
    const SubdividedComplex chr2 = SubdividedComplex::iterated_chromatic(s, 2);
    EXPECT_EQ(chr2.depth(), 2);
    EXPECT_EQ(chr2.complex().facets().size(), 169u);  // 13^2
    chr2.verify_subdivision_exactness();
}

TEST(Subdivision, CentralFacetCarrier) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(2);
    const SubdividedComplex chr =
        SubdividedComplex::identity(s).chromatic_subdivision();
    const Simplex central = chr.facet_for_partition(
        Simplex{0, 1, 2}, {{0, 1, 2}});
    EXPECT_EQ(chr.carrier_of(central), Simplex({0, 1, 2}));
    // All three central vertices lie at distance 2/5 weights.
    for (VertexId v : central.vertices()) {
        const Color c = chr.complex().color(v);
        EXPECT_EQ(chr.position(v).coord(c), Rational(1, 5));
    }
}

TEST(Subdivision, FacetForSequentialPartition) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(2);
    const SubdividedComplex chr =
        SubdividedComplex::identity(s).chromatic_subdivision();
    const Simplex f =
        chr.facet_for_partition(Simplex{0, 1, 2}, {{0}, {1}, {2}});
    // Contains the original vertex 0 (as (0,{0})).
    const VertexId v0 = chr.vertex_for(0, Simplex{0});
    EXPECT_TRUE(f.contains(v0));
    EXPECT_EQ(chr.position(v0), BaryPoint::vertex(0));
}

TEST(Subdivision, BoundaryEdgeSubdividedConsistently) {
    // The subdivision of a shared face must be shared: Chr of the triangle
    // restricted to edge {0,1} equals Chr of that edge.
    const ChromaticComplex s = ChromaticComplex::standard_simplex(2);
    const SubdividedComplex chr =
        SubdividedComplex::identity(s).chromatic_subdivision();
    std::size_t edge_facets = 0;
    for (const Simplex& e : chr.complex().complex().simplices_of_dimension(1)) {
        if (chr.carrier_of(e) == Simplex({0, 1})) ++edge_facets;
    }
    EXPECT_EQ(edge_facets, 3u);  // Chr of an edge has 3 edges
}

TEST(Subdivision, RetractionToParentIsChromatic) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(2);
    const SubdividedComplex chr =
        SubdividedComplex::identity(s).chromatic_subdivision();
    const SimplicialMap r = chr.retraction_to_parent(s);
    EXPECT_TRUE(r.is_simplicial(chr.complex().complex(), s.complex()));
    EXPECT_TRUE(r.is_chromatic(chr.complex(), s));
    EXPECT_TRUE(r.is_noncollapsing(chr.complex().complex()));
}

TEST(Subdivision, TerminatedEdgeExample) {
    // The Section 6.1 figure: subdivide the triangle with one edge (and
    // its vertices) terminated. The terminated edge must survive whole,
    // whichever of the three edges it is.
    const ChromaticComplex s = ChromaticComplex::standard_simplex(2);
    const SubdividedComplex id = SubdividedComplex::identity(s);
    for (const auto& [a, b] : {std::pair<VertexId, VertexId>{0, 1},
                               {0, 2}, {1, 2}}) {
        const Simplex edge{a, b};
        const SubdividedComplex part =
            id.chromatic_subdivision_with_termination(
                [&edge](const Simplex& t) { return t.is_face_of(edge); });
        // The whole edge is still a simplex (via original vertex ids).
        const VertexId va = part.vertex_for(a, Simplex{a});
        const VertexId vb = part.vertex_for(b, Simplex{b});
        EXPECT_TRUE(part.complex().contains(Simplex{va, vb}));
        // No subdivision vertex in the interior of the edge.
        for (VertexId v : part.complex().vertex_ids()) {
            EXPECT_NE(part.carrier(v), edge)
                << "terminated edge " << edge.to_string()
                << " has an interior vertex";
        }
        // Counted by hand from the collapse construction: 11 facets.
        EXPECT_EQ(part.complex().facets().size(), 11u);
        part.verify_subdivision_exactness();
    }
}

TEST(Subdivision, KeptFacetListMatchesComplexFacets) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(2);
    const SubdividedComplex id = SubdividedComplex::identity(s);
    const SubdividedComplex chr = id.chromatic_subdivision();
    SimplicialComplex non_pure = SimplicialComplex::from_facets(
        {Simplex{0, 1, 2}, Simplex{2, 3}});
    const ChromaticComplex dangling(std::move(non_pure),
                                    {{0, 0}, {1, 1}, {2, 2}, {3, 0}});
    const std::vector<SubdividedComplex> cases = {
        id,
        chr,
        chr.chromatic_subdivision(),
        // A terminated facet: the whole triangle survives.
        id.chromatic_subdivision_with_termination(
            [](const Simplex&) { return true; }),
        // Only a lower face terminated: the edge {0, 1}.
        id.chromatic_subdivision_with_termination(
            [](const Simplex& t) { return t.is_face_of(Simplex{0, 1}); }),
        id.barycentric_subdivision(),
        SubdividedComplex::identity(dangling).chromatic_subdivision(),
    };
    for (const SubdividedComplex& cx : cases) {
        EXPECT_EQ(cx.facets(), cx.complex().facets());
    }
}

TEST(Subdivision, LazyComplexMatchesEagerClosure) {
    // complex() is the face closure of facets(), built on first read: the
    // same complex, iteration order included, as building it at once, and
    // color() agrees with it without building it.
    const ChromaticComplex s = ChromaticComplex::standard_simplex(2);
    const SubdividedComplex id = SubdividedComplex::identity(s);
    const SubdividedComplex chr = id.chromatic_subdivision();
    const std::vector<SubdividedComplex> cases = {
        id,
        chr,
        chr.chromatic_subdivision(),
        id.chromatic_subdivision_with_termination(
            [](const Simplex&) { return true; }),
        id.chromatic_subdivision_with_termination(
            [](const Simplex& t) { return t.is_face_of(Simplex{0, 1}); }),
    };
    for (const SubdividedComplex& cx : cases) {
        const SimplicialComplex eager =
            SimplicialComplex::from_facets(cx.facets());
        const SimplexSet& built = cx.complex().complex().simplices();
        EXPECT_TRUE(std::equal(built.begin(), built.end(),
                               eager.simplices().begin(),
                               eager.simplices().end()));
        for (VertexId v : cx.complex().vertex_ids()) {
            EXPECT_EQ(cx.color(v), cx.complex().color(v));
        }
    }
}

TEST(Subdivision, ConcurrentFirstReadsShareOneComplex) {
    // Four threads make the first complex() read of one copy at once:
    // the closure is built once, and the original shares it.
    const SubdividedComplex chr2 =
        SubdividedComplex::iterated_chromatic(
            ChromaticComplex::standard_simplex(2), 2);
    const SubdividedComplex copy = chr2;
    std::latch start(4);
    std::array<const ChromaticComplex*, 4> seen{};
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < seen.size(); ++i) {
        threads.emplace_back([&, i] {
            start.arrive_and_wait();
            seen[i] = &copy.complex();
        });
    }
    for (std::thread& t : threads) t.join();
    for (const ChromaticComplex* c : seen) EXPECT_EQ(c, seen[0]);
    EXPECT_EQ(&chr2.complex(), seen[0]);
    EXPECT_EQ(seen[0]->facets().size(), 169u);
}

TEST(Subdivision, FullyTerminatedComplexUnchanged) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(2);
    const SubdividedComplex id = SubdividedComplex::identity(s);
    const SubdividedComplex part = id.chromatic_subdivision_with_termination(
        [](const Simplex&) { return true; });
    EXPECT_EQ(part.complex().facets().size(), 1u);
    part.verify_subdivision_exactness();
}

TEST(Subdivision, BarycentricOfTriangle) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(2);
    const SubdividedComplex bary =
        SubdividedComplex::identity(s).barycentric_subdivision();
    EXPECT_EQ(bary.complex().facets().size(), 6u);
    // Colors are simplex dimensions: the barycenter of the triangle has
    // color 2.
    bool found_center = false;
    for (VertexId v : bary.complex().vertex_ids()) {
        if (bary.position(v) == BaryPoint::barycenter(Simplex{0, 1, 2})) {
            EXPECT_EQ(bary.complex().color(v), 2u);
            found_center = true;
        }
    }
    EXPECT_TRUE(found_center);
    bary.verify_subdivision_exactness();
}

TEST(Subdivision, FindVertexByPositionAndColor) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(1);
    const SubdividedComplex chr =
        SubdividedComplex::identity(s).chromatic_subdivision();
    const BaryPoint p({{0, Rational(1, 3)}, {1, Rational(2, 3)}});
    const auto v = chr.find_vertex(p, 0);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(chr.position(*v), p);
    EXPECT_FALSE(chr.find_vertex(p, 1).has_value());
}

TEST(Subdivision, FacetsContainingBarycenter) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(2);
    const SubdividedComplex chr =
        SubdividedComplex::identity(s).chromatic_subdivision();
    const auto facets =
        chr.facets_containing(BaryPoint::barycenter(Simplex{0, 1, 2}));
    // The barycenter lies in the central facet only.
    ASSERT_EQ(facets.size(), 1u);
    EXPECT_EQ(chr.carrier_of(facets[0]), Simplex({0, 1, 2}));
}

class ChrSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ChrSweep, FacetCountsAndExactness) {
    const auto [n, k] = GetParam();
    const ChromaticComplex s = ChromaticComplex::standard_simplex(n);
    const SubdividedComplex chr = SubdividedComplex::iterated_chromatic(s, k);
    std::size_t expected = 1;
    for (int i = 0; i < k; ++i) {
        expected *= ordered_bell_number(static_cast<std::size_t>(n) + 1);
    }
    EXPECT_EQ(chr.complex().facets().size(), expected);
    chr.verify_subdivision_exactness();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChrSweep,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(1, 2),
                      std::make_tuple(1, 3), std::make_tuple(2, 1),
                      std::make_tuple(2, 2), std::make_tuple(2, 3),
                      std::make_tuple(3, 1)));

}  // namespace
}  // namespace gact::topo
