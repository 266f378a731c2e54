#include "topology/simplicial_complex.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

namespace gact::topo {
namespace {

SimplicialComplex triangle() {
    return SimplicialComplex::from_facets({Simplex{0, 1, 2}});
}

SimplicialComplex hollow_triangle() {
    return SimplicialComplex::from_facets(
        {Simplex{0, 1}, Simplex{1, 2}, Simplex{0, 2}});
}

TEST(SimplicialComplex, DownwardClosure) {
    const SimplicialComplex c = triangle();
    EXPECT_EQ(c.size(), 7u);  // 3 vertices + 3 edges + 1 triangle
    EXPECT_TRUE(c.contains(Simplex{0, 1}));
    EXPECT_TRUE(c.contains(Simplex{2}));
    EXPECT_FALSE(c.contains(Simplex{0, 3}));
}

TEST(SimplicialComplex, AddSimplexRejectsEmpty) {
    SimplicialComplex c;
    EXPECT_THROW(c.add_simplex(Simplex()), precondition_error);
}

TEST(SimplicialComplex, FacetsOfTriangle) {
    const auto f = triangle().facets();
    ASSERT_EQ(f.size(), 1u);
    EXPECT_EQ(f[0], Simplex({0, 1, 2}));
}

TEST(SimplicialComplex, FacetsMixedDimensions) {
    SimplicialComplex c = SimplicialComplex::from_facets(
        {Simplex{0, 1, 2}, Simplex{2, 3}, Simplex{4}});
    const auto f = c.facets();
    ASSERT_EQ(f.size(), 3u);
    EXPECT_EQ(f[0], Simplex({0, 1, 2}));
    EXPECT_EQ(f[1], Simplex({2, 3}));
    EXPECT_EQ(f[2], Simplex({4}));
}

TEST(SimplicialComplex, DimensionAndPurity) {
    EXPECT_EQ(triangle().dimension(), 2);
    EXPECT_TRUE(triangle().is_pure(2));
    EXPECT_FALSE(triangle().is_pure(1));

    SimplicialComplex mixed = SimplicialComplex::from_facets(
        {Simplex{0, 1, 2}, Simplex{3, 4}});
    EXPECT_FALSE(mixed.is_pure(2));
    EXPECT_FALSE(mixed.is_pure());
}

TEST(SimplicialComplex, PureOfOwnDimension) {
    SimplicialComplex mixed = SimplicialComplex::from_facets(
        {Simplex{0, 1, 2}, Simplex{3, 4}});
    // Dimension 2, but edge {3,4} is maximal: not pure.
    EXPECT_FALSE(mixed.is_pure(mixed.dimension()));
}

TEST(SimplicialComplex, Skeleton) {
    const SimplicialComplex sk = triangle().skeleton(1);
    EXPECT_EQ(sk.size(), 6u);
    EXPECT_FALSE(sk.contains(Simplex{0, 1, 2}));
    EXPECT_TRUE(sk.contains(Simplex{0, 1}));
    EXPECT_TRUE(sk == hollow_triangle());
}

TEST(SimplicialComplex, OpenStar) {
    const SimplicialComplex c = triangle();
    const auto star = c.open_star(Simplex{0});
    // Simplices containing vertex 0: {0}, {0,1}, {0,2}, {0,1,2}.
    EXPECT_EQ(star.size(), 4u);
}

TEST(SimplicialComplex, ClosedStarIsWholeTriangle) {
    const SimplicialComplex c = triangle();
    EXPECT_TRUE(c.closed_star(Simplex{0}) == c);
}

TEST(SimplicialComplex, LinkOfVertexInTriangle) {
    const SimplicialComplex link = triangle().link(Simplex{0});
    // Link of a vertex of a solid triangle is the opposite edge.
    EXPECT_TRUE(link.contains(Simplex{1, 2}));
    EXPECT_EQ(link.size(), 3u);
}

TEST(SimplicialComplex, LinkOfEdge) {
    const SimplicialComplex link = triangle().link(Simplex{0, 1});
    EXPECT_EQ(link.size(), 1u);
    EXPECT_TRUE(link.contains(Simplex{2}));
}

TEST(SimplicialComplex, LinkInHollowTriangle) {
    const SimplicialComplex link = hollow_triangle().link(Simplex{0});
    // Two isolated vertices.
    EXPECT_EQ(link.size(), 2u);
    EXPECT_EQ(link.num_connected_components(), 2u);
}

TEST(SimplicialComplex, EulerCharacteristic) {
    EXPECT_EQ(triangle().euler_characteristic(), 1);         // disk
    EXPECT_EQ(hollow_triangle().euler_characteristic(), 0);  // circle
}

TEST(SimplicialComplex, ConnectedComponents) {
    SimplicialComplex c = SimplicialComplex::from_facets(
        {Simplex{0, 1}, Simplex{2, 3}, Simplex{4}});
    EXPECT_EQ(c.num_connected_components(), 3u);
    EXPECT_FALSE(c.is_connected());
    EXPECT_TRUE(triangle().is_connected());
}

TEST(SimplicialComplex, SubcomplexRelation) {
    EXPECT_TRUE(hollow_triangle().is_subcomplex_of(triangle()));
    EXPECT_FALSE(triangle().is_subcomplex_of(hollow_triangle()));
}

TEST(SimplicialComplex, VertexIds) {
    SimplicialComplex c = SimplicialComplex::from_facets({Simplex{7, 3}});
    const std::vector<VertexId> expected = {3, 7};
    EXPECT_EQ(c.vertex_ids(), expected);
}

// vertex_ids() reads a list kept on insertion; the reference walks every
// simplex for the 0-simplices.
std::vector<VertexId> walked_vertex_ids(const SimplicialComplex& c) {
    std::vector<VertexId> out;
    for (const Simplex& s : c.simplices()) {
        if (s.size() == 1) out.push_back(s.vertices()[0]);
    }
    std::sort(out.begin(), out.end());
    return out;
}

TEST(SimplicialComplex, VertexIdsMatchAFullWalkOnEveryInsertionPath) {
    // from_facets: the bulk path (<= 4 vertices) and the closure-walk
    // fallback (> 4 vertices) in one complex.
    SimplicialComplex c = SimplicialComplex::from_facets(
        {Simplex{0, 1, 2}, Simplex{2, 3, 4, 5, 6}, Simplex{7},
         Simplex{1, 8, 9, 10}});
    EXPECT_EQ(c.vertex_ids(), walked_vertex_ids(c));
    EXPECT_EQ(c.vertex_ids().size(), 11u);

    // from_closed, with duplicates in the list.
    const SimplicialComplex closed = SimplicialComplex::from_closed(
        {Simplex{3}, Simplex{5}, Simplex{3, 5}, Simplex{3}, Simplex{5}});
    EXPECT_EQ(closed.vertex_ids(), walked_vertex_ids(closed));
    EXPECT_EQ(closed.vertex_ids(), (std::vector<VertexId>{3, 5}));

    // add_simplex (closure walk).
    c.add_simplex(Simplex{10, 11, 12});
    EXPECT_EQ(c.vertex_ids(), walked_vertex_ids(c));
    c.add_simplex(Simplex{12, 13, 14, 15, 16, 17});
    EXPECT_EQ(c.vertex_ids(), walked_vertex_ids(c));
    // attach: a new vertex, then an edge over it.
    EXPECT_TRUE(c.attach(Simplex{18}));
    EXPECT_TRUE(c.attach(Simplex{17, 18}));
    EXPECT_EQ(c.vertex_ids(), walked_vertex_ids(c));
    c.add_simplex(Simplex{0, 1});  // already present: no new vertex
    EXPECT_EQ(c.vertex_ids(), walked_vertex_ids(c));

    for (int k = -1; k <= 5; ++k) {
        const SimplicialComplex sk = c.skeleton(k);
        EXPECT_EQ(sk.vertex_ids(), walked_vertex_ids(sk)) << k;
    }
    for (const Simplex& s : {Simplex{2}, Simplex{12}, Simplex{2, 3},
                             Simplex{99}}) {
        const SimplicialComplex link = c.link(s);
        EXPECT_EQ(link.vertex_ids(), walked_vertex_ids(link)) << s;
        const SimplicialComplex star = c.closed_star(s);
        EXPECT_EQ(star.vertex_ids(), walked_vertex_ids(star)) << s;
    }
    const SimplicialComplex copy = c;
    EXPECT_EQ(copy.vertex_ids(), walked_vertex_ids(c));
}

TEST(SimplicialComplex, AddSimplexReportsExactlyWhatItInserts) {
    SimplicialComplex c = hollow_triangle();
    const SimplicialComplex before = c;
    c.add_simplex(Simplex{0, 1, 2, 3});
    // The hollow triangle had its 6 simplices; the tetrahedron adds the
    // other 9 of its 15 faces.
    EXPECT_EQ(c.size(), before.size() + 9);
    EXPECT_EQ(c.size(), 15u);
    for (const Simplex& s : Simplex{0, 1, 2, 3}.faces()) {
        EXPECT_TRUE(c.contains(s)) << s;
    }
    EXPECT_TRUE(before.is_subcomplex_of(c));
    // Re-adding a face is a no-op.
    const SimplicialComplex full = c;
    c.add_simplex(Simplex{1, 2});
    EXPECT_EQ(c, full);
    EXPECT_EQ(c.size(), 15u);
}

TEST(SimplicialComplex, AttachRequiresTheBoundary) {
    SimplicialComplex c = hollow_triangle();
    // The triangle's boundary is present: one insert, nothing else.
    EXPECT_TRUE(c.attach(Simplex{0, 1, 2}));
    EXPECT_EQ(c.size(), 7u);
    // Present already: reported, not inserted again.
    EXPECT_FALSE(c.attach(Simplex{0, 1, 2}));
    EXPECT_EQ(c.size(), 7u);
    // {0, 1, 3} lacks its edges through the missing vertex 3; nothing is
    // inserted.
    EXPECT_THROW(c.attach(Simplex{0, 1, 3}), precondition_error);
    EXPECT_THROW(c.attach(Simplex{0, 3}), precondition_error);
    EXPECT_EQ(c.size(), 7u);
    EXPECT_TRUE(c.attach(Simplex{3}));
    EXPECT_TRUE(c.attach(Simplex{0, 3}));
    EXPECT_THROW(c.attach(Simplex{0, 1, 3}), precondition_error);
    EXPECT_EQ(c.size(), 9u);
    // Above the inline size too.
    SimplicialComplex big =
        SimplicialComplex::from_facets({Simplex{0, 1, 2, 3, 4, 5}});
    EXPECT_THROW(big.attach(Simplex{0, 1, 2, 3, 4, 5, 6}),
                 precondition_error);
    big.add_simplex(Simplex{1, 2, 3, 4, 5, 6});
    big.add_simplex(Simplex{0, 2, 3, 4, 5, 6});
    big.add_simplex(Simplex{0, 1, 3, 4, 5, 6});
    big.add_simplex(Simplex{0, 1, 2, 4, 5, 6});
    big.add_simplex(Simplex{0, 1, 2, 3, 5, 6});
    EXPECT_THROW(big.attach(Simplex{0, 1, 2, 3, 4, 5, 6}),
                 precondition_error);
    big.add_simplex(Simplex{0, 1, 2, 3, 4, 6});
    EXPECT_TRUE(big.attach(Simplex{0, 1, 2, 3, 4, 5, 6}));
}

TEST(SimplicialComplex, EmptyComplex) {
    SimplicialComplex c;
    EXPECT_TRUE(c.is_empty());
    EXPECT_EQ(c.dimension(), -1);
    EXPECT_EQ(c.euler_characteristic(), 0);
    EXPECT_EQ(c.num_connected_components(), 0u);
    EXPECT_FALSE(c.is_connected());
}

// Property sweep: boundary-of-boundary vanishes combinatorially — every
// (d-2)-face of a simplex appears in exactly two boundary faces.
class SimplexBoundarySweep : public ::testing::TestWithParam<int> {};

TEST_P(SimplexBoundarySweep, FacesAppearTwiceInBoundary) {
    const int n = GetParam();
    std::vector<VertexId> verts;
    for (int i = 0; i <= n; ++i) verts.push_back(static_cast<VertexId>(i));
    const Simplex s(verts);
    std::map<Simplex, int> count;
    for (const Simplex& b : s.boundary_faces()) {
        for (const Simplex& bb : b.boundary_faces()) ++count[bb];
    }
    for (const auto& [face, c] : count) EXPECT_EQ(c, 2) << face.to_string();
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimplexBoundarySweep,
                         ::testing::Values(2, 3, 4, 5));

}  // namespace
}  // namespace gact::topo
