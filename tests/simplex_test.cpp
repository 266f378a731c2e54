#include "topology/simplex.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "topology/simplicial_complex.h"

namespace gact::topo {
namespace {

TEST(Simplex, EmptyHasDimensionMinusOne) {
    Simplex s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.dimension(), -1);
}

TEST(Simplex, SortsAndDeduplicates) {
    Simplex s{3, 1, 3, 2};
    const std::vector<VertexId> expected = {1, 2, 3};
    EXPECT_TRUE(std::ranges::equal(s.vertices(), expected));
    EXPECT_EQ(s.dimension(), 2);
}

TEST(Simplex, Contains) {
    Simplex s{0, 4, 7};
    EXPECT_TRUE(s.contains(4));
    EXPECT_FALSE(s.contains(5));
}

TEST(Simplex, FaceRelation) {
    Simplex big{0, 1, 2};
    EXPECT_TRUE(Simplex({0, 2}).is_face_of(big));
    EXPECT_TRUE(big.is_face_of(big));
    EXPECT_TRUE(Simplex().is_face_of(big));
    EXPECT_FALSE(Simplex({0, 3}).is_face_of(big));
}

TEST(Simplex, SetOperations) {
    Simplex a{0, 1, 2};
    Simplex b{1, 2, 3};
    EXPECT_EQ(a.union_with(b), Simplex({0, 1, 2, 3}));
    EXPECT_EQ(a.intersection_with(b), Simplex({1, 2}));
    EXPECT_EQ(a.difference(b), Simplex({0}));
}

TEST(Simplex, WithWithout) {
    Simplex s{1, 3};
    EXPECT_EQ(s.with(2), Simplex({1, 2, 3}));
    EXPECT_EQ(s.with(3), s);
    EXPECT_EQ(s.without(3), Simplex({1}));
    EXPECT_EQ(s.without(9), s);
}

TEST(Simplex, FacesCount) {
    Simplex s{0, 1, 2};
    EXPECT_EQ(s.faces().size(), 7u);  // 2^3 - 1
    // Faces include the simplex itself and all vertices.
    bool found_self = false;
    for (const Simplex& f : s.faces()) {
        EXPECT_TRUE(f.is_face_of(s));
        if (f == s) found_self = true;
    }
    EXPECT_TRUE(found_self);
}

TEST(Simplex, FacesOfDimension) {
    Simplex s{0, 1, 2, 3};
    EXPECT_EQ(s.faces_of_dimension(0).size(), 4u);
    EXPECT_EQ(s.faces_of_dimension(1).size(), 6u);
    EXPECT_EQ(s.faces_of_dimension(2).size(), 4u);
    EXPECT_EQ(s.faces_of_dimension(3).size(), 1u);
    EXPECT_TRUE(s.faces_of_dimension(4).empty());
    EXPECT_TRUE(s.faces_of_dimension(-1).empty());
}

TEST(Simplex, BoundaryFacesOrderedByDroppedIndex) {
    Simplex s{5, 7, 9};
    const auto b = s.boundary_faces();
    ASSERT_EQ(b.size(), 3u);
    EXPECT_EQ(b[0], Simplex({7, 9}));
    EXPECT_EQ(b[1], Simplex({5, 9}));
    EXPECT_EQ(b[2], Simplex({5, 7}));
}

TEST(Simplex, Ordering) {
    EXPECT_LT(Simplex({0}), Simplex({0, 1}));
    EXPECT_LT(Simplex({0, 1}), Simplex({0, 2}));
}

TEST(Simplex, ToString) {
    EXPECT_EQ(Simplex({2, 0}).to_string(), "[0 2]");
    EXPECT_EQ(Simplex().to_string(), "[]");
}

TEST(Simplex, HashingDistinguishesAndAgrees) {
    std::hash<Simplex> h;
    EXPECT_EQ(h(Simplex({1, 2})), h(Simplex({2, 1})));
    EXPECT_NE(h(Simplex({1, 2})), h(Simplex({1, 3})));
}

TEST(Simplex, HashValuesArePinned) {
    // std::hash<Simplex> is hash_range over the sorted ids (seed = size,
    // then one boost-style combine per vertex). Unordered sets of
    // simplices — K(T) among them — iterate in an order these values
    // fix, and that order is observable downstream, so the values are
    // pinned across the inline (<= 4 vertices) and heap layouts.
    const std::vector<std::pair<Simplex, std::size_t>> pinned = {
        {Simplex{7}, 0x9e3779b97f4a7c5dULL},
        {Simplex{0, 1}, 0xcd94bf3ecef63c6cULL},
        {Simplex{2, 5, 11}, 0xfb58c6023e65029dULL},
        {Simplex{0, 3, 4, 1000000}, 0x4867edcb96fc9ff7ULL},
        {Simplex{1, 2, 3, 4, 5}, 0x822b05dacf2ee560ULL},
        {Simplex{0, 9, 17, 33, 65, 4294967295u}, 0xcba8b426508688f3ULL},
    };
    for (const auto& [s, value] : pinned) {
        EXPECT_EQ(std::hash<Simplex>{}(s), value) << s;
        EXPECT_EQ(SimplexSetHash{}(s), value) << s;
        EXPECT_EQ(SimplexSetHash{}(s.vertices()), value) << s;
    }
}

TEST(Simplex, FromSortedMatchesTheSortingConstructor) {
    for (std::size_t n = 0; n <= 6; ++n) {
        std::vector<VertexId> ids;
        for (std::size_t i = 0; i < n; ++i) {
            ids.push_back(static_cast<VertexId>(3 * i + 1));
        }
        const Simplex s = Simplex::from_sorted(ids);
        EXPECT_EQ(s, Simplex(ids));
        EXPECT_EQ(s.size(), n);
        EXPECT_TRUE(std::ranges::equal(s.vertices(), ids));
        if (n >= 2) {
            std::vector<VertexId> unsorted = ids;
            std::swap(unsorted.front(), unsorted.back());
            EXPECT_THROW(Simplex::from_sorted(unsorted), precondition_error);
            std::vector<VertexId> repeated = ids;
            repeated[1] = repeated[0];
            EXPECT_THROW(Simplex::from_sorted(repeated), precondition_error);
        }
    }
}

// The inline/heap boundary: simplices of 3 to 6 vertices, checked
// through every operation against the same operation on sorted vectors.
std::vector<std::vector<VertexId>> boundary_cases() {
    return {{},
            {4},
            {1, 4, 9},
            {1, 4, 9, 16},
            {0, 1, 4, 9},
            {1, 4, 9, 16, 25},
            {0, 1, 4, 9, 16, 25},
            {2, 4, 9, 16, 30},
            {4, 9, 16, 25}};
}

Simplex of(const std::vector<VertexId>& ids) { return Simplex(ids); }

template <typename Op>
std::vector<VertexId> apply(const std::vector<VertexId>& a,
                            const std::vector<VertexId>& b, Op op) {
    std::vector<VertexId> out;
    op(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
    return out;
}

TEST(Simplex, SetOperationsAcrossTheInlineBoundary) {
    for (const auto& a : boundary_cases()) {
        for (const auto& b : boundary_cases()) {
            const Simplex sa = of(a);
            const Simplex sb = of(b);
            const auto uni = apply(a, b, [](auto... xs) {
                return std::set_union(xs...);
            });
            const auto inter = apply(a, b, [](auto... xs) {
                return std::set_intersection(xs...);
            });
            const auto diff = apply(a, b, [](auto... xs) {
                return std::set_difference(xs...);
            });
            EXPECT_TRUE(std::ranges::equal(sa.union_with(sb).vertices(), uni));
            EXPECT_TRUE(
                std::ranges::equal(sa.intersection_with(sb).vertices(), inter));
            EXPECT_TRUE(std::ranges::equal(sa.difference(sb).vertices(), diff));
            EXPECT_EQ(sa.is_face_of(sb),
                      std::includes(b.begin(), b.end(), a.begin(), a.end()));
            EXPECT_EQ(sa < sb, a < b) << sa << " vs " << sb;
            EXPECT_EQ(sa == sb, a == b) << sa << " vs " << sb;
        }
        const Simplex sa = of(a);
        for (VertexId v : {0u, 4u, 5u, 25u, 31u}) {
            std::vector<VertexId> with = a;
            if (!std::ranges::binary_search(with, v)) {
                with.insert(std::ranges::upper_bound(with, v), v);
            }
            std::vector<VertexId> without = a;
            std::erase(without, v);
            EXPECT_TRUE(std::ranges::equal(sa.with(v).vertices(), with));
            EXPECT_TRUE(std::ranges::equal(sa.without(v).vertices(), without));
            EXPECT_EQ(sa.contains(v), std::ranges::binary_search(a, v));
        }
    }
}

TEST(Simplex, FacesAcrossTheInlineBoundary) {
    for (const auto& a : boundary_cases()) {
        const Simplex s = of(a);
        const std::size_t n = a.size();
        // faces(): subset masks in increasing order.
        const std::vector<Simplex> faces = s.faces();
        ASSERT_EQ(faces.size(), (std::size_t{1} << n) - 1);
        for (std::size_t mask = 1; mask < (std::size_t{1} << n); ++mask) {
            std::vector<VertexId> expected;
            for (std::size_t i = 0; i < n; ++i) {
                if (mask & (std::size_t{1} << i)) expected.push_back(a[i]);
            }
            EXPECT_TRUE(
                std::ranges::equal(faces[mask - 1].vertices(), expected));
        }
        // faces_of_dimension(d): the (d+1)-subsets, lexicographically.
        for (int d = 0; d < static_cast<int>(n); ++d) {
            std::vector<std::vector<VertexId>> expected;
            for (const Simplex& f : faces) {
                if (f.dimension() == d) {
                    expected.emplace_back(f.vertices().begin(),
                                          f.vertices().end());
                }
            }
            std::ranges::sort(expected);
            const std::vector<Simplex> got = s.faces_of_dimension(d);
            ASSERT_EQ(got.size(), expected.size());
            for (std::size_t i = 0; i < got.size(); ++i) {
                EXPECT_TRUE(std::ranges::equal(got[i].vertices(), expected[i]));
            }
        }
        // boundary_faces(): drop vertex i, in order of i.
        const std::vector<Simplex> boundary = s.boundary_faces();
        ASSERT_EQ(boundary.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
            std::vector<VertexId> expected = a;
            expected.erase(expected.begin() + static_cast<std::ptrdiff_t>(i));
            EXPECT_TRUE(std::ranges::equal(boundary[i].vertices(), expected));
        }
    }
}

TEST(Simplex, FacesPrecedeTheirCofaces) {
    // TerminatingSubdivision's K(T) record attaches each newly stable
    // simplex over its boundary in scan order, which is faces() order:
    // every face of a listed face must be listed earlier.
    const std::vector<VertexId> ids = {3, 7, 8, 20, 21, 40};
    for (std::size_t n = 1; n <= ids.size(); ++n) {
        const Simplex s(std::vector<VertexId>(ids.begin(), ids.begin() + n));
        const std::vector<Simplex> faces = s.faces();
        std::map<Simplex, std::size_t> position;
        for (std::size_t i = 0; i < faces.size(); ++i) {
            position.emplace(faces[i], i);
        }
        ASSERT_EQ(position.size(), faces.size()) << "size " << n;
        for (std::size_t i = 0; i < faces.size(); ++i) {
            for (const Simplex& f : faces[i].faces()) {
                if (f == faces[i]) continue;
                const auto it = position.find(f);
                ASSERT_NE(it, position.end()) << f;
                EXPECT_LT(it->second, i)
                    << f << " listed after its coface " << faces[i];
            }
        }
    }
}

TEST(Simplex, CopiesAndMovesAcrossTheInlineBoundary) {
    for (const auto& a : boundary_cases()) {
        const Simplex original = of(a);
        Simplex copy = original;
        EXPECT_EQ(copy, original);
        Simplex moved = std::move(copy);
        EXPECT_EQ(moved, original);
        for (const auto& b : boundary_cases()) {
            Simplex target = of(b);
            target = original;
            EXPECT_EQ(target, original);
            Simplex source = original;
            Simplex other = of(b);
            other = std::move(source);
            EXPECT_EQ(other, original);
        }
        Simplex self = original;
        const Simplex& alias = self;
        self = alias;
        EXPECT_EQ(self, original);
    }
}

}  // namespace
}  // namespace gact::topo
