#include "tasks/standard_tasks.h"

#include <gtest/gtest.h>

#include <set>

#include "topology/combinatorics.h"
#include "topology/connectivity.h"

namespace gact::tasks {
namespace {

// ---------- Total order task L_ord (paper, Section 4.2) ----------

TEST(TotalOrder, TwoProcesses) {
    const AffineTask lord = total_order_task(1);
    EXPECT_EQ(lord.task.validate(), "");
    // (n+1)! = 2 facets.
    EXPECT_EQ(lord.l_complex.facets().size(), 2u);
}

TEST(TotalOrder, ThreeProcessesHasSixSimplices) {
    // The figure in Section 4.2: six simplices sigma_alpha.
    const AffineTask lord = total_order_task(2);
    EXPECT_EQ(lord.task.validate(), "");
    EXPECT_EQ(lord.l_complex.facets().size(), 6u);
}

TEST(TotalOrder, SigmaAlphaIsUniqueAndCorrectlyPlaced) {
    const topo::SubdividedComplex chr2 = topo::SubdividedComplex::
        iterated_chromatic(topo::ChromaticComplex::standard_simplex(2), 2);
    const Simplex s = sigma_alpha(chr2, {1, 2, 0});
    // Vertex colored 1 at corner 1; vertex colored 2 inside edge {1,2};
    // vertex colored 0 in the interior.
    EXPECT_EQ(chr2.carrier(chr2.complex().vertex_with_color(s, 1)),
              Simplex({1}));
    EXPECT_EQ(chr2.carrier(chr2.complex().vertex_with_color(s, 2)),
              Simplex({1, 2}));
    EXPECT_EQ(chr2.carrier(chr2.complex().vertex_with_color(s, 0)),
              Simplex({0, 1, 2}));
}

TEST(TotalOrder, DistinctPermutationsGiveDistinctSimplices) {
    const topo::SubdividedComplex chr2 = topo::SubdividedComplex::
        iterated_chromatic(topo::ChromaticComplex::standard_simplex(2), 2);
    std::set<Simplex> seen;
    for (const auto& perm : topo::all_permutations(3)) {
        std::vector<ProcessId> alpha(perm.begin(), perm.end());
        EXPECT_TRUE(seen.insert(sigma_alpha(chr2, alpha)).second);
    }
}

TEST(TotalOrder, IsNotLinkConnected) {
    // Paper, Section 8.2: "the output complex L_ord for the total order
    // task on three processes is not link-connected, because the link (in
    // L_ord) of a vertex of s is not connected."
    const AffineTask lord = total_order_task(2);
    const auto report = topo::check_link_connected(lord.l_complex);
    EXPECT_FALSE(report.link_connected);
}

TEST(TotalOrder, CornerLinkIsDisconnected) {
    // Pin down the witness the paper names: the link of a corner vertex.
    const AffineTask lord = total_order_task(2);
    // Corner 0 survives subdivision with the same position; find it in the
    // subdivision by position and color.
    const auto corner =
        lord.subdivision.find_vertex(topo::BaryPoint::vertex(0), 0);
    ASSERT_TRUE(corner.has_value());
    const SimplicialComplex link = lord.l_complex.link(Simplex{*corner});
    EXPECT_FALSE(link.is_empty());
    EXPECT_GT(link.num_connected_components(), 1u);
}

TEST(TotalOrder, DeltaOnFacesRestrictsToSubPermutations) {
    const AffineTask lord = total_order_task(2);
    // Delta(edge {0,1}) consists of the orderings of {0,1}: 2 facets.
    EXPECT_EQ(lord.task.delta.at(Simplex{0, 1}).facets().size(), 2u);
    // Delta(vertex {i}) is the single vertex simplex.
    EXPECT_EQ(lord.task.delta.at(Simplex{2}).facets().size(), 1u);
}

// ---------- t-resilience task L_t (paper, Section 9.2) ----------

TEST(TResilience, L1ForThreeProcesses) {
    const AffineTask lt = t_resilience_task(2, 1);
    EXPECT_EQ(lt.task.validate(), "");
    // No vertex at the corners of s; the figure's central region.
    for (const Simplex& f : lt.l_complex.facets()) {
        for (topo::VertexId v : f.vertices()) {
            EXPECT_GE(lt.subdivision.carrier(v).dimension(), 1);
        }
    }
    // The Section 9.2 figure's central region: 142 facets, and Delta of
    // the full simplex is all of it.
    EXPECT_EQ(lt.l_complex.facets().size(), 142u);
    EXPECT_EQ(lt.task.delta.at(Simplex{0, 1, 2}).facets().size(), 142u);
}

TEST(TResilience, LnIsEverything) {
    // t = n: the wait-free case; no vertex lies on a face of negative
    // dimension, so L_n = Chr^2 s.
    const AffineTask lt = t_resilience_task(2, 2);
    EXPECT_EQ(lt.l_complex.facets().size(), 169u);
}

TEST(TResilience, L0IsInteriorOnly) {
    // t = 0: no vertex on any proper face: only simplices with all
    // vertices carried by the full simplex.
    const AffineTask lt = t_resilience_task(2, 0);
    for (const Simplex& f : lt.l_complex.facets()) {
        for (topo::VertexId v : f.vertices()) {
            EXPECT_EQ(lt.subdivision.carrier(v), Simplex({0, 1, 2}));
        }
    }
    EXPECT_EQ(lt.l_complex.facets().size(), 97u);
    // Link-connected too, though the sweep below checks only t >= 1.
    EXPECT_TRUE(topo::is_link_connected(lt.l_complex));
}

TEST(TResilience, L1IsLinkConnected) {
    // Required by Proposition 9.1/9.2: Delta(tau) link-connected for all
    // tau; in particular L_1 itself.
    const AffineTask lt = t_resilience_task(2, 1);
    EXPECT_TRUE(topo::is_link_connected(lt.l_complex));
}

TEST(TResilience, DeltaImagesAreLinkConnected) {
    const AffineTask lt = t_resilience_task(2, 1);
    for (const Simplex& tau :
         lt.task.inputs.complex().simplices()) {
        const SimplicialComplex& image = lt.task.delta.at(tau);
        if (!image.is_empty()) {
            EXPECT_TRUE(topo::is_link_connected(image))
                << "Delta(" << tau.to_string() << ")";
        }
    }
}

TEST(TResilience, CornersHaveEmptyImagesForT1) {
    const AffineTask lt = t_resilience_task(2, 1);
    for (topo::VertexId c = 0; c <= 2; ++c) {
        EXPECT_TRUE(lt.task.delta.at(Simplex{c}).is_empty());
    }
    // Edges have non-empty images (the middle of the subdivided edge).
    EXPECT_FALSE(lt.task.delta.at(Simplex{0, 1}).is_empty());
}

TEST(TResilience, EdgeImageIsMiddlePath) {
    // Delta({0,1}) for L_1: sub-edges of Chr^2 {0,1} avoiding both
    // endpoints. Chr^2 of an edge is a path of 9 edges; removing the two
    // corner-incident ones leaves 7.
    const AffineTask lt = t_resilience_task(2, 1);
    EXPECT_EQ(lt.task.delta.at(Simplex{0, 1}).facets().size(), 7u);
}

// ---------- immediate snapshot task ----------

TEST(ImmediateSnapshotTask, IsChrOne) {
    const AffineTask is = immediate_snapshot_task(2);
    EXPECT_EQ(is.task.validate(), "");
    EXPECT_EQ(is.l_complex.facets().size(), 13u);
    EXPECT_TRUE(topo::is_link_connected(is.l_complex));
}


TEST(TotalOrder, FourProcessesHasTwentyFourSimplices) {
    const AffineTask lord = total_order_task(3);
    EXPECT_EQ(lord.task.validate(), "");
    EXPECT_EQ(lord.l_complex.facets().size(), 24u);  // 4!
}

TEST(TResilience, FourProcessCounts) {
    // n = 3: the family scales; validation covers purity of every
    // Delta(t) on all 15 faces of the tetrahedron.
    const AffineTask l1 = t_resilience_task(3, 1);
    EXPECT_EQ(l1.task.validate(), "");
    EXPECT_EQ(l1.l_complex.facets().size(), 3851u);
    const AffineTask l2 = t_resilience_task(3, 2);
    EXPECT_EQ(l2.l_complex.facets().size(), 4949u);
    const AffineTask l3 = t_resilience_task(3, 3);
    EXPECT_EQ(l3.l_complex.facets().size(), 5625u);  // all of Chr^2
}

class TResilienceSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TResilienceSweep, ValidatesAndIsLinkConnectedForPositiveT) {
    const auto [n, t] = GetParam();
    const AffineTask lt = t_resilience_task(n, t);
    EXPECT_EQ(lt.task.validate(), "");
    if (t >= 1) {
        EXPECT_TRUE(topo::is_link_connected(lt.l_complex));
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TResilienceSweep,
                         ::testing::Values(std::make_tuple(1, 0),
                                           std::make_tuple(1, 1),
                                           std::make_tuple(2, 1),
                                           std::make_tuple(2, 2)));

}  // namespace
}  // namespace gact::tasks
