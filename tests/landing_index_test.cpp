// core::LandingIndex against brute-force references.
//
// The index replaced two linear scans that ran the exact containment test
// on every candidate: find_landing's per-run scan of the participation
// face's stable simplices, and the view-local landing rule's
// dimension-ascending scan of all of K(T). Both scans live on here, in
// the test only, as references: the index's box filter may only skip
// candidates the exact test rejects, so every answer must be identical.
#include "core/landing_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "core/lt_pipeline.h"
#include "engine/engine.h"
#include "engine/scenario_registry.h"
#include "protocol/gact_protocol.h"

namespace gact::core {
namespace {

std::vector<VertexId> base_inputs(const TerminatingSubdivision& tsub) {
    std::vector<VertexId> inputs;
    for (int i = 0; i <= tsub.base().dimension(); ++i) {
        inputs.push_back(static_cast<VertexId>(i));
    }
    return inputs;
}

/// find_landing as a scan: every stable simplex of the participation
/// face's dimension, sorted, exact test on each, positions recomputed
/// from round 0 for every round.
std::optional<Landing> reference_landing(const TerminatingSubdivision& tsub,
                                         const iis::Run& run,
                                         std::size_t max_round) {
    const std::vector<VertexId> inputs = base_inputs(tsub);
    std::vector<VertexId> face_verts;
    for (gact::ProcessId p : run.participants().members()) {
        face_verts.push_back(static_cast<VertexId>(p));
    }
    const Simplex face{std::move(face_verts)};
    std::vector<Simplex> candidates;
    for (const Simplex& tau :
         tsub.stable_complex().complex().simplices_of_dimension(
             face.dimension())) {
        if (tsub.stable_carrier(tau).is_face_of(face)) {
            candidates.push_back(tau);
        }
    }
    for (std::size_t k = 1; k <= max_round; ++k) {
        const auto points = iis::run_simplex_positions(run, k, inputs);
        for (const Simplex& tau : candidates) {
            if (tsub.stable_simplex_contains(tau, points)) {
                return Landing{k, tau, std::max(k, tsub.stable_since(tau))};
            }
        }
    }
    return std::nullopt;
}

/// The view-local landing rule as a scan: all of K(T), dimension by
/// dimension, exact test on every simplex whose carrier covers the
/// snapshot's support.
class ReferenceRule {
public:
    ReferenceRule(const TerminatingSubdivision& tsub,
                  const SimplicialMap& delta)
        : tsub_(tsub), delta_(delta) {
        const auto& complex = tsub.stable_complex().complex();
        by_dimension_.resize(static_cast<std::size_t>(complex.dimension()) +
                             1);
        for (const Simplex& s : complex.simplices()) {
            by_dimension_[static_cast<std::size_t>(s.dimension())]
                .push_back(s);
        }
    }

    std::optional<VertexId> value(
        gact::ProcessId p, std::size_t k,
        const std::vector<BaryPoint>& seen_positions) const {
        Simplex support;
        for (const BaryPoint& q : seen_positions) {
            support = support.union_with(q.support());
        }
        for (const auto& dimension_group : by_dimension_) {
            for (const Simplex& tau : dimension_group) {
                if (!support.is_face_of(tsub_.stable_carrier(tau))) continue;
                if (!tsub_.stable_simplex_contains(tau, seen_positions)) {
                    continue;
                }
                if (tsub_.stable_since(tau) > k) return std::nullopt;
                const auto& stable = tsub_.stable_complex();
                if (!stable.colors_of(tau).contains(p)) return std::nullopt;
                return delta_.apply(stable.vertex_with_color(tau, p));
            }
        }
        return std::nullopt;
    }

private:
    const TerminatingSubdivision& tsub_;
    const SimplicialMap& delta_;
    std::vector<std::vector<Simplex>> by_dimension_;
};

bool takes_general_route(const engine::Scenario& s) {
    return !s.is_wait_free() && s.affine.has_value() &&
           s.options.stable_rule != nullptr;
}

TEST(LandingIndex, GridLandingsMatchTheScan) {
    std::size_t runs = 0;
    for (const engine::Scenario& cell :
         engine::ScenarioRegistry::standard().quick_grid()) {
        if (!takes_general_route(cell)) continue;
        const engine::SolveReport report = engine::Engine().solve(cell);
        if (!report.admissibility.has_value()) continue;
        const TerminatingSubdivision& tsub = *report.tsub;
        const LandingIndex index(tsub);
        const std::size_t max_round = cell.options.max_landing_round;
        for (const iis::Run& run : report.model_runs) {
            ++runs;
            const auto got = find_landing(index, run, max_round);
            const auto want = reference_landing(tsub, run, max_round);
            ASSERT_EQ(got.has_value(), want.has_value()) << cell.name;
            if (!got.has_value()) continue;
            EXPECT_EQ(got->round, want->round) << cell.name;
            EXPECT_EQ(got->stable_facet, want->stable_facet) << cell.name;
            EXPECT_EQ(got->output_round, want->output_round) << cell.name;
        }
    }
    // Every model run the grid's admissibility checks see.
    EXPECT_EQ(runs, 1762u);
}

TEST(LandingIndex, ViewRuleMatchesTheScanOnEveryVisitedView) {
    constexpr std::size_t kHorizon = 8;
    for (const char* name : {"approx-2-of2", "lt-2-1-res1"}) {
        const auto scenario =
            engine::ScenarioRegistry::standard().find(name);
        ASSERT_TRUE(scenario.has_value()) << name;
        const engine::SolveReport report = engine::Engine().solve(*scenario);
        ASSERT_TRUE(report.witness.has_value()) << name;
        const TerminatingSubdivision& tsub = *report.tsub;
        const protocol::ViewLandingRule rule(tsub, *report.witness);
        const ReferenceRule reference(tsub, *report.witness);
        const std::vector<VertexId> inputs = base_inputs(tsub);

        // The (p, k, seen) triples build_gact_protocol asks the rule
        // about: once per distinct view of every model run.
        iis::ViewArena arena;
        std::unordered_set<iis::ViewId> visited;
        std::size_t decided = 0;
        for (const iis::Run& run : report.model_runs) {
            const auto views = run.view_table(kHorizon, arena);
            const auto positions = iis::view_positions(run, kHorizon, inputs);
            for (std::size_t k = 1; k <= kHorizon; ++k) {
                const iis::OrderedPartition& round = run.round(k - 1);
                for (gact::ProcessId p : round.support().members()) {
                    if (!visited.insert(*views[k][p]).second) continue;
                    std::vector<BaryPoint> seen;
                    for (gact::ProcessId q : round.snapshot_of(p).members()) {
                        seen.push_back(*positions[k - 1][q]);
                    }
                    const auto got = rule.value(p, k, seen);
                    EXPECT_EQ(got, reference.value(p, k, seen))
                        << name << " p" << p << " k" << k;
                    if (got.has_value()) ++decided;
                }
            }
        }
        EXPECT_GT(visited.size(), 0u) << name;
        EXPECT_GT(decided, 0u) << name;
    }
}

TEST(LandingIndex, PointsOnAFaceSharedByTwoStableFacets) {
    // K(T) over the triangle: the Chr s facet F spanned by c0, c1 and the
    // corner 2 stabilizes at stage 1; the rest of the triangle at stage
    // 2, so the central facet C = (c0, c1, c2) of Chr s is subdivided
    // around the already-terminated edge c0c1 and some stage-2 facet
    // inside C contains that whole edge. (c_i: the full-snapshot view of
    // process i.)
    const auto c = [](VertexId i) {
        std::vector<std::pair<VertexId, Rational>> coords;
        for (VertexId j = 0; j < 3; ++j) {
            coords.emplace_back(j, i == j ? Rational(1, 5) : Rational(2, 5));
        }
        return BaryPoint(std::move(coords));
    };
    const std::vector<BaryPoint> f_vertices = {c(0), c(1),
                                               BaryPoint::vertex(2)};
    TerminatingSubdivision tsub(topo::ChromaticComplex::standard_simplex(2));
    tsub.advance([](const SubdividedComplex&, const Simplex&) {
        return false;
    });
    tsub.advance([&f_vertices](const SubdividedComplex& cx,
                               const Simplex& s) {
        for (VertexId v : s.vertices()) {
            if (std::find(f_vertices.begin(), f_vertices.end(),
                          cx.position(v)) == f_vertices.end()) {
                return false;
            }
        }
        return true;
    });
    tsub.advance([](const SubdividedComplex&, const Simplex&) {
        return true;
    });
    const LandingIndex index(tsub);

    // Round 1 in lockstep puts every view on C, which is not stable;
    // p2 then stops and p0, p1 run in lockstep forever, so sigma_2 is a
    // segment in the relative interior of the edge c0c1.
    const iis::Run run(
        3, {iis::OrderedPartition::concurrent(ProcessSet::full(3))},
        {iis::OrderedPartition::concurrent(ProcessSet::of({0, 1}))});
    const auto sigma2 = iis::run_simplex_positions(run, 2, base_inputs(tsub));
    std::size_t containing_facets = 0;
    for (const Simplex& f : tsub.stable_facets()) {
        if (tsub.stable_simplex_contains(f, sigma2)) ++containing_facets;
    }
    ASSERT_EQ(containing_facets, 2u);

    const auto got = find_landing(index, run, 4);
    const auto want = reference_landing(tsub, run, 4);
    ASSERT_TRUE(got.has_value());
    ASSERT_TRUE(want.has_value());
    EXPECT_EQ(got->round, 2u);
    EXPECT_EQ(got->round, want->round);
    EXPECT_EQ(got->stable_facet, want->stable_facet);
    EXPECT_EQ(got->output_round, want->output_round);

    // The view-local rule: after round 2, p0 saw {c0, c1} — the shared
    // edge itself, the carrier the rule must pick over both facets.
    SimplicialMap identity;
    for (VertexId v : tsub.stable_complex().vertex_ids()) identity.set(v, v);
    const protocol::ViewLandingRule rule(tsub, identity);
    const ReferenceRule reference(tsub, identity);
    const std::vector<BaryPoint> seen = {c(0), c(1)};
    const LandingIndex::Entry* edge = index.carrier_simplex(seen);
    ASSERT_NE(edge, nullptr);
    EXPECT_EQ(edge->simplex.dimension(), 1);
    EXPECT_EQ(edge->stable_since, 1u);
    for (gact::ProcessId p : {0u, 1u, 2u}) {
        EXPECT_EQ(rule.value(p, 2, seen), reference.value(p, 2, seen));
    }
    EXPECT_EQ(rule.value(0, 2, seen), tsub.find_stable_vertex(c(0), 0));
    EXPECT_FALSE(rule.value(2, 2, seen).has_value());
}

TEST(LandingIndex, RingOfStableFacetMatchesTheStageWalk) {
    std::size_t facets = 0;
    for (const engine::Scenario& cell :
         engine::ScenarioRegistry::standard().quick_grid()) {
        if (!takes_general_route(cell)) continue;
        // Re-drive the cell's subdivision, keeping a snapshot of K(T)
        // after every advance(). Global ids never change, so a snapshot
        // holds f exactly when f was stable by that advance.
        TerminatingSubdivision tsub(cell.affine->task.inputs);
        std::vector<SimplicialComplex> snapshots;
        const engine::StableRule& rule = *cell.options.stable_rule;
        for (std::size_t i = 0; i < cell.options.subdivision_stages; ++i) {
            tsub.advance([&rule](const SubdividedComplex& cx,
                                 const Simplex& s) {
                return rule.stable(cx, s);
            });
            snapshots.push_back(tsub.stable_complex().complex());
        }

        for (const Simplex& f : tsub.stable_facets()) {
            // The stage walk: the first advance k >= 2 whose K(T) holds f.
            // Stable simplices persist, so past the last advance K(T) is
            // the final snapshot (cells with fewer than 3 advances).
            std::optional<std::size_t> walked;
            for (std::size_t k = 2; k <= snapshots.size() && !walked; ++k) {
                const std::size_t last = snapshots.size() - 1;
                if (snapshots[std::min(k, last)].contains(f)) walked = k - 2;
            }
            ASSERT_TRUE(walked.has_value()) << cell.name;
            EXPECT_EQ(ring_of_stable_facet(tsub, f), *walked) << cell.name;
            ++facets;
        }
    }
    EXPECT_GT(facets, 0u);
}

}  // namespace
}  // namespace gact::core
