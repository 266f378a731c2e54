#include "core/terminating_subdivision.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "engine/scenario_registry.h"
#include "kt_digest.h"

namespace gact::core {
namespace {

const auto kNothing = [](const SubdividedComplex&, const Simplex&) {
    return false;
};
const auto kEverything = [](const SubdividedComplex&, const Simplex&) {
    return true;
};

TEST(TerminatingSubdivision, NoStableGivesPlainChr) {
    TerminatingSubdivision t(topo::ChromaticComplex::standard_simplex(2));
    EXPECT_EQ(t.stages(), 0u);
    t.advance(kNothing);
    EXPECT_EQ(t.stages(), 1u);
    EXPECT_EQ(t.complex_at(0).complex().facets().size(), 1u);
    t.advance(kNothing);
    EXPECT_EQ(t.stages(), 2u);
    EXPECT_EQ(t.complex_at(1).complex().facets().size(), 13u);
    t.advance(kNothing);
    EXPECT_EQ(t.stages(), 3u);
    EXPECT_EQ(t.complex_at(2).complex().facets().size(), 169u);
    EXPECT_TRUE(t.stable_complex().is_empty());
}

TEST(TerminatingSubdivision, EachAdvanceBuildsTheComplexItScans) {
    // m advances build exactly m stage complexes, C_0 .. C_{m-1}: the
    // k-th advance() scans the complex it just built (depth k), and that
    // complex is the one complex_at() serves afterwards.
    TerminatingSubdivision t(topo::ChromaticComplex::standard_simplex(2));
    for (std::size_t m = 1; m <= 4; ++m) {
        const SubdividedComplex* scanned = nullptr;
        std::size_t calls = 0;
        t.advance([&](const SubdividedComplex& cx, const Simplex&) {
            scanned = &cx;
            ++calls;
            EXPECT_EQ(static_cast<std::size_t>(cx.depth()), m - 1);
            return false;
        });
        EXPECT_EQ(t.stages(), m);
        EXPECT_GT(calls, 0u);
        EXPECT_EQ(scanned, &t.complex_at(m - 1));
        EXPECT_EQ(static_cast<std::size_t>(t.complex_at(m - 1).depth()),
                  m - 1);
        EXPECT_THROW(t.complex_at(m), precondition_error);
    }
}

TEST(TerminatingSubdivision, OnlyTheNewestStageComplexIsKept) {
    TerminatingSubdivision t(topo::ChromaticComplex::standard_simplex(2));
    EXPECT_THROW(t.complex_at(0), precondition_error);  // none built yet
    t.advance(kNothing);
    EXPECT_TRUE(t.stable_complex().is_empty());
    t.advance(kEverything);
    t.advance(kNothing);
    EXPECT_THROW(t.complex_at(0), precondition_error);
    EXPECT_THROW(t.complex_at(1), precondition_error);
    EXPECT_THROW(t.complex_at(3), precondition_error);
    // All of C_1 was stabilized, so C_2 is C_1 again.
    EXPECT_EQ(t.complex_at(2).complex().facets().size(), 13u);
    // K(T) survives the stage complexes: it is all of C_1.
    EXPECT_EQ(t.stable_complex().complex().size(),
              t.complex_at(2).complex().complex().size());
}

TEST(TerminatingSubdivision, EverythingStableFreezes) {
    TerminatingSubdivision t(topo::ChromaticComplex::standard_simplex(2));
    // All stages are the base complex itself.
    t.advance(kEverything);
    EXPECT_EQ(t.complex_at(0).complex().facets().size(), 1u);
    t.advance(kEverything);
    EXPECT_EQ(t.complex_at(1).complex().facets().size(), 1u);
    t.advance(kEverything);
    EXPECT_EQ(t.complex_at(2).complex().facets().size(), 1u);
    // K(T) is the base simplex (with global ids).
    EXPECT_EQ(t.stable_complex().complex().facets().size(), 1u);
    EXPECT_TRUE(t.stable_complex().is_pure(2));
}

TEST(TerminatingSubdivision, Section61EdgeExample) {
    // The figure of Section 6.1: terminate one edge of the triangle.
    TerminatingSubdivision t(topo::ChromaticComplex::standard_simplex(2));
    t.advance([](const SubdividedComplex& cx, const Simplex& s) {
        return cx.depth() == 0 && s.is_face_of(Simplex{0, 1});
    });
    // Stable: the edge and its two endpoints (3 simplices).
    EXPECT_EQ(t.stable_complex().complex().size(), 3u);
    t.advance(kNothing);
    EXPECT_EQ(t.complex_at(1).complex().facets().size(), 11u);
    t.complex_at(1).verify_subdivision_exactness();
    // The stable edge persists verbatim in the next stage.
    const auto e01 = t.stable_complex().complex().simplices_of_dimension(1);
    ASSERT_EQ(e01.size(), 1u);
    EXPECT_EQ(t.stable_carrier(e01[0]), Simplex({0, 1}));
}

TEST(TerminatingSubdivision, StableSimplicesNeverSubdividedAgain) {
    TerminatingSubdivision t(topo::ChromaticComplex::standard_simplex(2));
    // Stage 0: the base, nothing stable.
    t.advance(kNothing);
    // Stage 1: C_1 = Chr s; stabilize its central facet (all carriers
    // full).
    t.advance([](const SubdividedComplex& cx, const Simplex& s) {
        for (topo::VertexId v : s.vertices()) {
            if (!(cx.carrier(v) == Simplex({0, 1, 2}))) return false;
        }
        return cx.depth() == 1;
    });
    const std::size_t stable_before = t.stable_complex().complex().size();
    EXPECT_GT(stable_before, 0u);
    // Two more stages: the stable part must persist unchanged.
    t.advance(kNothing);
    t.advance(kNothing);
    const std::size_t stable_after = t.stable_complex().complex().size();
    EXPECT_EQ(stable_before, stable_after);
    // The central facet of Chr s is a facet of C_3.
    bool found = false;
    for (const Simplex& f : t.complex_at(3).complex().facets()) {
        bool central = true;
        for (topo::VertexId v : f.vertices()) {
            const Rational w =
                t.complex_at(3).position(v).coord(
                    t.complex_at(3).complex().color(v));
            if (!(w == Rational(1, 5))) central = false;
        }
        if (central) found = true;
    }
    EXPECT_TRUE(found);
}

TEST(TerminatingSubdivision, GlobalIdsAreStableAcrossStages) {
    TerminatingSubdivision t(topo::ChromaticComplex::standard_simplex(1));
    // Stabilize vertex {0} at stage 1 and everything at stage 2; the
    // global id of the corner must not change.
    t.advance([](const SubdividedComplex& cx, const Simplex& s) {
        return cx.depth() == 0 && s == Simplex{0};
    });
    const auto v1 = t.find_stable_vertex(topo::BaryPoint::vertex(0), 0);
    ASSERT_TRUE(v1.has_value());
    t.advance(kEverything);
    const auto v2 = t.find_stable_vertex(topo::BaryPoint::vertex(0), 0);
    ASSERT_TRUE(v2.has_value());
    EXPECT_EQ(*v1, *v2);
}

TEST(TerminatingSubdivision, StablePositionsAndCarriers) {
    TerminatingSubdivision t(topo::ChromaticComplex::standard_simplex(2));
    t.advance(kNothing);
    t.advance(kEverything);
    // All Chr s vertices are now stable; check one interior vertex.
    const topo::BaryPoint center{{{0, Rational(1, 5)},
                                  {1, Rational(2, 5)},
                                  {2, Rational(2, 5)}}};
    const auto v = t.find_stable_vertex(center, 0);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(t.stable_position(*v), center);
    EXPECT_EQ(t.stable_carrier(Simplex{*v}), Simplex({0, 1, 2}));
}

TEST(TerminatingSubdivision, StableSimplexContains) {
    TerminatingSubdivision t(topo::ChromaticComplex::standard_simplex(1));
    t.advance(kEverything);
    const auto facets = t.stable_facets();
    ASSERT_EQ(facets.size(), 1u);
    const topo::BaryPoint mid = topo::BaryPoint::barycenter(Simplex{0, 1});
    EXPECT_TRUE(t.stable_simplex_contains(facets[0], {mid}));
}

TEST(TerminatingSubdivision, EmptyPlaceholderRejectsAdvance) {
    TerminatingSubdivision t;
    EXPECT_THROW(t.advance(kNothing), precondition_error);
}

TEST(TerminatingSubdivision, ShardedAdvanceIsBitIdenticalToSequential) {
    // Per-facet sharding is a wall-clock knob only: every stage complex,
    // stable set, global id, and position must match the 1-thread build
    // exactly (work units are merged in facet order).
    const auto lt_rule = [](const SubdividedComplex& cx, const Simplex& s) {
        if (cx.depth() < 2) return false;
        for (VertexId v : s.vertices()) {
            if (cx.carrier(v).dimension() < 1) return false;
        }
        return true;
    };
    TerminatingSubdivision seq(topo::ChromaticComplex::standard_simplex(2));
    TerminatingSubdivision par(topo::ChromaticComplex::standard_simplex(2));
    for (int i = 0; i < 5; ++i) {
        seq.advance(lt_rule, 1);
        par.advance(lt_rule, 4);
        ASSERT_EQ(seq.stages(), par.stages());
        const std::size_t k = seq.stages() - 1;
        EXPECT_EQ(seq.complex_at(k).complex().complex(),
                  par.complex_at(k).complex().complex())
            << "stage " << k;
        EXPECT_EQ(seq.stable_complex().complex(),
                  par.stable_complex().complex())
            << "stage " << k;
        for (VertexId v : seq.stable_complex().vertex_ids()) {
            EXPECT_EQ(seq.stable_position(v), par.stable_position(v));
            EXPECT_EQ(seq.stable_complex().color(v),
                      par.stable_complex().color(v));
        }
    }
}

TEST(TerminatingSubdivision, StableComplexReadBetweenAdvancesMatchesFinal) {
    // K(T) is grown in place by advance(): reading it between advances
    // must leave the same complex, coloring and iteration order as
    // reading it only after the last advance. Every stage also keeps its
    // facet list equal to the complex's facets.
    const auto lt_rule = [](const SubdividedComplex& cx, const Simplex& s) {
        if (cx.depth() < 2) return false;
        for (VertexId v : s.vertices()) {
            if (cx.carrier(v).dimension() < 1) return false;
        }
        return true;
    };
    for (unsigned threads : {1u, 4u}) {
        TerminatingSubdivision read(topo::ChromaticComplex::standard_simplex(2));
        TerminatingSubdivision last(topo::ChromaticComplex::standard_simplex(2));
        for (int i = 0; i < 4; ++i) {
            read.advance(lt_rule, threads);
            last.advance(lt_rule, threads);
            const SubdividedComplex& cx = read.complex_at(read.stages() - 1);
            EXPECT_EQ(cx.facets(), cx.complex().facets()) << "stage " << i;
            EXPECT_FALSE(read.stable_complex().is_empty() && i >= 2);
        }
        EXPECT_EQ(read.stable_complex(), last.stable_complex());
        const auto& a = read.stable_complex().complex().simplices();
        const auto& b = last.stable_complex().complex().simplices();
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    }
}

TEST(TerminatingSubdivision, SigmaIsKtInGlobalIds) {
    // Sigma_k is not held apart from K(T): after stage k, a face of a
    // stage facet is stable iff all its vertices have global ids and the
    // mapped simplex is in K(T). Those faces and their images both
    // number |K(T)|, so the map is a bijection between Sigma_k and K(T).
    const auto lt_rule = [](const SubdividedComplex& cx, const Simplex& s) {
        if (cx.depth() < 2) return false;
        for (VertexId v : s.vertices()) {
            if (cx.carrier(v).dimension() < 1) return false;
        }
        return true;
    };
    for (unsigned threads : {1u, 4u}) {
        TerminatingSubdivision t(topo::ChromaticComplex::standard_simplex(2));
        for (int i = 0; i < 5; ++i) {
            t.advance(lt_rule, threads);
            const SubdividedComplex& cx = t.complex_at(t.stages() - 1);
            const topo::SimplicialComplex& kt = t.stable_complex().complex();
            topo::SimplexSet stable;
            topo::SimplexSet images;
            for (const Simplex& f : cx.facets()) {
                for (const Simplex& s : f.faces()) {
                    std::vector<VertexId> global;
                    for (VertexId v : s.vertices()) {
                        const auto g =
                            t.find_stable_vertex(cx.position(v), cx.color(v));
                        if (!g.has_value()) break;
                        global.push_back(*g);
                    }
                    if (global.size() != s.size()) continue;
                    const Simplex image(global);
                    if (!kt.contains(image)) continue;
                    stable.insert(s);
                    images.insert(image);
                }
            }
            EXPECT_EQ(stable.size(), kt.size())
                << "stage " << i << ", " << threads << " threads";
            EXPECT_EQ(images.size(), kt.size())
                << "stage " << i << ", " << threads << " threads";
            EXPECT_FALSE(kt.is_empty() && i >= 2);
        }
    }
}

TEST(TerminatingSubdivision, RuleNotClosedUnderFacesIsRejected) {
    // Only the top-dimensional simplex is selected, none of its faces:
    // K(T) would not be a complex, so the record refuses it instead of
    // closing it silently.
    const auto top_only = [](const SubdividedComplex& cx, const Simplex& s) {
        return s.dimension() == cx.complex().dimension();
    };
    for (unsigned threads : {1u, 4u}) {
        TerminatingSubdivision t(topo::ChromaticComplex::standard_simplex(2));
        EXPECT_THROW(t.advance(top_only, threads), precondition_error);
    }
    // Its face closure is accepted, and K(T) is the whole triangle.
    const auto closed = [](const SubdividedComplex&, const Simplex&) {
        return true;
    };
    TerminatingSubdivision t(topo::ChromaticComplex::standard_simplex(2));
    t.advance(closed);
    EXPECT_EQ(t.stable_complex().complex().size(), 7u);
}

TEST(TerminatingSubdivision, StageRecordsPartitionKtInInsertionOrder) {
    // Each stage's record lists what it added to K(T): together the
    // records hold every K(T) simplex once, each face ahead of its
    // cofaces, and stable_since reads the stage back.
    const auto lt_rule = [](const SubdividedComplex& cx, const Simplex& s) {
        if (cx.depth() < 2) return false;
        for (VertexId v : s.vertices()) {
            if (cx.carrier(v).dimension() < 1) return false;
        }
        return true;
    };
    TerminatingSubdivision t(topo::ChromaticComplex::standard_simplex(2));
    for (int i = 0; i < 5; ++i) t.advance(lt_rule);
    const topo::SimplicialComplex& kt = t.stable_complex().complex();
    topo::SimplexSet seen;
    for (std::size_t k = 0; k < t.stages(); ++k) {
        for (const Simplex& s : t.stage_record(k)) {
            for (const Simplex& b : s.boundary_faces()) {
                if (!b.empty()) EXPECT_TRUE(seen.contains(b)) << s;
            }
            EXPECT_TRUE(seen.insert(s).second) << s;
            EXPECT_EQ(t.stable_since(s), k) << s;
        }
    }
    EXPECT_EQ(seen.size(), kt.size());
    EXPECT_TRUE(t.stage_record(0).empty());
    EXPECT_FALSE(t.stage_record(2).empty());
    EXPECT_THROW(t.stage_record(t.stages()), precondition_error);
}

TEST(TerminatingSubdivision, ConcurrentFirstStableSinceReads) {
    // stable_since builds its lookup on the first read after an
    // advance(); 4 threads making that read at once must all get every
    // answer right.
    const auto lt_rule = [](const SubdividedComplex& cx, const Simplex& s) {
        if (cx.depth() < 2) return false;
        for (VertexId v : s.vertices()) {
            if (cx.carrier(v).dimension() < 1) return false;
        }
        return true;
    };
    TerminatingSubdivision t(topo::ChromaticComplex::standard_simplex(2));
    for (int i = 0; i < 4; ++i) t.advance(lt_rule);
    std::vector<std::pair<Simplex, std::size_t>> expected;
    for (std::size_t k = 0; k < t.stages(); ++k) {
        for (const Simplex& s : t.stage_record(k)) expected.emplace_back(s, k);
    }
    ASSERT_FALSE(expected.empty());
    for (int round = 0; round < 2; ++round) {
        std::atomic<int> waiting = 4;
        std::vector<std::vector<std::size_t>> got(4);
        std::vector<std::thread> readers;
        for (std::size_t r = 0; r < 4; ++r) {
            readers.emplace_back([&, r] {
                --waiting;
                while (waiting > 0) std::this_thread::yield();
                for (const auto& [s, k] : expected) {
                    got[r].push_back(t.stable_since(s));
                }
            });
        }
        for (std::thread& th : readers) th.join();
        for (std::size_t r = 0; r < 4; ++r) {
            ASSERT_EQ(got[r].size(), expected.size());
            for (std::size_t i = 0; i < expected.size(); ++i) {
                EXPECT_EQ(got[r][i], expected[i].second)
                    << expected[i].first << ", reader " << r;
            }
        }
        // A later advance starts a new lookup; its first reads race too.
        t.advance(lt_rule);
    }
}

TEST(TerminatingSubdivision, ShardedPlainSubdivisionMatchesSequential) {
    const auto never = [](const Simplex&) { return false; };
    const auto base = topo::ChromaticComplex::standard_simplex(2);
    const auto seq = topo::SubdividedComplex::identity(base)
                         .chromatic_subdivision_with_termination(never, 1)
                         .chromatic_subdivision_with_termination(never, 1);
    const auto par = topo::SubdividedComplex::identity(base)
                         .chromatic_subdivision_with_termination(never, 3)
                         .chromatic_subdivision_with_termination(never, 3);
    EXPECT_EQ(seq.complex().complex(), par.complex().complex());
    for (VertexId v : seq.complex().vertex_ids()) {
        EXPECT_EQ(seq.position(v), par.position(v));
        EXPECT_EQ(seq.complex().color(v), par.complex().color(v));
        EXPECT_EQ(seq.provenance(v).parent_vertex,
                  par.provenance(v).parent_vertex);
        EXPECT_EQ(seq.provenance(v).parent_simplex,
                  par.provenance(v).parent_simplex);
    }
}

TEST(TerminatingSubdivision, Lt21Res1StableComplexGolden) {
    // K(T) of the registry's lt-2-1-res1 in iteration order: global ids,
    // colors, exact positions and stable_since per simplex (see
    // kt_digest.h). The lt-3-2-res2 golden is in heavy_scenarios_test.
    const auto scenario =
        engine::ScenarioRegistry::standard().find("lt-2-1-res1");
    ASSERT_TRUE(scenario.has_value());
    const TerminatingSubdivision tsub =
        test_support::scenario_tsub(*scenario);
    EXPECT_EQ(tsub.stable_complex().complex().size(), 1189u);
    EXPECT_EQ(test_support::kt_digest_hex(tsub), "98b802adfb0ca115")
        << "K(T) changed — re-pin only deliberately";
}

}  // namespace
}  // namespace gact::core
