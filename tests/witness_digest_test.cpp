// Pinned witness digests for the quick registry: the engine must keep
// reproducing the exact same witness map for every solvable scenario
// (the digest is order-independent and standard-library-independent, so
// these goldens hold on any platform — see engine/report_json.h). A
// digest change here means the search found a *different* witness: that
// can be a legitimate consequence of an ordering or heuristic change,
// but never a silent one — re-pin deliberately, with the diff in view.
//
// The 12th registry scenario, lt-3-2-res2, is heavy-gated and currently
// unsolvable-at-depth with no witness (pinned by heavy_scenarios_test).
#include "engine/report_json.h"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <string>

#include "engine/engine.h"
#include "engine/scenario_registry.h"

namespace gact::engine {
namespace {

TEST(WitnessDigest, QuickRegistryGoldens) {
    // Computed from the engine at PR 8; identical with and without the
    // shared nogood pool and across shard thread counts (reuse is
    // witness-preserving).
    const std::map<std::string, std::string> goldens = {
        {"is-1-wf", "063b4171af8dc8c2"},
        {"is-2-wf", "36e503452cdda31f"},
        // Same digest as is-1-wf: both witnesses are the depth-0
        // identity on the standard simplex's vertex ids.
        {"ksa-2p-k2-wf", "063b4171af8dc8c2"},
        {"chr2-2p-wf", "ca6bbc8c1ed9a317"},
        {"lt-2-1-res1", "2804cd4511698afd"},
        // Same task, same CSP as lt-2-1-res1 (only the model differs):
        // the searches land on the same witness.
        {"lt-2-1-adv", "2804cd4511698afd"},
        {"is-2-of1", "29caf900af715a50"},
        {"approx-2-of2", "b4308f7c303faee2"},
    };
    const std::map<std::string, Verdict> witnessless = {
        {"consensus-2-wf", Verdict::kUnsolvableAtDepth},
        {"lord-2p-wf", Verdict::kUnsolvableAtDepth},
        {"ksa-3p-k2-res1", Verdict::kUnsupported},
    };

    const auto scenarios = ScenarioRegistry::standard().quick();
    ASSERT_EQ(scenarios.size(), goldens.size() + witnessless.size())
        << "quick registry changed size: extend the golden tables";
    const auto reports = Engine().solve_batch(scenarios, 4);
    ASSERT_EQ(reports.size(), scenarios.size());

    for (const SolveReport& report : reports) {
        const auto golden = goldens.find(report.scenario);
        if (golden != goldens.end()) {
            ASSERT_TRUE(report.witness.has_value())
                << report.scenario << ": " << report.summary();
            EXPECT_EQ(witness_digest_hex(*report.witness), golden->second)
                << report.scenario
                << ": witness changed — re-pin only deliberately";
            continue;
        }
        const auto expected = witnessless.find(report.scenario);
        ASSERT_NE(expected, witnessless.end())
            << "unknown scenario " << report.scenario
            << ": extend the golden tables";
        EXPECT_EQ(report.verdict, expected->second) << report.summary();
        EXPECT_FALSE(report.witness.has_value()) << report.scenario;
    }
}

TEST(WitnessDigest, QuickGridGoldens) {
    // The quick sweep grid (gact_sweep --preset quick --json): per cell
    // the verdict, the total search backtracks and the witness digest
    // ("" when there is no witness). The backtrack counts pin the search
    // itself — the solver's free-vertex components, initial domains and
    // root pruning — so a change that keeps every witness but reshapes
    // the search shows here too. Re-pin only deliberately.
    struct Golden {
        const char* name;
        const char* verdict;
        std::size_t backtracks;
        const char* digest;
    };
    const Golden goldens[] = {
        {"wf-consensus-2-2", "unsolvable-to-depth", 40, ""},
        {"wf-consensus-2-3", "unsolvable-to-depth", 40, ""},
        {"wf-is-1", "solvable", 1, "063b4171af8dc8c2"},
        {"wf-is-2", "solvable", 1, "36e503452cdda31f"},
        {"ksa-2-1-2-wf", "unsolvable-to-depth", 4, ""},
        {"ksa-2-2-2-wf", "solvable", 0, "063b4171af8dc8c2"},
        {"lord-1-wf", "unsolvable-to-depth", 40, ""},
        {"lt-1-1-wf", "solvable", 13, "ca6bbc8c1ed9a317"},
        {"lt-1-1-res1", "solvable", 0, "9f3845661ac72699"},
        {"lt-1-1-adv1", "solvable", 0, "9f3845661ac72699"},
        {"lt-2-1-res1", "solvable", 0, "2804cd4511698afd"},
        {"lt-2-1-adv1", "solvable", 0, "2804cd4511698afd"},
        {"lt-2-2-res1", "solvable", 0, "b4308f7c303faee2"},
        {"lt-2-2-adv1", "solvable", 0, "b4308f7c303faee2"},
        {"is-1-of1", "solvable", 0, "4e2d7c2dadbe27c2"},
        {"is-1-of2", "solvable", 0, "4e2d7c2dadbe27c2"},
        {"is-2-of1", "solvable", 0, "29caf900af715a50"},
        {"is-2-of2", "solvable", 0, "29caf900af715a50"},
        {"approx-1-of1", "solvable", 0, "9f3845661ac72699"},
        {"approx-1-of2", "solvable", 0, "9f3845661ac72699"},
        {"approx-2-of1", "solvable", 0, "b4308f7c303faee2"},
        {"approx-2-of2", "solvable", 0, "b4308f7c303faee2"},
    };

    const auto scenarios = ScenarioRegistry::standard().quick_grid();
    ASSERT_EQ(scenarios.size(), std::size(goldens))
        << "quick grid changed size: extend the golden table";
    const auto reports = Engine().solve_batch(scenarios, 4);
    ASSERT_EQ(reports.size(), scenarios.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const SolveReport& report = reports[i];
        const Golden& golden = goldens[i];
        ASSERT_EQ(report.scenario, golden.name);
        EXPECT_EQ(to_string(report.verdict), std::string(golden.verdict))
            << report.summary();
        EXPECT_EQ(report.total_backtracks, golden.backtracks)
            << report.scenario;
        EXPECT_EQ(report.witness.has_value()
                      ? witness_digest_hex(*report.witness)
                      : std::string(),
                  golden.digest)
            << report.scenario;
    }
}

TEST(WitnessDigest, DigestIsOrderIndependentAndBitSensitive) {
    core::SimplicialMap a;
    a.set(1, 10);
    a.set(2, 20);
    core::SimplicialMap b;
    b.set(2, 20);
    b.set(1, 10);
    EXPECT_EQ(witness_digest(a), witness_digest(b));
    // Differing only in the lowest image bit must change the digest
    // (the collision the pre-PR-6 CLI digest had).
    core::SimplicialMap c;
    c.set(1, 11);
    c.set(2, 20);
    EXPECT_NE(witness_digest(a), witness_digest(c));
    EXPECT_EQ(witness_digest_hex(a).size(), 16u);
}

}  // namespace
}  // namespace gact::engine
