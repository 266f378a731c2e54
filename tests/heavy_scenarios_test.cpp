// The heavy-scenario wall-clock gate: the sharded lt-3-2-res2 run.
//
// This test is labeled `heavy` in CTest and self-skips unless
// GACT_RUN_HEAVY=1, so the tier-1 suite stays fast while CI (and anyone
// locally) can gate the multi-second n = 3 pipeline explicitly:
//
//   GACT_RUN_HEAVY=1 ctest -L heavy --output-on-failure
//
// The budget (default 180 s, override with GACT_HEAVY_BUDGET_SECONDS)
// is deliberately far above the measured time — the timed test takes
// 0.71–0.74 s (three runs of `GACT_RUN_HEAVY=1 ./heavy_scenarios_test`
// on a 4-core x86-64 Linux host, RelWithDebInfo), down from ~16 s
// before integer-scaled guidance distances, bulk complex construction,
// trusted chromatic builders, the restart/GC nogood lifecycle, inline
// simplices and the once-per-face K(T) record — so the gate catches
// order-of-magnitude regressions, not host noise.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>

#include "engine/engine.h"
#include "engine/scenario_registry.h"
#include "kt_digest.h"

namespace gact::engine {
namespace {

TEST(HeavyScenarios, ShardedLt32Res2StaysUnderTheWallClockBudget) {
    const char* run = std::getenv("GACT_RUN_HEAVY");
    if (run == nullptr || std::string(run) == "0") {
        GTEST_SKIP() << "set GACT_RUN_HEAVY=1 to run the heavy gate";
    }
    double budget_seconds = 180.0;
    if (const char* b = std::getenv("GACT_HEAVY_BUDGET_SECONDS")) {
        budget_seconds = std::strtod(b, nullptr);
    }

    const auto scenario = ScenarioRegistry::standard().find("lt-3-2-res2");
    ASSERT_TRUE(scenario.has_value());
    EXPECT_TRUE(scenario->heavy);
    // The registry ships the scenario sharded; that is what this gate
    // times.
    EXPECT_GT(scenario->options.shard_threads, 1u);

    const auto start = std::chrono::steady_clock::now();
    const SolveReport report = Engine().solve(*scenario);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    // The current truth at 4 subdivision stages: the search exhausts
    // without an approximation (a finer T might carry one), after the
    // engine downgrades the deliberately-requested radial guidance.
    EXPECT_EQ(report.verdict, Verdict::kUnsolvableAtDepth)
        << report.summary();
    ASSERT_EQ(report.warnings.size(), 1u);
    EXPECT_NE(report.warnings[0].find("radial"), std::string::npos);
    // The search's full account, pinned: a change to the set-up (the
    // candidate pools, their order, root propagation) or to the search
    // that moves it shows here.
    const core::SearchCounters& c = report.counters;
    EXPECT_EQ(c.backtracks, 26u);
    EXPECT_EQ(c.nogood_prunings, 3u);
    EXPECT_EQ(c.nogoods_recorded, 26u);
    EXPECT_EQ(c.nogoods_evicted, 0u);
    EXPECT_EQ(c.restarts, 0u);
    EXPECT_EQ(c.backjumps, 425u);
    EXPECT_EQ(c.pool_seeded, 0u);
    EXPECT_EQ(c.pool_published, 0u);
    EXPECT_EQ(c.exchange_published, 0u);
    EXPECT_EQ(c.exchange_imported, 0u);
    EXPECT_EQ(c.eval_cache_hits, 1267u);
    EXPECT_EQ(c.eval_cache_misses, 18707u);

    EXPECT_LT(elapsed, budget_seconds)
        << "sharded lt-3-2-res2 took " << elapsed
        << " s; budget " << budget_seconds << " s — " << report.summary();
}

TEST(HeavyScenarios, Lt32Res2StableComplexGolden) {
    // K(T) of lt-3-2-res2 in iteration order (see kt_digest.h); the
    // tier-1 lt-2-1-res1 golden is in terminating_subdivision_test.
    const char* run = std::getenv("GACT_RUN_HEAVY");
    if (run == nullptr || std::string(run) == "0") {
        GTEST_SKIP() << "set GACT_RUN_HEAVY=1 to run the heavy gate";
    }
    const auto scenario = ScenarioRegistry::standard().find("lt-3-2-res2");
    ASSERT_TRUE(scenario.has_value());
    const core::TerminatingSubdivision tsub =
        test_support::scenario_tsub(*scenario);
    EXPECT_EQ(tsub.stable_complex().complex().size(), 148407u);
    EXPECT_EQ(test_support::kt_digest_hex(tsub), "8e3560355b7c413c")
        << "K(T) changed — re-pin only deliberately";
}

}  // namespace
}  // namespace gact::engine
