// Stress regression for the view-local landing rule (Theorem 6.1 "<=").
//
// The depth-2 compact family contains pairs of runs that share a view yet
// land in different stable simplices — e.g. ({0}|{2}|{1})({0}|{1,2})... vs
// the same prefix with round 2 fully concurrent: p1's view is identical,
// but one run's limit stays in R_0 while the other drifts into a corner
// ring (p1 keeps averaging towards the laggard at the corner). A protocol
// extraction keyed on per-run landings assigns that shared view two
// different outputs, violating decision stability. The shipped rule
// decides on the snapshot hull instead and passes this family.
#include <gtest/gtest.h>

#include "protocol/gact_protocol.h"
#include "protocol/verifier.h"
#include "lt_witness.h"



namespace gact::protocol {
namespace {

using test_support::build_lt_witness;
using test_support::LtWitness;

TEST(GactDepth2Stress, SampledDepthTwoFamilyIsSolved) {
    const LtWitness pipeline = build_lt_witness(2, 1, 3);
    const iis::TResilientModel res1(3, 1);
    std::vector<iis::Run> runs;
    std::size_t i = 0;
    for (iis::Run& r : iis::enumerate_stabilized_runs(3, 2)) {
        if (i++ % 13 == 0 && res1.contains(r)) runs.push_back(std::move(r));
    }
    ASSERT_GT(runs.size(), 50u);

    ViewArena arena;
    const GactProtocolBuild build = build_gact_protocol(
        pipeline.tsub, pipeline.delta, runs, 10, arena);
    EXPECT_EQ(build.conflicts, 0u);
    EXPECT_EQ(build.landed_runs, build.total_runs);

    const auto report = verify_inputless(pipeline.task.task, build.protocol,
                                         runs, 10, arena);
    EXPECT_TRUE(report.solved) << report.summary();
}

TEST(GactDepth2Stress, TheHistoricalCounterexampleRun) {
    // The exact run that exposed the per-run-landing incoherence: it
    // shares p1's round-2 view with a concurrent-round-2 sibling but
    // drifts toward corner 0 (the laggard p0 pulls the averages).
    const LtWitness pipeline = build_lt_witness(2, 1, 3);
    const iis::Run drifting(
        3,
        {iis::OrderedPartition::sequential({0, 2, 1}),
         iis::OrderedPartition(
             {ProcessSet::of({0}), ProcessSet::of({1, 2})})},
        {iis::OrderedPartition::concurrent(ProcessSet::full(3))});
    const iis::Run sibling(
        3,
        {iis::OrderedPartition::sequential({0, 2, 1}),
         iis::OrderedPartition::concurrent(ProcessSet::full(3))},
        {iis::OrderedPartition::concurrent(ProcessSet::full(3))});
    // Same view for p1 after two rounds.
    ViewArena arena;
    EXPECT_EQ(drifting.view(1, 2, arena), sibling.view(1, 2, arena));

    const std::vector<iis::Run> pair = {drifting, sibling};
    const GactProtocolBuild build = build_gact_protocol(
        pipeline.tsub, pipeline.delta, pair, 10, arena);
    EXPECT_EQ(build.conflicts, 0u);
    const auto report = verify_inputless(pipeline.task.task, build.protocol,
                                         pair, 10, arena);
    EXPECT_TRUE(report.solved) << report.summary();
}

}  // namespace
}  // namespace gact::protocol
