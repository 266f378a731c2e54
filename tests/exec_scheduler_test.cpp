// The gact::exec substrate, pinned: work stealing actually spreads an
// imbalanced fork across the pool (nonzero steal counter), TaskGroup
// keeps the representative-failure contract (lowest-submission-index
// rethrow), nested groups are deadlock-free down to a 1-worker pool,
// CancelToken propagates parent -> child -> grandchild but never up,
// deadlines fire under full-pool contention, ExecStats counters
// round-trip through a known workload, and for_index keeps its loop
// contract (every index exactly once, the inline path stops at the
// throwing index, one representative exception from the lowest slot,
// unclaimed units cancelled).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/cancel.h"
#include "exec/for_index.h"
#include "exec/scheduler.h"
#include "exec/task_group.h"

namespace gact::exec {
namespace {

TEST(Scheduler, StealsUnderImbalance) {
    // A driver task (detached submit, so only a pool worker can run it
    // — a TaskGroup driver could be helped inline by this thread, and
    // then the forks would land in overflow) forks 64 short tasks onto
    // its worker's own deque and spins without draining them: the only
    // way they can run is the other three workers STEALING them.
    Scheduler scheduler(4);
    std::atomic<bool> driver_done{false};
    scheduler.submit([&scheduler, &driver_done] {
        TaskGroup group(scheduler);
        std::atomic<int> short_done{0};
        for (int i = 0; i < 64; ++i) {
            group.run([&short_done] { short_done.fetch_add(1); });
        }
        // Spin, don't wait: this worker must NOT pop its own deque, so
        // every short task completing proves a peer stole it.
        while (short_done.load() < 64) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        group.wait();
        driver_done.store(true);
    });
    while (!driver_done.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const ExecStats stats = scheduler.stats();
    EXPECT_GT(stats.tasks_stolen, 0u);
    EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(TaskGroup, RethrowsTheLowestSubmissionIndexFailure) {
    // Tasks 1, 3, and 5 throw; whatever order they fail in on the
    // clock, wait() must rethrow index 1's exception.
    Scheduler scheduler(4);
    for (int round = 0; round < 8; ++round) {
        TaskGroup group(scheduler);
        for (int i = 0; i < 6; ++i) {
            group.run([i] {
                if (i % 2 == 1) {
                    throw std::runtime_error("task " + std::to_string(i));
                }
            });
        }
        try {
            group.wait();
            FAIL() << "wait() must rethrow";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "task 1");
        }
    }
}

TEST(TaskGroup, NestedGroupsAreDeadlockFreeOnTinyPools) {
    // Every task of an outer group forks an inner group and waits on
    // it. On a 1-worker pool the worker's wait() must HELP (run its own
    // group's queued tasks inline) or the inner tasks would never get a
    // thread. Also checked on 2 workers, where helping and stealing mix.
    for (const unsigned workers : {1u, 2u}) {
        Scheduler scheduler(workers);
        std::atomic<int> inner_ran{0};
        TaskGroup outer(scheduler);
        for (int i = 0; i < 4; ++i) {
            outer.run([&scheduler, &inner_ran] {
                TaskGroup inner(scheduler);
                for (int j = 0; j < 4; ++j) {
                    inner.run([&inner_ran] { inner_ran.fetch_add(1); });
                }
                inner.wait();
            });
        }
        outer.wait();
        EXPECT_EQ(inner_ran.load(), 16) << workers << " workers";
    }
}

TEST(TaskGroup, IsReusableAfterWait) {
    Scheduler scheduler(2);
    TaskGroup group(scheduler);
    std::atomic<int> ran{0};
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 8; ++i) {
            group.run([&ran] { ran.fetch_add(1); });
        }
        group.wait();
    }
    EXPECT_EQ(ran.load(), 24);
}

TEST(CancelToken, PropagatesDownButNeverUp) {
    CancelToken root;
    CancelToken child = CancelToken::child_of(root);
    CancelToken grandchild = CancelToken::child_of(child);

    // Cancelling a child reaches its descendants only.
    child.cancel();
    EXPECT_FALSE(root.cancelled());
    EXPECT_TRUE(child.cancelled());
    EXPECT_TRUE(grandchild.cancelled());

    // Cancelling the root reaches everything below it.
    CancelToken sibling = CancelToken::child_of(root);
    EXPECT_FALSE(sibling.cancelled());
    root.cancel();
    EXPECT_TRUE(root.cancelled());
    EXPECT_TRUE(sibling.cancelled());
}

TEST(CancelToken, DeadlineTightensButNeverLoosens) {
    CancelToken token;
    token.set_deadline_after_ms(60000);
    EXPECT_FALSE(token.cancelled());
    // An earlier deadline wins...
    token.set_deadline(std::chrono::steady_clock::now() -
                       std::chrono::milliseconds(1));
    EXPECT_TRUE(token.cancelled());
    // ...and a later one must not resurrect the token.
    token.set_deadline_after_ms(60000);
    EXPECT_TRUE(token.cancelled());
}

TEST(CancelToken, DeadlineFiresUnderContention) {
    // Saturate a small pool with spin tasks that each poll a deadlined
    // token: every task must observe the expiry and retire — the clock
    // read inside cancelled() works from any worker at any level of
    // contention, and a parent deadline reaches child tokens too.
    Scheduler scheduler(2);
    CancelToken budget;
    budget.set_deadline_after_ms(50);
    std::atomic<int> observed{0};
    TaskGroup group(scheduler);
    for (int i = 0; i < 8; ++i) {
        group.run([&budget, &observed] {
            const CancelToken local = CancelToken::child_of(budget);
            while (!local.cancelled()) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
            observed.fetch_add(1);
        });
    }
    group.wait();
    EXPECT_EQ(observed.load(), 8);
    EXPECT_TRUE(budget.cancelled());
}

TEST(ExecStats, CountersRoundTripThroughAKnownWorkload) {
    Scheduler scheduler(2);
    {
        // External fork/join: this thread is not a pool worker, so all
        // 16 tasks route through the overflow queue.
        TaskGroup group(scheduler);
        std::atomic<int> ran{0};
        for (int i = 0; i < 16; ++i) {
            group.run([&ran] { ran.fetch_add(1); });
        }
        group.wait();
        EXPECT_EQ(ran.load(), 16);
    }
    const ExecStats stats = scheduler.stats();
    EXPECT_EQ(stats.workers, 2u);
    EXPECT_GE(stats.tasks_executed, 16u);
    EXPECT_GT(stats.tasks_overflow + stats.tasks_helped, 0u);
    EXPECT_EQ(stats.queue_depth, 0u);
    // Histogram mass matches the completion count (no task in flight).
    EXPECT_EQ(stats.latency_total(), stats.tasks_executed);
    // Bucketing: [2^b, 2^(b+1)) microseconds, open-ended tail.
    EXPECT_EQ(ExecStats::latency_bucket(0), 0u);
    EXPECT_EQ(ExecStats::latency_bucket(1), 0u);
    EXPECT_EQ(ExecStats::latency_bucket(2), 1u);
    EXPECT_EQ(ExecStats::latency_bucket(1024), 10u);
    EXPECT_EQ(ExecStats::latency_bucket(~std::uint64_t{0}),
              ExecStats::kLatencyBuckets - 1);
}

TEST(ForIndex, BoundsParallelismNotPoolSize) {
    // max_parallelism = 2 on an 8-worker pool: at most 2 indices in
    // flight at any instant, however many workers sit idle.
    Scheduler scheduler(8);
    std::atomic<int> in_flight{0};
    std::atomic<int> peak{0};
    for_index(scheduler, 200, 2, [&](std::size_t) {
        const int now = in_flight.fetch_add(1) + 1;
        int prev = peak.load();
        while (now > prev && !peak.compare_exchange_weak(prev, now)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        in_flight.fetch_sub(1);
    });
    EXPECT_LE(peak.load(), 2);
}

TEST(ForIndex, RunsEveryIndexExactlyOnce) {
    Scheduler scheduler(4);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h.store(0);
    for_index(scheduler, kN, 4, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ForIndex, InlinePathStopsAtTheThrowingIndex) {
    // max_parallelism <= 1 is the inline loop: indices before the throw
    // ran, none after (the deterministic degenerate case of the
    // cancellation contract).
    Scheduler scheduler(4);
    std::vector<int> ran;
    EXPECT_THROW(for_index(scheduler, 10, 1,
                           [&](std::size_t i) {
                               if (i == 3) {
                                   throw std::runtime_error("unit 3");
                               }
                               ran.push_back(static_cast<int>(i));
                           }),
                 std::runtime_error);
    EXPECT_EQ(ran, (std::vector<int>{0, 1, 2}));
}

TEST(ForIndex, ThrowsExactlyOneExceptionAndStopsUnclaimedUnits) {
    // Every unit throws, tagged by its index. Exactly one exception may
    // propagate (concurrent throws must not terminate), it must be one
    // of the thrown tags, and the stop flag must cancel most of the
    // range: each loop task records at most one exception before it
    // stops pulling units, so far fewer than n units can ever start.
    Scheduler scheduler(4);
    constexpr std::size_t kN = 10000;
    std::atomic<std::size_t> started{0};
    std::string tag;
    try {
        for_index(scheduler, kN, 4, [&](std::size_t i) {
            started.fetch_add(1, std::memory_order_relaxed);
            throw std::runtime_error(std::to_string(i));
        });
        FAIL() << "an exception must propagate";
    } catch (const std::runtime_error& e) {
        tag = e.what();
    }
    EXPECT_LT(std::stoul(tag), kN);
    EXPECT_LE(started.load(), 64u);
}

TEST(ForIndex, MultiThrowRethrowsTheLowestSlot) {
    // Block every loop task at a rendezvous until each holds a unit,
    // then release them all into the throw, so every slot records an
    // exception and the join-time scan rethrows the lowest slot's.
    // Slot numbers are not observable from outside, but with all slots
    // filled exactly one exception must propagate every round (never
    // std::terminate, never zero), and it must be a claimed unit's tag.
    constexpr unsigned kSlots = 4;
    Scheduler scheduler(kSlots);
    for (int round = 0; round < 8; ++round) {
        std::atomic<unsigned> arrived{0};
        std::mutex tags_mutex;
        std::set<std::string> claimed_tags;
        std::string tag;
        try {
            for_index(scheduler, kSlots, kSlots, [&](std::size_t i) {
                {
                    const std::lock_guard<std::mutex> lock(tags_mutex);
                    claimed_tags.insert(std::to_string(i));
                }
                arrived.fetch_add(1, std::memory_order_relaxed);
                while (arrived.load(std::memory_order_relaxed) < kSlots) {
                }
                throw std::runtime_error(std::to_string(i));
            });
            FAIL() << "an exception must propagate";
        } catch (const std::runtime_error& e) {
            tag = e.what();
        }
        EXPECT_EQ(claimed_tags.size(), kSlots);
        EXPECT_EQ(claimed_tags.count(tag), 1u)
            << "propagated '" << tag << "' was never thrown";
    }
}

TEST(Scheduler, DetachedSubmitRunsAndSwallowsThrows) {
    Scheduler scheduler(2);
    std::atomic<bool> ran{false};
    scheduler.submit([] { throw std::runtime_error("swallowed"); });
    scheduler.submit([&ran] { ran.store(true); });
    while (!ran.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GE(scheduler.stats().tasks_executed, 2u);
}

}  // namespace
}  // namespace gact::exec
