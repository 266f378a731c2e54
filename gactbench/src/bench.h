// Shared types of the gact benchmark (see gactbench/README.md).
//
// A run executes one workload against the library's public API, checks
// every operation against the hand-written expected answers
// (gactbench/expected.txt), and reports named metrics: the end-to-end
// metrics of BENCHMARK.json on an untraced run, the per-layer metrics on
// a traced one.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/chromatic_csp.h"
#include "engine/engine.h"
#include "trace.h"

namespace gactbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values);

/// Command-line options of one run.
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    unsigned nproc = 1;
    std::string expected_path = "gactbench/expected.txt";
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Everything a run reports: operation tallies, metrics, and the first
/// failures in full.
struct Outcome {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures;  ///< first few, for the log
    std::vector<Metric> metrics;
    /// Extra human-readable lines printed before the result.
    std::vector<std::string> notes;

    /// Count one checked operation; `why` describes a failure.
    void record(bool ok, const std::string& why);
    void metric(const std::string& name, double value,
                const std::string& unit);
};

/// The checkable answer of one solve: verdict, CSP backtracks, and the
/// witness digest ("-" when there is no witness).
struct Answer {
    std::string verdict;
    std::size_t backtracks = 0;
    std::string digest = "-";

    bool operator==(const Answer&) const = default;
    std::string str() const;
};

Answer answer_of(const gact::engine::SolveReport& report);

/// A pinned fuzz campaign: the result digest of `iterations` schedules
/// drawn from FuzzConfig::seed = `seed`.
struct FuzzPin {
    std::uint64_t seed = 0;
    std::size_t iterations = 0;
    std::uint64_t digest = 0;
};

/// The expected-answers file.
struct Expected {
    std::map<std::string, Answer> cells;
    std::map<std::string, FuzzPin> fuzz;
    /// Grid cell names in file order (the `grid` workload's cells).
    std::vector<std::string> grid;

    /// Parse `path`; on error returns false and sets `error`.
    bool load(const std::string& path, std::string* error);
    /// Compare `got` for `cell` against the file; "" when it matches,
    /// else a description of the mismatch.
    std::string mismatch(const std::string& cell, const Answer& got) const;
};

/// What the traced decomposition of one Engine::solve produced.
struct Decomposed {
    Answer answer;
    gact::core::SearchCounters counters;
    int root = -1;  ///< index of the operation's root span
    std::size_t chr_facets = 0;     ///< facets of every Chr^k built
    std::size_t tsub_facets = 0;    ///< facets of T's last stage
    std::size_t stable_facets = 0;  ///< facets of K(T)
    std::size_t runs = 0;           ///< compact runs of the model
    std::size_t runs_checked = 0;   ///< runs admissibility checked
};

/// Re-run Engine::solve of `scenario` as its sequence of layer calls,
/// each inside a span, under one root span named "engine.solve". After
/// the operation, every CSP domain gets a standalone AdjacencyIndex
/// build in its own root span ("topology.adjacency_index").
Decomposed decompose_solve(const gact::engine::Scenario& scenario,
                           Tracer& tracer);

/// What the traced decomposition of one runtime::fuzz call produced.
struct DecomposedFuzz {
    std::size_t executed = 0;
    std::size_t violations = 0;
    std::uint64_t digest = 0;
    std::size_t rounds = 0;  ///< summed over executions
    int root = -1;
};

/// Re-run runtime::fuzz (threads = 1) as its layer calls — building the
/// decision rule, ScheduleGenerator::next and execute per schedule —
/// under one root span named `root_name`.
DecomposedFuzz decompose_fuzz(const gact::engine::Scenario& scenario,
                              const gact::engine::SolveReport& report,
                              std::uint64_t seed, std::size_t iterations,
                              const std::string& root_name, Tracer& tracer);

/// Run the named workload; false when the name is unknown.
bool run_workload(const Options& options, const Expected& expected,
                  Outcome& outcome, Tracer& tracer);

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

}  // namespace gactbench
