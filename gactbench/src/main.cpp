// gactbench: the gact benchmark program (see gactbench/README.md).
//
//   gactbench --workload NAME --seed N --seconds S --trace 0|1
//             [--expected FILE] [--commit ID] [--results DIR]
//
// Runs one workload, prints the host, the seed and every metric by name
// with its unit, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The same record, with the host and the seed, is written to
// DIR/<workload>-seed<N>-trace<T>.json; a traced run also writes its
// spans to DIR/<workload>-seed<N>.trace.json (Chrome trace events).
// Exit code 0 when every operation matched its expected answer, 1 when
// any failed, 2 on a usage error.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.h"

#ifndef GACTBENCH_BUILD_TYPE
#define GACTBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace gactbench;

int usage(const std::string& why) {
    std::cerr << "gactbench: " << why << "\n"
              << "usage: gactbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--expected FILE] [--commit ID] "
                 "[--results DIR]\nworkloads:";
    for (const std::string& w : workload_names()) std::cerr << " " << w;
    std::cerr << "\n";
    return 2;
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + "\"";
}

/// A number with all its digits.
std::string number(double v) {
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

std::string metrics_json(const Outcome& out) {
    std::string s = "{";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric& m = out.metrics[i];
        s += (i == 0 ? "" : ", ") + json_string(m.name) + ": {\"value\": " +
             number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
    }
    return s + "}";
}

}  // namespace

int main(int argc, char** argv) {
    Options o;
    o.nproc = std::max(1u, std::thread::hardware_concurrency());
    std::string commit = "unknown";
    std::string results_dir = ".bench_results";
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) return usage("missing value for " + arg);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                o.workload = value;
            } else if (arg == "--seed") {
                o.seed = std::stoull(value);
                have_seed = true;
            } else if (arg == "--seconds") {
                o.seconds = std::stod(value);
                have_seconds = o.seconds > 0;
            } else if (arg == "--trace") {
                if (value != "0" && value != "1") {
                    return usage("--trace takes 0 or 1");
                }
                o.trace = value == "1";
                have_trace = true;
            } else if (arg == "--expected") {
                o.expected_path = value;
            } else if (arg == "--commit") {
                commit = value;
            } else if (arg == "--results") {
                results_dir = value;
            } else {
                return usage("unknown argument " + arg);
            }
        } catch (const std::exception&) {
            return usage("bad value for " + arg + ": " + value);
        }
    }
    if (o.workload.empty() || !have_seed || !have_seconds || !have_trace) {
        return usage("--workload, --seed, --seconds and --trace are required");
    }

    Expected expected;
    std::string error;
    if (!expected.load(o.expected_path, &error)) {
        std::cerr << "gactbench: " << error << "\n";
        return 2;
    }

    const std::string host =
        "{\"nproc\": " + std::to_string(o.nproc) +
        ", \"compiler\": " + json_string(std::string("gcc ") + __VERSION__) +
        ", \"build_type\": " + json_string(GACTBENCH_BUILD_TYPE) +
        ", \"commit\": " + json_string(commit) + "}";
    std::cout << "gactbench workload=" << o.workload << " seed=" << o.seed
              << " seconds=" << o.seconds << " trace=" << o.trace
              << "\nhost " << host << std::endl;

    Outcome out;
    Tracer tracer(o.trace);
    try {
        if (!run_workload(o, expected, out, tracer)) {
            return usage("unknown workload " + o.workload);
        }
    } catch (const std::exception& e) {
        out.record(false, std::string("exception: ") + e.what());
    }

    for (const Metric& m : out.metrics) {
        std::cout << "  " << m.name << " = " << number(m.value) << " "
                  << m.unit << "\n";
    }
    for (const std::string& note : out.notes) std::cout << "  " << note << "\n";
    std::cout << "  fail_ratio = "
              << number(out.attempted == 0
                            ? 1.0
                            : static_cast<double>(out.failed) / out.attempted)
              << " (" << out.failed << "/" << out.attempted << ")\n";
    for (const std::string& f : out.failures) {
        std::cout << "  FAILED: " << f << "\n";
    }

    const bool correct = out.failed == 0 && out.attempted > 0;
    const std::string result =
        "{\"correct\": " + std::string(correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(out.attempted) +
        ", \"failed\": " + std::to_string(out.failed) +
        ", \"metrics\": " + metrics_json(out) + "}";

    std::error_code ec;
    std::filesystem::create_directories(results_dir, ec);
    const std::string stem = results_dir + "/" + o.workload + "-seed" +
                             std::to_string(o.seed);
    std::ofstream record(stem + "-trace" + std::to_string(o.trace) + ".json");
    record << "{\"workload\": " << json_string(o.workload)
           << ", \"seed\": " << o.seed << ", \"seconds\": " << number(o.seconds)
           << ", \"trace\": " << o.trace << ", \"host\": " << host
           << ", \"result\": " << result << "}\n";
    if (o.trace && !tracer.write_chrome_trace(stem + ".trace.json")) {
        std::cerr << "gactbench: cannot write " << stem << ".trace.json\n";
    }

    std::cout << result << std::endl;
    return correct ? 0 : 1;
}
