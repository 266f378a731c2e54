// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call into a library layer, made from the
// benchmark's own code: it has a name, a start, an end, the span it was
// opened under, and the id of the operation it belongs to (every span of
// one operation shares it). Spans are kept in memory and written out as
// a Chrome trace-event file (chrome://tracing, Perfetto) when the run
// ends. A disabled tracer records nothing and costs one branch per span.
//
// Per-layer times are SELF times: a span's duration minus the part of
// its interval covered by its child spans. Spans are opened and closed
// on one thread in strict nesting, so children never overlap and that
// part is the sum of the children's durations.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace gactbench {

struct Span {
    std::string name;
    std::uint64_t op = 0;  ///< operation id shared by all its spans
    int parent = -1;       ///< index of the enclosing span, -1 for a root
    double start_us = 0.0; ///< since the tracer was created
    double end_us = 0.0;
};

class Tracer {
public:
    /// RAII handle of an open span; closes it on destruction (also when
    /// the traced call throws). Inert when the tracer is disabled.
    class Scope {
    public:
        Scope() = default;
        Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
        Scope(Scope&& o) noexcept
            : tracer_(std::exchange(o.tracer_, nullptr)), index_(o.index_) {}
        Scope& operator=(Scope&&) = delete;
        ~Scope() { close(); }
        int index() const { return index_; }

    private:
        void close();

        Tracer* tracer_ = nullptr;
        int index_ = -1;
    };

    explicit Tracer(bool enabled);

    /// Open a span under the innermost open one (a root starts a new
    /// operation id).
    Scope open(std::string name);

    /// Run `fn` inside a span named `name` and return its result.
    template <typename Fn>
    decltype(auto) span(std::string name, Fn&& fn) {
        Scope scope = open(std::move(name));
        return fn();
    }

    double duration_us(int index) const {
        return spans_[index].end_us - spans_[index].start_us;
    }
    /// Self time of every span, in the order the spans were opened.
    std::vector<double> self_us() const;
    /// Self time summed per span name, in milliseconds.
    std::map<std::string, double> self_ms_by_name() const;
    /// Largest root self time over root duration across operations whose
    /// root matches `root_name` — the share of an operation's wall time
    /// no layer span accounts for.
    double max_unattributed_ratio(const std::string& root_name) const;

    /// Write every span as a Chrome trace-event JSON file; false on I/O
    /// failure.
    bool write_chrome_trace(const std::string& path) const;

private:
    void close(int index);
    double now_us() const;

    bool enabled_;
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    int current_ = -1;
    std::uint64_t next_op_ = 0;
};

}  // namespace gactbench
