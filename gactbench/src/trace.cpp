#include "trace.h"

#include <algorithm>
#include <fstream>

namespace gactbench {

namespace {

std::string json_escape(const std::string& s) {
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out;
}

}  // namespace

void Tracer::Scope::close() {
    if (tracer_ != nullptr) tracer_->close(index_);
    tracer_ = nullptr;
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {
    // Growing the span vector mid-operation would be charged to whichever
    // span is open; a fuzz chunk records ~2 spans per schedule.
    if (enabled_) spans_.reserve(1 << 15);
}

double Tracer::now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

Tracer::Scope Tracer::open(std::string name) {
    if (!enabled_) return {};
    Span span;
    span.name = std::move(name);
    span.parent = current_;
    span.op = current_ < 0 ? ++next_op_ : spans_[current_].op;
    span.start_us = now_us();
    spans_.push_back(std::move(span));
    current_ = static_cast<int>(spans_.size()) - 1;
    return Scope(this, current_);
}

void Tracer::close(int index) {
    spans_[index].end_us = now_us();
    current_ = spans_[index].parent;
}

std::vector<double> Tracer::self_us() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        self[i] = duration_us(static_cast<int>(i));
    }
    for (const Span& s : spans_) {
        if (s.parent >= 0) self[s.parent] -= s.end_us - s.start_us;
    }
    return self;
}

std::map<std::string, double> Tracer::self_ms_by_name() const {
    const std::vector<double> self = self_us();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        out[spans_[i].name] += self[i] / 1000.0;
    }
    return out;
}

double Tracer::max_unattributed_ratio(const std::string& root_name) const {
    const std::vector<double> self = self_us();
    double worst = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (s.parent >= 0 || s.name != root_name) continue;
        const double total = duration_us(static_cast<int>(i));
        if (total > 0.0) worst = std::max(worst, self[i] / total);
    }
    return worst;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << (i == 0 ? "\n" : ",\n") << "{\"name\":\""
            << json_escape(s.name) << "\",\"cat\":\"gactbench\",\"ph\":\"X\""
            << ",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
            << ",\"dur\":" << (s.end_us - s.start_us) << ",\"args\":{\"op\":"
            << s.op << ",\"span\":" << i << ",\"parent\":" << s.parent
            << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

}  // namespace gactbench
