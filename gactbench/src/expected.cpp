// Loading and checking the expected-answers file (gactbench/expected.txt).
#include <algorithm>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "engine/report_json.h"

namespace gactbench {

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void Outcome::record(bool ok, const std::string& why) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
}

void Outcome::metric(const std::string& name, double value,
                     const std::string& unit) {
    metrics.push_back({name, value, unit});
}

std::string Answer::str() const {
    return verdict + " / " + std::to_string(backtracks) + " backtracks / " +
           digest;
}

Answer answer_of(const gact::engine::SolveReport& report) {
    Answer a;
    a.verdict = gact::engine::to_string(report.verdict);
    a.backtracks = report.total_backtracks;
    if (report.witness.has_value()) {
        a.digest = gact::engine::witness_digest_hex(*report.witness);
    }
    return a;
}

bool Expected::load(const std::string& path, std::string* error) {
    std::ifstream in(path);
    if (!in) {
        *error = "cannot open " + path;
        return false;
    }
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos) line.resize(hash);
        std::istringstream fields(line);
        std::string kind;
        if (!(fields >> kind)) continue;
        const std::string where = path + ":" + std::to_string(lineno);
        if (kind == "cell" || kind == "grid") {
            std::string name;
            Answer a;
            if (!(fields >> name >> a.verdict >> a.backtracks >> a.digest)) {
                *error = where + ": expected '" + kind +
                         " NAME VERDICT BACKTRACKS DIGEST'";
                return false;
            }
            if (!cells.emplace(name, a).second) {
                *error = where + ": duplicate cell " + name;
                return false;
            }
            if (kind == "grid") grid.push_back(name);
        } else if (kind == "fuzz") {
            std::string name, digest;
            FuzzPin pin;
            if (!(fields >> name >> pin.seed >> pin.iterations >> digest)) {
                *error = where +
                         ": expected 'fuzz NAME SEED ITERATIONS DIGEST'";
                return false;
            }
            pin.digest = std::stoull(digest, nullptr, 16);
            fuzz[name] = pin;
        } else {
            *error = where + ": unknown record '" + kind + "'";
            return false;
        }
    }
    return true;
}

std::string Expected::mismatch(const std::string& cell,
                               const Answer& got) const {
    const auto it = cells.find(cell);
    if (it == cells.end()) return cell + ": no expected answer";
    if (it->second == got) return "";
    return cell + ": expected " + it->second.str() + ", got " + got.str();
}

}  // namespace gactbench
