// An order-dependent digest of K(T), for the K(T) goldens.
//
// The digest walks stable_complex().simplices() in iteration order and
// mixes in, per simplex, its global vertex ids, each vertex's color and
// exact position, and the simplex's stable_since stage. Iteration order
// follows from std::hash<Simplex> and the insertion sequence, and later
// consumers (the CSP's variable and constraint order) observe it, so a
// digest change means K(T) — its contents, its ids or its order — moved.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/terminating_subdivision.h"
#include "engine/scenario.h"
#include "util/require.h"

namespace gact::test_support {

/// FNV-1a over 64-bit words.
class Fnv64 {
public:
    void add(std::uint64_t word) {
        for (int i = 0; i < 8; ++i) {
            state_ ^= (word >> (8 * i)) & 0xffu;
            state_ *= 0x100000001b3ULL;
        }
    }
    std::uint64_t value() const noexcept { return state_; }

private:
    std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

inline std::string kt_digest_hex(const core::TerminatingSubdivision& tsub) {
    const topo::ChromaticComplex& kt = tsub.stable_complex();
    Fnv64 h;
    h.add(kt.complex().size());
    for (const topo::Simplex& s : kt.complex().simplices()) {
        h.add(s.size());
        for (topo::VertexId v : s.vertices()) {
            h.add(v);
            h.add(kt.color(v));
            const topo::BaryPoint& p = tsub.stable_position(v);
            h.add(p.coords().size());
            for (const auto& [base, weight] : p.coords()) {
                h.add(base);
                h.add(static_cast<std::uint64_t>(weight.num()));
                h.add(static_cast<std::uint64_t>(weight.den()));
            }
        }
        h.add(tsub.stable_since(s));
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h.value()));
    return buf;
}

/// T of a general-route scenario, advanced as the engine advances it
/// (engine::build_general_witness), without the approximation search.
inline core::TerminatingSubdivision scenario_tsub(
    const engine::Scenario& scenario) {
    require(scenario.affine.has_value() &&
                scenario.options.stable_rule != nullptr,
            "scenario_tsub: not a general-route scenario");
    core::TerminatingSubdivision tsub(scenario.affine->task.inputs);
    const engine::StableRule& rule = *scenario.options.stable_rule;
    for (std::size_t i = 0; i < scenario.options.subdivision_stages; ++i) {
        tsub.advance(
            [&rule](const core::SubdividedComplex& cx,
                    const topo::Simplex& s) { return rule.stable(cx, s); },
            scenario.options.shard_threads);
    }
    return tsub;
}

}  // namespace gact::test_support
