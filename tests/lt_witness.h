// The Section 9.2 L_t construction as the tests use it: the affine task
// L_t plus the engine's general-route witness
// (engine::build_general_witness under LtStableRule), unpacked into the
// terminating subdivision T and the approximation delta : K(T) -> L_t.
#pragma once

#include <cstddef>

#include "engine/general_route.h"
#include "util/require.h"

namespace gact::test_support {

struct LtWitness {
    tasks::AffineTask task;        // the affine task L_t
    core::TerminatingSubdivision tsub;  // T, materialized
    core::SimplicialMap delta;     // K(T) -> L_t
    std::size_t backtracks = 0;    // approximation-CSP backtracks
};

/// L_t on n+1 processes over 2 + extra_stages subdivision stages, with
/// identity fixing on R_0, radial candidate guidance where it exists
/// (n = 2, t = 1) and nearest-vertex guidance elsewhere, and the shipped
/// solver. Throws precondition_error when nothing stabilizes or no
/// approximation exists.
inline LtWitness build_lt_witness(int n, int t, std::size_t extra_stages) {
    LtWitness out{tasks::t_resilience_task(n, t), {}, {}, 0};
    const bool have_radial = (n == 2 && t == 1);
    engine::GeneralWitness witness = engine::build_general_witness(
        out.task, engine::LtStableRule(n, t), 2 + extra_stages,
        /*fix_identity=*/true,
        have_radial ? core::LtGuidance::kRadial : core::LtGuidance::kNearest,
        core::SolverConfig::fast());
    require(!witness.tsub.stable_complex().is_empty(),
            "build_lt_witness: no stable simplices; raise extra_stages");
    require(witness.delta.has_value(),
            "build_lt_witness: no chromatic approximation found");
    out.tsub = std::move(witness.tsub);
    out.delta = std::move(*witness.delta);
    out.backtracks = witness.counters.backtracks;
    return out;
}

}  // namespace gact::test_support
