// The paper's headline application (Proposition 9.2): L_t is solvable in
// the t-resilient model, by a purely topological construction.
//
// The pipeline follows Section 9.2 exactly:
//  1. regions: R~_m is the union of the facets of Chr^{m+2} s having no
//     vertex on an (n-t-1)-face; R_0 = |L_t| and R_m peels off one more
//     ring toward the forbidden skeleton;
//  2. terminating subdivision: C_0 = s, C_1 = Chr s, C_2 = Chr^2 s, and
//     from stage 2 on every simplex whose vertices all avoid the
//     forbidden skeleton is terminated; K(T) accumulates the rings;
//  3. the continuous map f: identity on R_0, radial projection away from
//     the skeleton onto the boundary of R_0 elsewhere (implemented
//     exactly, in rational arithmetic, for n = 2, t = 1 — the paper's
//     illustrated case);
//  4. the chromatic simplicial approximation delta : K(T) -> L_t of
//     Proposition 9.1, found by the CSP solver with candidates ordered by
//     distance to f (Theorem 8.4 guarantees existence);
//  5. admissibility of T for Res_t, checked against enumerated compact
//     run families (landing condition of Theorem 6.1).
// Steps 2-4 run as engine::build_general_witness (engine/general_route.h)
// under the LtStableRule; this header holds the L_t-specific pieces it
// and the engine use. Protocol extraction and Definition 4.1
// verification live in src/protocol/gact_protocol.h.
#pragma once

#include "core/chromatic_csp.h"
#include "core/eval_cache.h"
#include "core/terminating_subdivision.h"
#include "iis/projection.h"
#include "iis/run_enumeration.h"
#include "tasks/standard_tasks.h"

namespace gact::core {

/// How lt_approximation_problem orders each vertex's candidates.
enum class LtGuidance {
    kNone,     ///< no candidate ordering (solver default order)
    kNearest,  ///< nearest L vertex to the domain vertex itself
    kRadial,   ///< nearest to the radial projection (n = 2, t = 1 only)
};

/// The Proposition 9.1 approximation CSP for a materialized terminating
/// subdivision: domain K(T), codomain the task's outputs, carrier
/// constraints from Delta, optional identity fixing on the stable
/// vertices lying in L, and optional geometric candidate guidance. The
/// returned problem's closures reference `task` and `tsub`, which must
/// outlive it — and `lru`, when non-null: carrier lookups
/// (tsub.stable_carrier + the Delta walk) are then memoized through it
/// (core/eval_cache.h).
///
/// When `nogood_pool` is non-null, the problem carries the cross-solve
/// learning hooks (core/nogood_store.h): the scope names the task plus
/// every problem-shaping parameter (stages, identity fixing, guidance,
/// and `nogood_scope_tag` — the caller's name for whatever else shaped
/// `tsub`, e.g. the StableRule that drove it), so re-solves of the same
/// construction — including scenarios that differ only in their
/// *model*, which never enters the CSP — share learned conflicts;
/// literal variables travel as the pool's stable (position, color)
/// keys, which K(T)'s global registry makes exact. Callers who
/// materialized `tsub` by any means other than task + stages MUST
/// encode that in the tag: two different stabilization rules over the
/// same task pose different CSPs and must not share a scope.
ChromaticMapProblem lt_approximation_problem(
    const tasks::AffineTask& task, const TerminatingSubdivision& tsub,
    bool fix_identity, LtGuidance guidance, AllowedComplexLru* lru = nullptr,
    SharedNogoodPool* nogood_pool = nullptr,
    const std::string& nogood_scope_tag = "");

/// The stabilization rule of the pipeline: from depth 2 on, a simplex is
/// stable when every vertex carrier has dimension >= n - t.
bool lt_stable_rule(int n, int t, const SubdividedComplex& cx,
                    const Simplex& s);

/// The ring index of a stable facet: 0 for R_0 (stable at depth 2), m for
/// the facets first stabilized at depth m+2.
std::size_t ring_of_stable_facet(const TerminatingSubdivision& tsub,
                                 const Simplex& global_facet);

/// Exact radial projection f of Section 9.2 for n = 2, t = 1: identity on
/// |L_1|, and radial projection away from the nearest corner onto the
/// boundary of |L_1| outside. Requires x in |s| and not a corner.
BaryPoint radial_projection_l1(const tasks::AffineTask& lt,
                               const BaryPoint& x);

/// Whether `x` lies in the realization of the task's complex L.
bool point_in_l(const tasks::AffineTask& lt, const BaryPoint& x);

/// The boundary edges of |L| (faces of exactly one facet of L), used by
/// the radial projection and by the figure bench.
std::vector<Simplex> l_boundary_edges(const tasks::AffineTask& lt);

/// Admissibility of T for a set of runs (Theorem 6.1 condition (a)):
/// every run's simplex chain must enter the realization of some stable
/// facet by round `max_round`.
struct AdmissibilityReport {
    bool admissible = false;
    std::size_t runs_checked = 0;
    std::size_t max_landing_round = 0;
    std::vector<iis::Run> failures;
};

AdmissibilityReport check_admissibility(const TerminatingSubdivision& tsub,
                                        const std::vector<iis::Run>& runs,
                                        std::size_t max_round);

/// The landing data of one run: the first round k at which the run
/// simplex sigma_k lies in a stable simplex of the participants' face,
/// that simplex (global ids), and the round from which outputs may fire —
/// no earlier than the simplex's stabilization stage (see
/// TerminatingSubdivision::stable_since).
struct Landing {
    std::size_t round = 0;
    Simplex stable_facet;
    std::size_t output_round = 0;
};

/// Landing of a single run, if it happens by max_round.
std::optional<Landing> find_landing(const TerminatingSubdivision& tsub,
                                    const iis::Run& run,
                                    std::size_t max_round);

}  // namespace gact::core
