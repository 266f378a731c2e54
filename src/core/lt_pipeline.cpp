#include "core/lt_pipeline.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>

#include "util/require.h"

namespace gact::core {

bool lt_stable_rule(int n, int t, const SubdividedComplex& cx,
                    const Simplex& s) {
    if (cx.depth() < 2) return false;
    for (VertexId v : s.vertices()) {
        if (cx.carrier(v).dimension() < n - t) return false;
    }
    return true;
}

std::size_t ring_of_stable_facet(const TerminatingSubdivision& tsub,
                                 const Simplex& global_facet) {
    // A facet belongs to ring m when it first appears in Sigma_{m+2}; we
    // recover this from the stage complexes by locating its vertices.
    for (std::size_t k = 2; k < tsub.stages(); ++k) {
        const SubdividedComplex& cx = tsub.complex_at(k);
        bool all_found = true;
        std::vector<VertexId> stage_verts;
        for (VertexId v : global_facet.vertices()) {
            const auto sv = cx.find_vertex(
                tsub.stable_position(v), tsub.stable_complex().color(v));
            if (!sv.has_value()) {
                all_found = false;
                break;
            }
            stage_verts.push_back(*sv);
        }
        if (all_found &&
            tsub.stable_at(k).contains(Simplex(stage_verts))) {
            return k - 2;
        }
    }
    throw precondition_error("ring_of_stable_facet: facet is not stable");
}

bool point_in_l(const tasks::AffineTask& lt, const BaryPoint& x) {
    for (const Simplex& f : lt.l_complex.facets()) {
        if (topo::point_in_simplex(x, lt.subdivision.positions_of(f))) {
            return true;
        }
    }
    return false;
}

std::vector<Simplex> l_boundary_edges(const tasks::AffineTask& lt) {
    // Boundary edges: faces of exactly one facet of L.
    std::map<Simplex, int> facet_count;
    for (const Simplex& f : lt.l_complex.facets()) {
        for (const Simplex& e : f.boundary_faces()) ++facet_count[e];
    }
    std::vector<Simplex> out;
    for (const auto& [e, count] : facet_count) {
        if (count == 1) out.push_back(e);
    }
    return out;
}

namespace {

/// Coordinate difference b - a over the base vertex ids 0..n.
std::vector<Rational> coord_diff(const BaryPoint& b, const BaryPoint& a,
                                 int n) {
    std::vector<Rational> out;
    out.reserve(n + 1);
    for (int i = 0; i <= n; ++i) {
        out.push_back(b.coord(static_cast<VertexId>(i)) -
                      a.coord(static_cast<VertexId>(i)));
    }
    return out;
}

/// Intersection of the ray c + s*(x - c) with the segment [a, b]:
/// solutions (s, u) of c + s d = a + u e with u in [0,1]; collinear cases
/// yield the endpoints. Returns candidate s values with their points.
struct RayHit {
    Rational s;
    BaryPoint point;
};

void ray_segment_hits(const BaryPoint& c, const BaryPoint& x,
                      const BaryPoint& a, const BaryPoint& b, int n,
                      std::vector<RayHit>& out) {
    const std::vector<Rational> d = coord_diff(x, c, n);
    const std::vector<Rational> e = coord_diff(b, a, n);
    const std::vector<Rational> rhs = coord_diff(a, c, n);

    // Find a non-singular 2x2 subsystem s*d - u*e = rhs.
    for (int i = 0; i <= n; ++i) {
        for (int j = i + 1; j <= n; ++j) {
            const Rational det = d[i] * (-e[j]) - (-e[i]) * d[j];
            if (det.is_zero()) continue;
            const Rational s =
                (rhs[i] * (-e[j]) - (-e[i]) * rhs[j]) / det;
            const Rational u = (d[i] * rhs[j] - rhs[i] * d[j]) / det;
            // Verify the remaining coordinates.
            for (int m = 0; m <= n; ++m) {
                if (!(s * d[m] - u * e[m] == rhs[m])) return;  // no solution
            }
            if (u < Rational(0) || u > Rational(1)) return;
            if (s <= Rational(0)) return;
            std::vector<BaryPoint> pts = {a, b};
            std::vector<Rational> weights = {Rational(1) - u, u};
            out.push_back(RayHit{s, BaryPoint::combination(pts, weights)});
            return;
        }
    }
    // All 2x2 systems singular: d parallel to e (or degenerate). The
    // collinear case contributes the endpoints if they lie on the ray.
    for (const BaryPoint& endpoint : {a, b}) {
        const std::vector<Rational> g = coord_diff(endpoint, c, n);
        // endpoint = c + s*d needs g = s*d componentwise.
        Rational s;
        bool found_s = false;
        bool ok = true;
        for (int m = 0; m <= n; ++m) {
            if (d[m].is_zero()) {
                if (!g[m].is_zero()) ok = false;
            } else if (!found_s) {
                s = g[m] / d[m];
                found_s = true;
            } else if (!(g[m] == s * d[m])) {
                ok = false;
            }
        }
        if (ok && found_s && s > Rational(0)) {
            out.push_back(RayHit{s, endpoint});
        }
    }
}

// Shared-denominator headroom for the integer candidate-distance fast
// path below: an l1 distance accumulates at most 2(n + 1) terms of
// magnitude <= den, so capping den well inside int64 keeps every sum
// exact. Returns lcm(a, b), or 0 when it would exceed the cap.
constexpr std::int64_t kGuideDenCap = std::int64_t{1} << 40;

std::int64_t lcm_capped(std::int64_t a, std::int64_t b) {
    const std::int64_t g = std::gcd(a, b);
    if (a / g > kGuideDenCap / b) return 0;
    return (a / g) * b;
}

}  // namespace

BaryPoint radial_projection_l1(const tasks::AffineTask& lt,
                               const BaryPoint& x) {
    const int n = lt.subdivision.base().dimension();
    require(n == 2, "radial_projection_l1: implemented for n = 2");
    if (point_in_l(lt, x)) return x;

    // Boundary edges of |L_1| as geometric segments.
    std::vector<std::pair<BaryPoint, BaryPoint>> segments;
    for (const Simplex& e : l_boundary_edges(lt)) {
        const auto pos = lt.subdivision.positions_of(e);
        segments.emplace_back(pos[0], pos[1]);
    }

    // Identify the corner whose radial ray reaches x before R_0: the one
    // for which every boundary hit is at parameter s >= 1.
    std::optional<BaryPoint> best;
    for (int corner = 0; corner <= n; ++corner) {
        const BaryPoint c = BaryPoint::vertex(static_cast<VertexId>(corner));
        if (x == c) continue;
        std::vector<RayHit> hits;
        for (const auto& [a, b] : segments) {
            ray_segment_hits(c, x, a, b, n, hits);
        }
        if (hits.empty()) continue;
        const auto min_hit = std::min_element(
            hits.begin(), hits.end(),
            [](const RayHit& p, const RayHit& q) { return p.s < q.s; });
        if (min_hit->s >= Rational(1)) {
            require(!best.has_value(),
                    "radial_projection_l1: ambiguous corner for " +
                        x.to_string());
            best = min_hit->point;
        }
    }
    require(best.has_value(),
            "radial_projection_l1: no corner projects " + x.to_string());
    return *best;
}

ChromaticMapProblem lt_approximation_problem(const tasks::AffineTask& task,
                                             const TerminatingSubdivision& tsub,
                                             bool fix_identity,
                                             LtGuidance guidance,
                                             AllowedComplexLru* lru,
                                             SharedNogoodPool* nogood_pool,
                                             const std::string& nogood_scope_tag) {
    const ChromaticComplex& k_complex = tsub.stable_complex();
    ChromaticMapProblem problem;
    problem.domain = &k_complex;
    problem.codomain = &task.task.outputs;
    if (nogood_pool != nullptr) {
        // Cross-solve learning scope: every parameter that shapes the
        // CSP is in the name — including the caller's tag for the rule
        // that drove the subdivision — so two solves share a scope
        // exactly when they pose the same problem (the model is
        // deliberately absent — it only enters at the admissibility
        // stage, after the CSP).
        problem.nogood_pool = nogood_pool;
        problem.nogood_scope =
            task.task.name + "|gen|rule=" + nogood_scope_tag +
            "|stages=" + std::to_string(tsub.stages()) +
            "|fix=" + (fix_identity ? "1" : "0") +
            "|guide=" + std::to_string(static_cast<int>(guidance));
        problem.pool_var_key = [&tsub, nogood_pool](VertexId v) {
            return nogood_pool->intern(
                tsub.stable_position(v), tsub.stable_complex().color(v));
        };
    }
    const tasks::Task& inner = task.task;
    problem.allowed = [&inner, &tsub, lru](const Simplex& sigma)
        -> const SimplicialComplex& {
        const Simplex carrier = tsub.stable_carrier(sigma);
        if (lru == nullptr) return inner.delta.at(carrier);
        return lru->get(carrier,
                        [&]() { return &inner.delta.at(carrier); });
    };

    if (fix_identity) {
        // Identity on the stable vertices that are vertices of L itself
        // (the R_0 part of K(T)).
        for (VertexId v : k_complex.vertex_ids()) {
            const auto lv = task.subdivision.find_vertex(
                tsub.stable_position(v), k_complex.color(v));
            if (lv.has_value() && task.l_complex.contains_vertex(*lv)) {
                problem.fixed[v] = *lv;
            }
        }
    }

    if (guidance != LtGuidance::kNone) {
        // Candidate order: L vertices of the right color, nearest (to the
        // radial projection of the vertex when requested, else to the
        // vertex itself) first. The per-color candidate lists (with their
        // positions) are precomputed here: vertex_ids() walks the whole
        // output complex, and the closure runs once per domain vertex —
        // tens of thousands of times on the heavy registry scenarios.
        // The distance computation additionally rescales every candidate
        // coordinate to one shared denominator, so each closure call
        // measures distances in pure integer arithmetic. At a common
        // denominator the scaled distances order exactly like the
        // rationals they stand for (ties broken by vertex id either way);
        // if an lcm would overflow the headroom, the closure falls back
        // to exact Rational distances — same order, just slower.
        const bool radial = guidance == LtGuidance::kRadial;
        struct Guide {
            std::map<topo::Color,
                     std::vector<std::pair<BaryPoint, VertexId>>> exact;
            // Entry-for-entry with `exact`: the same coordinates as
            // numerators over the shared denominator `den`.
            std::map<topo::Color,
                     std::vector<std::vector<
                         std::pair<VertexId, std::int64_t>>>> scaled;
            std::int64_t den = 1;
            bool use_scaled = true;
        };
        auto guide = std::make_shared<Guide>();
        for (VertexId w : task.task.outputs.vertex_ids()) {
            guide->exact[task.task.outputs.color(w)].emplace_back(
                task.subdivision.position(w), w);
        }
        for (const auto& [color, cands] : guide->exact) {
            for (const auto& [pos, w] : cands) {
                for (const auto& [bv, r] : pos.coords()) {
                    guide->den = lcm_capped(guide->den, r.den());
                    if (guide->den == 0) break;
                }
                if (guide->den == 0) break;
            }
            if (guide->den == 0) break;
        }
        if (guide->den == 0) {
            guide->use_scaled = false;
            guide->den = 1;
        } else {
            for (const auto& [color, cands] : guide->exact) {
                auto& lists = guide->scaled[color];
                lists.reserve(cands.size());
                for (const auto& [pos, w] : cands) {
                    std::vector<std::pair<VertexId, std::int64_t>> sc;
                    sc.reserve(pos.coords().size());
                    for (const auto& [bv, r] : pos.coords()) {
                        sc.emplace_back(bv,
                                        r.num() * (guide->den / r.den()));
                    }
                    lists.push_back(std::move(sc));
                }
            }
        }
        problem.candidate_order = [&task, &tsub, radial,
                                   guide](VertexId v) {
            const topo::Color color = tsub.stable_complex().color(v);
            BaryPoint target = tsub.stable_position(v);
            if (radial) target = radial_projection_l1(task, target);
            std::vector<VertexId> order;
            const auto it = guide->exact.find(color);
            if (it == guide->exact.end()) return order;
            const auto& cands = it->second;
            order.reserve(cands.size());
            if (guide->use_scaled) {
                // Extend the shared denominator to cover this target.
                std::int64_t dv = guide->den;
                for (const auto& [bv, r] : target.coords()) {
                    dv = lcm_capped(dv, r.den());
                    if (dv == 0) break;
                }
                if (dv != 0) {
                    const std::int64_t f = dv / guide->den;
                    std::vector<std::pair<VertexId, std::int64_t>> tgt;
                    tgt.reserve(target.coords().size());
                    for (const auto& [bv, r] : target.coords()) {
                        tgt.emplace_back(bv, r.num() * (dv / r.den()));
                    }
                    const auto& scaled = guide->scaled.find(color)->second;
                    std::vector<std::pair<std::int64_t, VertexId>> scored;
                    scored.reserve(cands.size());
                    for (std::size_t i = 0; i < cands.size(); ++i) {
                        const auto& cc = scaled[i];
                        std::int64_t dist = 0;
                        std::size_t a = 0, b = 0;
                        while (a < cc.size() && b < tgt.size()) {
                            if (cc[a].first == tgt[b].first) {
                                const std::int64_t d =
                                    cc[a].second * f - tgt[b].second;
                                dist += d < 0 ? -d : d;
                                ++a;
                                ++b;
                            } else if (cc[a].first < tgt[b].first) {
                                dist += cc[a].second * f;
                                ++a;
                            } else {
                                dist += tgt[b].second;
                                ++b;
                            }
                        }
                        for (; a < cc.size(); ++a) dist += cc[a].second * f;
                        for (; b < tgt.size(); ++b) dist += tgt[b].second;
                        scored.emplace_back(dist, cands[i].second);
                    }
                    std::sort(scored.begin(), scored.end());
                    for (const auto& [dist, w] : scored) order.push_back(w);
                    return order;
                }
            }
            std::vector<std::pair<Rational, VertexId>> scored;
            scored.reserve(cands.size());
            for (const auto& [pos, w] : cands) {
                scored.emplace_back(target.l1_distance(pos), w);
            }
            std::sort(scored.begin(), scored.end());
            for (const auto& [dist, w] : scored) order.push_back(w);
            return order;
        };
    }
    return problem;
}

std::optional<Landing> find_landing(const TerminatingSubdivision& tsub,
                                    const iis::Run& run,
                                    std::size_t max_round) {
    const int n = tsub.base().dimension();
    std::vector<VertexId> inputs;
    for (int i = 0; i <= n; ++i) inputs.push_back(static_cast<VertexId>(i));

    // The landing simplex must live inside the face spanned by the run's
    // participants: condition (2) of Definition 4.1 constrains outputs to
    // Delta(omega ∩ chi^{-1}(part(r))), and condition (b) of Theorem 6.1
    // delivers delta(tau) in Delta(carrier(tau)) — so tau's carrier must
    // be a face of the participation face. The candidates are the
    // maximal stable simplices of K(T) restricted to that face.
    std::vector<VertexId> face_verts;
    for (gact::ProcessId p : run.participants().members()) {
        face_verts.push_back(static_cast<VertexId>(p));
    }
    const Simplex face{std::move(face_verts)};
    std::vector<Simplex> candidates;
    for (const Simplex& tau :
         tsub.stable_complex().complex().simplices_of_dimension(
             face.dimension())) {
        if (tsub.stable_carrier(tau).is_face_of(face)) {
            candidates.push_back(tau);
        }
    }

    for (std::size_t k = 1; k <= max_round; ++k) {
        const auto points = iis::run_simplex_positions(run, k, inputs);
        for (const Simplex& tau : candidates) {
            if (tsub.stable_simplex_contains(tau, points)) {
                return Landing{k, tau,
                               std::max(k, tsub.stable_since(tau))};
            }
        }
    }
    return std::nullopt;
}

AdmissibilityReport check_admissibility(const TerminatingSubdivision& tsub,
                                        const std::vector<iis::Run>& runs,
                                        std::size_t max_round) {
    AdmissibilityReport report;
    report.admissible = true;
    for (const iis::Run& run : runs) {
        ++report.runs_checked;
        const auto landing = find_landing(tsub, run, max_round);
        if (!landing.has_value()) {
            report.admissible = false;
            report.failures.push_back(run);
        } else {
            report.max_landing_round =
                std::max(report.max_landing_round, landing->round);
        }
    }
    return report;
}

}  // namespace gact::core
