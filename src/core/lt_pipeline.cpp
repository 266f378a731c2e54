#include "core/lt_pipeline.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "util/require.h"

namespace gact::core {

bool lt_stable_rule(int n, int t, const SubdividedComplex& cx,
                    const Simplex& s) {
    if (cx.depth() < 2) return false;
    // BaryPoint drops zero weights, so the carrier of v has exactly one
    // vertex per coordinate: read its dimension without building it.
    for (VertexId v : s.vertices()) {
        const auto dim = static_cast<int>(cx.position(v).coords().size()) - 1;
        if (dim < n - t) return false;
    }
    return true;
}

std::size_t ring_of_stable_facet(const TerminatingSubdivision& tsub,
                                 const Simplex& global_facet) {
    // Ring m first appears in Sigma_{m+2}; a simplex stabilized before
    // stage 2 (by some other rule) persists into Sigma_2: ring 0.
    return std::max<std::size_t>(tsub.stable_since(global_facet), 2) - 2;
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

/// Dense coordinates of `p` over the base vertex ids 0..n; false when p
/// has a coordinate outside them.
bool dense_coords(const BaryPoint& p, int n, std::vector<Rational>& out) {
    out.assign(static_cast<std::size_t>(n) + 1, Rational(0));
    for (const auto& [v, w] : p.coords()) {
        if (v > static_cast<VertexId>(n)) return false;
        out[v] = w;
    }
    return true;
}

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

/// The exact geometry of |L| that the radial projection f reads, built
/// once per problem and immutable afterwards (so concurrent candidate
/// closures share it without locks): L's facets with their vertex
/// positions and exact per-coordinate bounding boxes, and the boundary
/// segments of |L| with their direction b - a and, per corner c of s,
/// the offsets a - c and b - c the ray equations need.
class RadialGeometry {
public:
    explicit RadialGeometry(const tasks::AffineTask& lt)
        : n_(lt.subdivision.base().dimension()) {
        const std::size_t width = static_cast<std::size_t>(n_) + 1;
        for (const Simplex& f : lt.l_complex.facets()) {
            Facet facet;
            facet.positions = lt.subdivision.positions_of(f);
            std::vector<Rational> x;
            for (const BaryPoint& pos : facet.positions) {
                require(dense_coords(pos, n_, x),
                        "RadialGeometry: L vertex outside the base");
                if (facet.lo.empty()) {
                    facet.lo = x;
                    facet.hi = x;
                    continue;
                }
                for (std::size_t c = 0; c < width; ++c) {
                    facet.lo[c] = std::min(facet.lo[c], x[c]);
                    facet.hi[c] = std::max(facet.hi[c], x[c]);
                }
            }
            facets_.push_back(std::move(facet));
        }
        for (const Simplex& e : l_boundary_edges(lt)) {
            const auto pos = lt.subdivision.positions_of(e);
            Segment seg{pos[0], pos[1], coord_diff(pos[1], pos[0], n_), {},
                        {}};
            for (int corner = 0; corner <= n_; ++corner) {
                const BaryPoint c =
                    BaryPoint::vertex(static_cast<VertexId>(corner));
                seg.a_rel.push_back(coord_diff(seg.a, c, n_));
                seg.b_rel.push_back(coord_diff(seg.b, c, n_));
            }
            segments_.push_back(std::move(seg));
        }
    }

    /// Whether x lies in |L|: the box filter rejects every facet whose
    /// box misses x (a closed simplex lies inside its vertices' box),
    /// topo::point_in_simplex decides the rest.
    bool contains(const BaryPoint& x) const {
        std::vector<Rational> coords;
        if (!dense_coords(x, n_, coords)) return false;
        for (const Facet& f : facets_) {
            bool in_box = true;
            for (std::size_t c = 0; c < coords.size(); ++c) {
                if (coords[c] < f.lo[c] || f.hi[c] < coords[c]) {
                    in_box = false;
                    break;
                }
            }
            if (in_box && topo::point_in_simplex(x, f.positions)) {
                return true;
            }
        }
        return false;
    }

    /// f(x): x itself on |L|; otherwise the first boundary hit of the
    /// ray from the one corner whose ray reaches x before |L|.
    BaryPoint project(const BaryPoint& x) const {
        require(n_ == 2, "radial_projection_l1: implemented for n = 2");
        if (contains(x)) return x;

        // Identify the corner whose radial ray reaches x before R_0: the
        // one for which every boundary hit is at parameter s >= 1.
        std::optional<BaryPoint> best;
        for (int corner = 0; corner <= n_; ++corner) {
            const BaryPoint c =
                BaryPoint::vertex(static_cast<VertexId>(corner));
            if (x == c) continue;
            const std::vector<Rational> d = coord_diff(x, c, n_);
            // The first hit of minimal s, in segment order; only its
            // point is ever built.
            std::optional<RayHit> min_hit;
            for (std::size_t i = 0; i < segments_.size(); ++i) {
                hit_segment(d, i, static_cast<std::size_t>(corner),
                            min_hit);
            }
            if (!min_hit.has_value()) continue;
            if (min_hit->s >= Rational(1)) {
                require(!best.has_value(),
                        "radial_projection_l1: ambiguous corner for " +
                            x.to_string());
                best = hit_point(*min_hit);
            }
        }
        require(best.has_value(),
                "radial_projection_l1: no corner projects " + x.to_string());
        return *best;
    }

private:
    struct Facet {
        std::vector<BaryPoint> positions;
        std::vector<Rational> lo, hi;  // dense over base ids 0..n
    };
    struct Segment {
        BaryPoint a, b;
        std::vector<Rational> e;                   // b - a
        std::vector<std::vector<Rational>> a_rel;  // a - c, per corner c
        std::vector<std::vector<Rational>> b_rel;  // b - c, per corner c
    };
    /// One intersection of the ray with a segment: the ray parameter s
    /// and where on the segment it lands — the point a + u (b - a), or
    /// one endpoint of a segment collinear with the ray.
    struct RayHit {
        Rational s;
        std::size_t segment = 0;
        Rational u;
        enum class At { kInterior, kA, kB } at = At::kInterior;
    };

    /// Intersect the ray c + s*d (d = x - c) with segment i: solutions
    /// (s, u) of c + s d = a + u e with u in [0,1] and s > 0; collinear
    /// cases yield the endpoints. Each hit replaces `min_hit` only when
    /// its s is strictly smaller, so ties keep the earliest hit.
    void hit_segment(const std::vector<Rational>& d, std::size_t i,
                     std::size_t corner,
                     std::optional<RayHit>& min_hit) const {
        const Segment& seg = segments_[i];
        const std::vector<Rational>& e = seg.e;
        const std::vector<Rational>& rhs = seg.a_rel[corner];
        const auto offer = [&](const Rational& s, const Rational& u,
                               RayHit::At at) {
            if (!min_hit.has_value() || s < min_hit->s) {
                min_hit = RayHit{s, i, u, at};
            }
        };

        // Find a non-singular 2x2 subsystem s*d - u*e = rhs.
        for (int r = 0; r <= n_; ++r) {
            for (int q = r + 1; q <= n_; ++q) {
                const Rational det = d[r] * (-e[q]) - (-e[r]) * d[q];
                if (det.is_zero()) continue;
                const Rational s =
                    (rhs[r] * (-e[q]) - (-e[r]) * rhs[q]) / det;
                const Rational u = (d[r] * rhs[q] - rhs[r] * d[q]) / det;
                // Verify the remaining coordinates.
                for (int m = 0; m <= n_; ++m) {
                    if (!(s * d[m] - u * e[m] == rhs[m])) return;
                }
                if (u < Rational(0) || u > Rational(1)) return;
                if (s <= Rational(0)) return;
                offer(s, u, RayHit::At::kInterior);
                return;
            }
        }
        // All 2x2 systems singular: d parallel to e (or degenerate). The
        // collinear case contributes the endpoints if they lie on the ray.
        for (const RayHit::At at : {RayHit::At::kA, RayHit::At::kB}) {
            const std::vector<Rational>& g =
                at == RayHit::At::kA ? rhs : seg.b_rel[corner];
            // endpoint = c + s*d needs g = s*d componentwise.
            Rational s;
            bool found_s = false;
            bool ok = true;
            for (int m = 0; m <= n_; ++m) {
                if (d[m].is_zero()) {
                    if (!g[m].is_zero()) ok = false;
                } else if (!found_s) {
                    s = g[m] / d[m];
                    found_s = true;
                } else if (!(g[m] == s * d[m])) {
                    ok = false;
                }
            }
            if (ok && found_s && s > Rational(0)) offer(s, Rational(0), at);
        }
    }

    BaryPoint hit_point(const RayHit& hit) const {
        const Segment& seg = segments_[hit.segment];
        switch (hit.at) {
            case RayHit::At::kA:
                return seg.a;
            case RayHit::At::kB:
                return seg.b;
            case RayHit::At::kInterior:
                break;
        }
        return BaryPoint::combination({seg.a, seg.b},
                                      {Rational(1) - hit.u, hit.u});
    }

    int n_;
    std::vector<Facet> facets_;
    std::vector<Segment> segments_;
};

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

bool point_in_l(const tasks::AffineTask& lt, const BaryPoint& x) {
    return RadialGeometry(lt).contains(x);
}

BaryPoint radial_projection_l1(const tasks::AffineTask& lt,
                               const BaryPoint& x) {
    return RadialGeometry(lt).project(x);
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
            "|advances=" + std::to_string(tsub.stages()) +
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
        // Candidate order: nearest (to the radial projection of the
        // vertex when requested, else to the vertex itself) first, ties
        // by vertex id — a strict total order, as order_candidates
        // requires. The L vertex positions are copied here, indexed by
        // vertex id: the closure runs once per free domain vertex, tens
        // of thousands of times on the heavy registry scenarios, on the
        // few candidates the solver hands it. The distance computation
        // additionally rescales every L coordinate to one shared
        // denominator, so each closure call measures distances in pure
        // integer arithmetic. At a common denominator the scaled
        // distances order exactly like the rationals they stand for; if
        // an lcm would overflow the headroom, the closure falls back to
        // exact Rational distances — same order, just slower.
        struct Guide {
            // The radial projection's geometry (kRadial only), built
            // here once instead of once per closure call.
            std::optional<RadialGeometry> radial;
            // Per L vertex id: its exact position, and the same
            // coordinates as numerators over the shared denominator
            // `den`.
            std::vector<BaryPoint> exact;
            std::vector<std::vector<std::pair<VertexId, std::int64_t>>>
                scaled;
            std::int64_t den = 1;
            bool use_scaled = true;
        };
        auto guide = std::make_shared<Guide>();
        if (guidance == LtGuidance::kRadial) guide->radial.emplace(task);
        const std::vector<VertexId> l_vertices =
            task.task.outputs.vertex_ids();
        const std::size_t size =
            l_vertices.empty() ? 0 : std::size_t{l_vertices.back()} + 1;
        guide->exact.resize(size);
        for (VertexId w : l_vertices) {
            guide->exact[w] = task.subdivision.position(w);
            for (const auto& [bv, r] : guide->exact[w].coords()) {
                if (guide->den != 0) {
                    guide->den = lcm_capped(guide->den, r.den());
                }
            }
        }
        if (guide->den == 0) {
            guide->use_scaled = false;
            guide->den = 1;
        } else {
            guide->scaled.resize(size);
            for (VertexId w : l_vertices) {
                auto& sc = guide->scaled[w];
                sc.reserve(guide->exact[w].coords().size());
                for (const auto& [bv, r] : guide->exact[w].coords()) {
                    sc.emplace_back(bv, r.num() * (guide->den / r.den()));
                }
            }
        }
        problem.order_candidates = [&tsub, guide](VertexId v,
                                                  std::span<VertexId> cands) {
            BaryPoint target = tsub.stable_position(v);
            if (guide->radial.has_value()) {
                target = guide->radial->project(target);
            }
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
                    std::vector<std::pair<std::int64_t, VertexId>> scored;
                    scored.reserve(cands.size());
                    for (VertexId w : cands) {
                        const auto& cc = guide->scaled[w];
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
                        scored.emplace_back(dist, w);
                    }
                    std::sort(scored.begin(), scored.end());
                    for (std::size_t i = 0; i < scored.size(); ++i) {
                        cands[i] = scored[i].second;
                    }
                    return;
                }
            }
            std::vector<std::pair<Rational, VertexId>> scored;
            scored.reserve(cands.size());
            for (VertexId w : cands) {
                scored.emplace_back(target.l1_distance(guide->exact[w]), w);
            }
            std::sort(scored.begin(), scored.end());
            for (std::size_t i = 0; i < scored.size(); ++i) {
                cands[i] = scored[i].second;
            }
        };
    }
    return problem;
}

std::optional<Landing> find_landing(const LandingIndex& index,
                                    const iis::Run& run,
                                    std::size_t max_round) {
    // The landing simplex must live inside the face spanned by the run's
    // participants: condition (2) of Definition 4.1 constrains outputs to
    // Delta(omega ∩ chi^{-1}(part(r))), and condition (b) of Theorem 6.1
    // delivers delta(tau) in Delta(carrier(tau)) — so tau's carrier must
    // be a face of the participation face. The candidates are the
    // maximal stable simplices of K(T) restricted to that face.
    require(run.num_processes() ==
                static_cast<std::uint32_t>(
                    index.subdivision().base().dimension() + 1),
            "find_landing: one base vertex per process");
    const ProcessSet face = run.participants();
    std::vector<std::optional<BaryPoint>> row(run.num_processes());
    for (gact::ProcessId p = 0; p < run.num_processes(); ++p) {
        row[p] = BaryPoint::vertex(static_cast<VertexId>(p));
    }
    std::vector<BaryPoint> points;
    for (std::size_t k = 1; k <= max_round; ++k) {
        // sigma_k: the round-k views of round k's processes. Rows advance
        // one round at a time and stop at the landing round.
        row = iis::next_view_positions(run, k, row);
        points.clear();
        for (gact::ProcessId p : run.round(k - 1).support().members()) {
            points.push_back(*row[p]);
        }
        if (const LandingIndex::Entry* tau =
                index.landing_simplex(face, points)) {
            return Landing{k, tau->simplex, std::max(k, tau->stable_since)};
        }
    }
    return std::nullopt;
}

std::optional<Landing> find_landing(const TerminatingSubdivision& tsub,
                                    const iis::Run& run,
                                    std::size_t max_round) {
    return find_landing(LandingIndex(tsub), run, max_round);
}

AdmissibilityReport check_admissibility(const TerminatingSubdivision& tsub,
                                        const std::vector<iis::Run>& runs,
                                        std::size_t max_round) {
    const LandingIndex index(tsub);
    AdmissibilityReport report;
    report.admissible = true;
    for (const iis::Run& run : runs) {
        ++report.runs_checked;
        const auto landing = find_landing(index, run, max_round);
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
