#include "core/terminating_subdivision.h"

#include <algorithm>
#include <array>
#include <limits>
#include <span>

#include "exec/for_index.h"
#include "util/require.h"

namespace gact::core {

TerminatingSubdivision::TerminatingSubdivision(const ChromaticComplex& base)
    : base_(base) {}

namespace {

/// global_of_ entry of a stage vertex that is not in K(T).
constexpr VertexId kNoGlobal = std::numeric_limits<VertexId>::max();

}  // namespace

VertexId TerminatingSubdivision::global_id(VertexId v) {
    VertexId& id = global_of_[v];
    if (id != kNoGlobal) return id;
    // Every K(T) vertex was carried into this stage (carry_into), so a
    // vertex without a carried id is new to K(T).
    const BaryPoint& pos = newest_.position(v);
    const Color color = newest_.color(v);
    const auto [it, inserted] = global_index_.emplace(
        std::make_pair(pos, color),
        static_cast<VertexId>(global_position_.size()));
    ensure(inserted,
           "TerminatingSubdivision: uncarried stage vertex already in K(T)");
    id = it->second;
    global_position_.push_back(pos);
    stable_.color_vertex_trusted(id, color);
    return id;
}

bool TerminatingSubdivision::is_stable(const Simplex& t) const {
    // Map into global ids (sorted, as K(T)'s keys are); simplices of up
    // to kInline vertices, all of them for bases of dimension < 8, need
    // no allocation.
    constexpr std::size_t kInline = 8;
    std::array<VertexId, kInline> inline_ids{};
    std::vector<VertexId> heap_ids;
    VertexId* ids = inline_ids.data();
    if (t.size() > kInline) {
        heap_ids.resize(t.size());
        ids = heap_ids.data();
    }
    std::size_t n = 0;
    for (VertexId v : t.vertices()) {
        const VertexId g = global_of_[v];
        if (g == kNoGlobal) return false;
        ids[n++] = g;
    }
    std::sort(ids, ids + n);
    const topo::SimplexSet& kt = stable_.complex().simplices();
    return kt.find(std::span<const VertexId>(ids, n)) != kt.end();
}

std::vector<VertexId> TerminatingSubdivision::carry_into(
    const SubdividedComplex& next) const {
    // A vertex p of C_{k-1} survives in C_k as its (p, {p}) vertex, at
    // p's position and with p's color.
    std::vector<VertexId> carried(next.vertex_count(), kNoGlobal);
    std::vector<VertexId> local_of(global_position_.size(), kNoGlobal);
    for (VertexId p = 0; p < global_of_.size(); ++p) {
        if (global_of_[p] == kNoGlobal) continue;
        const VertexId q = next.vertex_for(p, Simplex{p});
        ensure(next.position(q) == newest_.position(p) &&
                   next.color(q) == newest_.color(p),
               "TerminatingSubdivision: stable vertex vanished");
        carried[q] = global_of_[p];
        local_of[global_of_[p]] = q;
    }

    // Sigma_{k-1} (= K(T)) persists in C_k: each K(T) simplex, in C_k's
    // ids, is a face of some facet of C_k. The facets through each
    // vertex (its star) are indexed once; a simplex is tested against
    // the star of its vertex with the fewest facets.
    const std::vector<Simplex>& facets = next.facets();
    std::vector<std::vector<std::uint32_t>> star(next.vertex_count());
    for (std::size_t fi = 0; fi < facets.size(); ++fi) {
        for (VertexId v : facets[fi].vertices()) {
            star[v].push_back(static_cast<std::uint32_t>(fi));
        }
    }
    const auto star_size = [&](VertexId v) { return star[v].size(); };
    std::vector<VertexId> local;
    for (const Simplex& s : stable_.complex().simplices()) {
        local.clear();
        for (VertexId g : s.vertices()) {
            ensure(local_of[g] != kNoGlobal,
                   "TerminatingSubdivision: stable simplex not preserved");
            local.push_back(local_of[g]);
        }
        std::sort(local.begin(), local.end());
        const VertexId pivot = *std::ranges::min_element(local, {}, star_size);
        ensure(std::ranges::any_of(star[pivot],
                                   [&](std::uint32_t fi) {
                                       const auto f = facets[fi].vertices();
                                       return std::includes(
                                           f.begin(), f.end(), local.begin(),
                                           local.end());
                                   }),
               "TerminatingSubdivision: stable simplex not preserved");
    }
    return carried;
}

void TerminatingSubdivision::advance(
    const std::function<bool(const SubdividedComplex&, const Simplex&)>&
        stabilize,
    unsigned num_threads) {
    require(!base_.is_empty(),
            "TerminatingSubdivision: advance on an empty placeholder");
    if (stages_ == 0) {
        newest_ = SubdividedComplex::identity(base_);
        global_of_.assign(newest_.vertex_count(), kNoGlobal);
    } else {
        // Build C_k: partial chromatic subdivision of C_{k-1} terminating
        // Sigma_{k-1}. C_{k-1} is released once its ids are carried:
        // every later reader goes through K(T), and the older stage
        // complexes dominated a retained subdivision's memory.
        SubdividedComplex next = newest_.chromatic_subdivision_with_termination(
            [this](const Simplex& t) { return is_stable(t); }, num_threads);
        std::vector<VertexId> carried = carry_into(next);
        newest_ = std::move(next);
        global_of_ = std::move(carried);
    }
    const std::size_t stage = stages_++;
    const SubdividedComplex& cx = newest_;

    // Collect Sigma_k: previously stable simplices persist; new ones come
    // from the predicate. The predicate scan is per-facet work over
    // immutable state, so it shards as index-slotted tasks on the
    // resident scheduler; the selected faces are merged in facet order,
    // which is the sequential scan's order.
    const std::vector<Simplex>& facets = cx.facets();
    std::vector<std::vector<Simplex>> selected(facets.size());
    exec::for_index(
        exec::Scheduler::shared(), facets.size(), num_threads,
        [&](std::size_t fi) {
            for (const Simplex& s : facets[fi].faces()) {
                if (is_stable(s)) continue;
                if (stabilize(cx, s)) selected[fi].push_back(s);
            }
        });

    // Record each newly stable simplex into K(T), stamping
    // first-stabilization stages (faces stabilize with their cofaces).
    // K(T)'s closure walk inserts exactly the faces not yet in K(T), and
    // K(T) and stable_since_ have the same keys, so stamping what the
    // walk inserts stamps exactly the simplices stable for the first
    // time. A selected simplex that an earlier one already covered (a
    // face of it, or selected by two facets) is in K(T) by then: its
    // vertices all have global ids, and add_simplex leaves K(T) as it
    // is. So K(T)'s add_simplex sequence is the merge order.
    const std::function<void(const Simplex&)> stamp =
        [&](const Simplex& t) { stable_since_.emplace(t, stage); };
    std::vector<VertexId> verts;
    for (const std::vector<Simplex>& faces : selected) {
        for (const Simplex& s : faces) {
            verts.clear();
            for (VertexId v : s.vertices()) verts.push_back(global_id(v));
            stable_.add_simplex_trusted(Simplex(verts), stamp);
        }
    }
}

const SubdividedComplex& TerminatingSubdivision::complex_at(
    std::size_t k) const {
    require(k < stages(), "TerminatingSubdivision: stage not built");
    require(k + 1 == stages(),
            "TerminatingSubdivision: only the newest stage complex is kept");
    return newest_;
}

const BaryPoint& TerminatingSubdivision::stable_position(
    VertexId global_vertex) const {
    require(global_vertex < global_position_.size(),
            "TerminatingSubdivision: unknown global vertex");
    return global_position_[global_vertex];
}

Simplex TerminatingSubdivision::stable_carrier(
    const Simplex& global_simplex) const {
    Simplex out;
    for (VertexId v : global_simplex.vertices()) {
        out = out.union_with(stable_position(v).support());
    }
    return out;
}

std::size_t TerminatingSubdivision::stable_since(
    const Simplex& global_simplex) const {
    const auto it = stable_since_.find(global_simplex);
    require(it != stable_since_.end(),
            "TerminatingSubdivision: simplex is not stable");
    return it->second;
}

std::optional<VertexId> TerminatingSubdivision::find_stable_vertex(
    const BaryPoint& position, Color color) const {
    const auto it = global_index_.find(std::make_pair(position, color));
    if (it == global_index_.end()) return std::nullopt;
    return it->second;
}

bool TerminatingSubdivision::stable_simplex_contains(
    const Simplex& tau, const std::vector<BaryPoint>& points) const {
    std::vector<BaryPoint> vertices;
    vertices.reserve(tau.size());
    for (VertexId v : tau.vertices()) vertices.push_back(stable_position(v));
    for (const BaryPoint& p : points) {
        if (!topo::point_in_simplex(p, vertices)) return false;
    }
    return true;
}

}  // namespace gact::core
