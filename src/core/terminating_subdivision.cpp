#include "core/terminating_subdivision.h"

#include <algorithm>
#include <array>
#include <limits>
#include <mutex>
#include <optional>
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

/// The facets through each vertex (its star), as ascending indices into
/// the stage's facets(): vertex v's are facet[begin[v] .. begin[v + 1]).
/// Built once per stage; carry_into and the scan both read it.
struct TerminatingSubdivision::StarIndex {
    std::vector<std::uint32_t> begin;
    std::vector<std::uint32_t> facet;

    explicit StarIndex(const SubdividedComplex& cx) {
        const std::vector<Simplex>& facets = cx.facets();
        begin.assign(cx.vertex_count() + 1, 0);
        for (const Simplex& f : facets) {
            for (VertexId v : f.vertices()) ++begin[v + 1];
        }
        for (std::size_t v = 0; v + 1 < begin.size(); ++v) {
            begin[v + 1] += begin[v];
        }
        facet.resize(begin.back());
        std::vector<std::uint32_t> next(begin.begin(), begin.end() - 1);
        for (std::size_t fi = 0; fi < facets.size(); ++fi) {
            for (VertexId v : facets[fi].vertices()) {
                facet[next[v]++] = static_cast<std::uint32_t>(fi);
            }
        }
    }

    std::span<const std::uint32_t> of(VertexId v) const {
        return {facet.data() + begin[v], facet.data() + begin[v + 1]};
    }

    /// The first facet, in facet order, that holds the simplex with the
    /// sorted vertices `s`: searched in the star of its vertex with the
    /// fewest facets. `s` must be a face of some facet.
    std::uint32_t first_facet(std::span<const VertexId> s,
                              const std::vector<Simplex>& facets) const {
        VertexId pivot = s[0];
        for (VertexId v : s) {
            if (of(v).size() < of(pivot).size()) pivot = v;
        }
        for (std::uint32_t fi : of(pivot)) {
            const auto f = facets[fi].vertices();
            if (std::includes(f.begin(), f.end(), s.begin(), s.end())) {
                return fi;
            }
        }
        throw invariant_error("TerminatingSubdivision: face of no facet");
    }
};

/// stable_since's lookup: each K(T) simplex's stage.
struct TerminatingSubdivision::SinceLookup {
    std::once_flag built;
    std::unordered_map<Simplex, std::size_t, topo::SimplexSetHash,
                       topo::SimplexSetEq>
        stage;
};

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
    const SubdividedComplex& next, const StarIndex& star) const {
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
    // ids, is a face of some facet of C_k. A simplex is tested against
    // the star of its vertex with the fewest facets.
    const std::vector<Simplex>& facets = next.facets();
    std::vector<VertexId> local;
    for (const Simplex& s : stable_.complex().simplices()) {
        local.clear();
        for (VertexId g : s.vertices()) {
            ensure(local_of[g] != kNoGlobal,
                   "TerminatingSubdivision: stable simplex not preserved");
            local.push_back(local_of[g]);
        }
        std::sort(local.begin(), local.end());
        const VertexId pivot = *std::ranges::min_element(
            local, {}, [&](VertexId v) { return star.of(v).size(); });
        ensure(std::ranges::any_of(star.of(pivot),
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
    std::optional<StarIndex> star;
    if (stages_ == 0) {
        newest_ = SubdividedComplex::identity(base_);
        global_of_.assign(newest_.vertex_count(), kNoGlobal);
        star.emplace(newest_);
    } else {
        // Build C_k: partial chromatic subdivision of C_{k-1} terminating
        // Sigma_{k-1}. C_{k-1} is released once its ids are carried:
        // every later reader goes through K(T), and the older stage
        // complexes dominated a retained subdivision's memory.
        SubdividedComplex next = newest_.chromatic_subdivision_with_termination(
            [this](const Simplex& t) { return is_stable(t); }, num_threads);
        star.emplace(next);
        std::vector<VertexId> carried = carry_into(next, *star);
        newest_ = std::move(next);
        global_of_ = std::move(carried);
    }
    ++stages_;
    const SubdividedComplex& cx = newest_;

    // Collect Sigma_k: previously stable simplices persist; new ones come
    // from the predicate. Each face is examined once, by the first facet
    // (in facet order) that holds it; the predicate is a function of the
    // face, so K(T) gets the same simplices in the same order as if
    // every facet examined all its faces and repeats were skipped. The
    // scan is per-facet work over immutable state, so it shards as
    // index-slotted tasks on the resident scheduler; the selected faces
    // are merged in facet order, which is the sequential scan's order.
    const std::vector<Simplex>& facets = cx.facets();
    std::vector<std::vector<Simplex>> selected(facets.size());
    exec::for_index(
        exec::Scheduler::shared(), facets.size(), num_threads,
        [&](std::size_t fi) {
            for (const Simplex& s : facets[fi].faces()) {
                if (star->first_facet(s.vertices(), facets) != fi) continue;
                if (is_stable(s)) continue;
                if (stabilize(cx, s)) selected[fi].push_back(s);
            }
        });

    // Record the newly stable simplices into K(T), in merge order. Each
    // is new to K(T) and selected once. Simplex::faces() lists every
    // face before its cofaces, and the first facet holding a simplex
    // holds its faces, so a face-closed rule has put every face of a
    // selected simplex into K(T) or ahead of it in this order: each is
    // attached over its boundary, with no closure walk. First the ids
    // (interning new vertices in merge order), then the inserts.
    std::vector<Simplex> record;
    std::vector<VertexId> verts;
    for (const std::vector<Simplex>& faces : selected) {
        for (const Simplex& s : faces) {
            verts.clear();
            for (VertexId v : s.vertices()) verts.push_back(global_id(v));
            record.emplace_back(verts);
        }
    }
    selected = {};
    for (const Simplex& g : record) {
        bool added = false;
        try {
            added = stable_.attach_trusted(g);
        } catch (const precondition_error&) {
            throw precondition_error(
                "TerminatingSubdivision: the stabilize rule selected " +
                g.to_string() + " (global ids) without one of its faces; "
                "it must be closed under faces");
        }
        ensure(added, "TerminatingSubdivision: a simplex was recorded twice");
    }
    stage_record_.push_back(std::move(record));
    since_ = std::make_shared<SinceLookup>();
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
    require(since_ != nullptr, "TerminatingSubdivision: simplex is not stable");
    std::call_once(since_->built, [this] {
        since_->stage.reserve(stable_.complex().size());
        for (std::size_t k = 0; k < stage_record_.size(); ++k) {
            for (const Simplex& s : stage_record_[k]) {
                since_->stage.emplace(s, k);
            }
        }
    });
    const auto it = since_->stage.find(global_simplex);
    require(it != since_->stage.end(),
            "TerminatingSubdivision: simplex is not stable");
    return it->second;
}

const std::vector<Simplex>& TerminatingSubdivision::stage_record(
    std::size_t k) const {
    require(k < stages(), "TerminatingSubdivision: stage not built");
    return stage_record_[k];
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
