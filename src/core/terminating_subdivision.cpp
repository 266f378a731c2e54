#include "core/terminating_subdivision.h"

#include <unordered_map>

#include "exec/for_index.h"
#include "util/require.h"

namespace gact::core {

TerminatingSubdivision::TerminatingSubdivision(const ChromaticComplex& base)
    : base_(base) {}

VertexId TerminatingSubdivision::global_id(
    const SubdividedComplex& stage_complex, VertexId v) {
    const BaryPoint& pos = stage_complex.position(v);
    const Color color = stage_complex.complex().color(v);
    const auto key = std::make_pair(pos, color);
    const auto it = global_index_.find(key);
    if (it != global_index_.end()) return it->second;
    const VertexId id = static_cast<VertexId>(global_position_.size());
    global_index_.emplace(key, id);
    global_position_.push_back(pos);
    stable_.color_vertex_trusted(id, color);
    return id;
}

void TerminatingSubdivision::advance(
    const std::function<bool(const SubdividedComplex&, const Simplex&)>&
        stabilize,
    unsigned num_threads) {
    require(!base_.is_empty(),
            "TerminatingSubdivision: advance on an empty placeholder");
    if (stages_ == 0) {
        newest_ = SubdividedComplex::identity(base_);
    } else {
        // Build C_k: partial chromatic subdivision of C_{k-1} terminating
        // Sigma_{k-1}.
        SubdividedComplex next = newest_.chromatic_subdivision_with_termination(
            [this](const Simplex& t) { return sigma_.contains(t); },
            num_threads);

        // Sigma_{k-1} persists in C_k: terminated simplices survive with
        // new vertex ids (matched by position + color). The per-vertex
        // lookup goes through the exact-rational position index, so
        // memoize it: stable simplices share vertices heavily and the map
        // probe is the expensive part of this check.
        std::unordered_map<VertexId, VertexId> vertex_image;
        std::vector<Simplex> images;
        images.reserve(sigma_.simplices().size());
        std::vector<VertexId> verts;
        for (const Simplex& s : sigma_.simplices()) {
            verts.clear();
            for (VertexId v : s.vertices()) {
                const auto memo = vertex_image.find(v);
                if (memo != vertex_image.end()) {
                    verts.push_back(memo->second);
                    continue;
                }
                const auto nv = next.find_vertex(
                    newest_.position(v), newest_.complex().color(v));
                ensure(nv.has_value(),
                       "TerminatingSubdivision: stable vertex vanished");
                vertex_image.emplace(v, *nv);
                verts.push_back(*nv);
            }
            Simplex image(verts);
            ensure(next.complex().contains(image),
                   "TerminatingSubdivision: stable simplex not preserved");
            images.push_back(std::move(image));
        }
        // Sigma_{k-1} is closed under faces and the vertexwise image of a
        // closed set is closed, so the images need no per-simplex closure
        // walk. C_{k-1} is released here: every later reader goes through
        // K(T), and the older stage complexes dominated a retained
        // subdivision's memory.
        newest_ = std::move(next);
        sigma_ = SimplicialComplex::from_closed(std::move(images));
    }
    const std::size_t stage = stages_++;
    const SubdividedComplex& cx = newest_;

    // Collect Sigma_k: previously stable simplices persist; new ones come
    // from the predicate. Closure under faces is enforced by construction
    // (SimplicialComplex::add_simplex adds all faces). The predicate scan
    // is per-facet work over immutable state, so it shards as
    // index-slotted tasks on the resident scheduler; the selected faces
    // are merged in facet order, and since the stable set is a *set*,
    // the merged result is identical to the sequential scan's.
    const std::vector<Simplex>& facets = cx.facets();
    std::vector<std::vector<Simplex>> selected(facets.size());
    exec::for_index(
        exec::Scheduler::shared(), facets.size(), num_threads,
        [&](std::size_t fi) {
            for (const Simplex& s : facets[fi].faces()) {
                if (sigma_.contains(s)) continue;
                if (stabilize(cx, s)) selected[fi].push_back(s);
            }
        });
    // Newly stable simplices are referenced into `selected`, not copied.
    std::vector<const Simplex*> newly_stable;
    for (const std::vector<Simplex>& faces : selected) {
        for (const Simplex& s : faces) {
            if (sigma_.contains(s)) continue;
            sigma_.add_simplex(s);
            newly_stable.push_back(&s);
        }
    }

    // Record the newly stable simplices into the global complex, stamping
    // first-stabilization stages (faces stabilize with their cofaces).
    // Only the simplices selected THIS stage need recording: everything
    // else in Sigma_k is either a face of one of them (covered by the
    // closure walk below) or the persisted image of a simplex that was
    // recorded — under the same position/color global ids — at an
    // earlier stage, and is already in K(T) with its stamp. K(T)'s
    // closure walk inserts exactly the faces not yet in K(T), and K(T)
    // and stable_since_ have the same keys, so stamping what the walk
    // inserts stamps exactly the simplices stable for the first time.
    // global_id resolves through the exact-rational position index;
    // memoize per stage so each stage vertex pays for one probe however
    // many stable simplices share it.
    std::unordered_map<VertexId, VertexId> global_of;
    const auto global_id_memo = [&](VertexId v) {
        const auto it = global_of.find(v);
        if (it != global_of.end()) return it->second;
        const VertexId id = global_id(cx, v);
        global_of.emplace(v, id);
        return id;
    };
    const std::function<void(const Simplex&)> stamp =
        [&](const Simplex& t) { stable_since_.emplace(t, stage); };
    std::vector<VertexId> verts;
    for (const Simplex* s : newly_stable) {
        verts.clear();
        for (VertexId v : s->vertices()) verts.push_back(global_id_memo(v));
        stable_.add_simplex_trusted(Simplex(verts), stamp);
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
