#include "topology/simplicial_map.h"

#include <map>

namespace gact::topo {

VertexId SimplicialMap::apply(VertexId v) const {
    const auto it = vertex_map_.find(v);
    require(it != vertex_map_.end(), "SimplicialMap: vertex not in domain");
    return it->second;
}

Simplex SimplicialMap::apply(const Simplex& s) const {
    std::vector<VertexId> image;
    image.reserve(s.size());
    for (VertexId v : s.vertices()) image.push_back(apply(v));
    return Simplex(image);
}

BaryPoint SimplicialMap::apply(const BaryPoint& p) const {
    std::map<VertexId, Rational> acc;
    for (const auto& [v, w] : p.coords()) acc[apply(v)] += w;
    std::vector<std::pair<VertexId, Rational>> coords(acc.begin(), acc.end());
    return BaryPoint(std::move(coords));
}

SimplicialMap SimplicialMap::then(const SimplicialMap& g) const {
    std::unordered_map<VertexId, VertexId> composed;
    composed.reserve(vertex_map_.size());
    for (const auto& [v, image] : vertex_map_) composed[v] = g.apply(image);
    return SimplicialMap(std::move(composed));
}

bool SimplicialMap::is_simplicial(const SimplicialComplex& domain,
                                  const SimplicialComplex& codomain) const {
    for (VertexId v : domain.vertex_ids()) {
        if (!is_defined_at(v)) return false;
        if (!codomain.contains_vertex(apply(v))) return false;
    }
    // It suffices to check facets: images of faces are faces of images.
    for (const Simplex& f : domain.facets()) {
        if (!codomain.contains(apply(f))) return false;
    }
    return true;
}

bool SimplicialMap::is_noncollapsing(const SimplicialComplex& domain) const {
    for (const Simplex& f : domain.facets()) {
        if (apply(f).dimension() != f.dimension()) return false;
    }
    return true;
}

bool SimplicialMap::is_chromatic(const ChromaticComplex& domain,
                                 const ChromaticComplex& codomain) const {
    for (VertexId v : domain.vertex_ids()) {
        if (!is_defined_at(v)) return false;
        if (domain.color(v) != codomain.color(apply(v))) return false;
    }
    return true;
}

}  // namespace gact::topo
