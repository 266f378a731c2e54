// Chromatic complexes (paper, Section 3.2).
//
// A chromatic complex is a simplicial complex C together with a
// noncollapsing simplicial map chi : C -> s into the standard n-simplex;
// concretely, a color in {0, .., n} per vertex such that the vertices of
// every simplex carry pairwise distinct colors.
#pragma once

#include <unordered_map>
#include <vector>

#include "topology/simplicial_complex.h"
#include "util/process_set.h"

namespace gact::topo {

/// Colors are process identifiers.
using Color = gact::ProcessId;

/// A simplicial complex with a proper vertex coloring.
class ChromaticComplex {
public:
    ChromaticComplex() = default;

    /// Wrap a complex with a coloring. Validates that every simplex has
    /// pairwise distinct colors and every vertex is colored.
    ChromaticComplex(SimplicialComplex complex,
                     std::unordered_map<VertexId, Color> colors);

    /// Wrap without validating. Strictly for internal builders whose
    /// output is chromatic by construction (the chromatic subdivision,
    /// the stable-complex accumulator): on the multi-million-simplex
    /// complexes they produce, even the edge-only validation walk is a
    /// measurable fraction of the build.
    static ChromaticComplex trusted(SimplicialComplex complex,
                                    std::unordered_map<VertexId, Color> colors);

    /// Trusted insertion for accumulating builders (the stable-complex
    /// accumulator): color v, then attach simplices faces first (see
    /// SimplicialComplex::attach), without validating the coloring. The
    /// caller vouches for a proper coloring.
    void color_vertex_trusted(VertexId v, Color c) { colors_[v] = c; }
    bool attach_trusted(const Simplex& s) { return complex_.attach(s); }

    /// The standard n-simplex s: vertices 0..n, vertex i colored i, with
    /// all faces present (paper, Section 3.2).
    static ChromaticComplex standard_simplex(int n);

    const SimplicialComplex& complex() const noexcept { return complex_; }

    Color color(VertexId v) const;

    /// chi(sigma): the set of colors of sigma's vertices.
    ProcessSet colors_of(const Simplex& s) const;

    /// chi(C): union of all vertex colors.
    ProcessSet all_colors() const;

    /// The vertex of `s` carrying color c; requires such a vertex to exist.
    VertexId vertex_with_color(const Simplex& s, Color c) const;

    /// Restriction to a subcomplex (colors inherited).
    ChromaticComplex restrict_to(const SimplicialComplex& sub) const;

    /// The link of s, as a chromatic complex (inherits colors).
    ChromaticComplex link(const Simplex& s) const {
        return restrict_to(complex_.link(s));
    }

    /// The k-skeleton, as a chromatic complex.
    ChromaticComplex skeleton(int k) const {
        return restrict_to(complex_.skeleton(k));
    }

    // Convenience passthroughs.
    bool contains(const Simplex& s) const { return complex_.contains(s); }
    bool contains_vertex(VertexId v) const { return complex_.contains_vertex(v); }
    int dimension() const { return complex_.dimension(); }
    bool is_pure(int n) const { return complex_.is_pure(n); }
    std::vector<Simplex> facets() const { return complex_.facets(); }
    std::vector<VertexId> vertex_ids() const { return complex_.vertex_ids(); }
    bool is_empty() const { return complex_.is_empty(); }

    friend bool operator==(const ChromaticComplex& a, const ChromaticComplex& b) {
        if (!(a.complex_ == b.complex_)) return false;
        for (VertexId v : a.complex_.vertex_ids()) {
            if (a.color(v) != b.color(v)) return false;
        }
        return true;
    }

private:
    SimplicialComplex complex_;
    std::unordered_map<VertexId, Color> colors_;
};

/// Check Definition 8.3 prerequisites: is the coloring proper on every
/// simplex of `complex`?
bool is_properly_colored(const SimplicialComplex& complex,
                         const std::unordered_map<VertexId, Color>& colors);

}  // namespace gact::topo
