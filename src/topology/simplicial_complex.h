// Simplicial complexes (paper, Section 3.1).
//
// A complex is stored as the downward-closed set of its simplices. All the
// combinatorial notions of Section 3.1 are provided: faces, skeleta, purity,
// open and closed stars, links, and connectivity of the 1-skeleton.
#pragma once

#include <algorithm>
#include <span>
#include <unordered_set>
#include <vector>

#include "topology/simplex.h"

namespace gact::topo {

/// Transparent hash/equality for sets of simplices: lets callers probe
/// with a sorted vertex span (a scratch buffer, say) instead of building
/// a Simplex first. The span hash equals std::hash<Simplex>.
struct SimplexSetHash {
    using is_transparent = void;
    std::size_t operator()(const Simplex& s) const noexcept {
        return gact::hash_range(s.vertices());
    }
    std::size_t operator()(std::span<const VertexId> v) const noexcept {
        return gact::hash_range(v);
    }
};
struct SimplexSetEq {
    using is_transparent = void;
    bool operator()(const Simplex& a, const Simplex& b) const noexcept {
        return a == b;
    }
    bool operator()(std::span<const VertexId> a, const Simplex& b) const
        noexcept {
        return std::ranges::equal(a, b.vertices());
    }
    bool operator()(const Simplex& a, std::span<const VertexId> b) const
        noexcept {
        return std::ranges::equal(a.vertices(), b);
    }
};
using SimplexSet = std::unordered_set<Simplex, SimplexSetHash, SimplexSetEq>;

/// A finite simplicial complex over vertex ids.
class SimplicialComplex {
public:
    SimplicialComplex() = default;

    /// Build the downward closure of the given facets.
    static SimplicialComplex from_facets(const std::vector<Simplex>& facets);

    /// Build from a simplex list that is already closed under faces
    /// (every face of every entry appears in the list). Skips the
    /// per-simplex closure walk of add_simplex — the caller vouches for
    /// closedness, e.g. because the list is the image of a closed set
    /// under a vertex map.
    static SimplicialComplex from_closed(std::vector<Simplex> simplices);

    /// Insert a simplex together with all its faces.
    void add_simplex(const Simplex& s);

    /// Insert a simplex whose boundary faces are all present already:
    /// one hash insert, no closure walk. For builders that insert a
    /// face-closed list faces first (Simplex::faces() lists every face
    /// before its cofaces). Throws precondition_error when a boundary
    /// face is missing; returns false when `s` was present.
    bool attach(const Simplex& s);

    bool contains(const Simplex& s) const { return simplices_.count(s) != 0; }
    bool contains_vertex(VertexId v) const { return contains(Simplex{v}); }

    bool is_empty() const noexcept { return simplices_.empty(); }

    /// Number of simplices (all dimensions).
    std::size_t size() const noexcept { return simplices_.size(); }

    /// All simplices, unordered.
    const SimplexSet& simplices() const noexcept { return simplices_; }

    /// All simplices of dimension d, sorted for determinism.
    std::vector<Simplex> simplices_of_dimension(int d) const;

    /// The maximal simplices, sorted for determinism.
    std::vector<Simplex> facets() const;

    /// Vertex ids present in the complex, sorted. Reads the vertex list
    /// kept as simplices are inserted; no walk over the simplices.
    std::vector<VertexId> vertex_ids() const;

    /// Largest simplex dimension; -1 for the empty complex.
    int dimension() const;

    /// Is every simplex a face of a simplex of dimension n (and none larger)?
    /// (Paper: "pure of dimension n".)
    bool is_pure(int n) const;

    /// Pure of its own (maximal) dimension.
    bool is_pure() const { return is_empty() || is_pure(dimension()); }

    /// Subcomplex of simplices of dimension <= k ("k-skeleton").
    SimplicialComplex skeleton(int k) const;

    /// Open star of s: all simplices having s as a face. Not a complex.
    std::vector<Simplex> open_star(const Simplex& s) const;

    /// Closed star: smallest subcomplex containing the open star.
    SimplicialComplex closed_star(const Simplex& s) const;

    /// Link of s: closed_star(s) minus open_star(s); equivalently the
    /// simplices t disjoint from s with t ∪ s in the complex.
    SimplicialComplex link(const Simplex& s) const;

    bool is_subcomplex_of(const SimplicialComplex& other) const;

    /// Euler characteristic: sum over d of (-1)^d (#d-simplices).
    long long euler_characteristic() const;

    /// Connected components of the 1-skeleton (isolated vertices count).
    std::size_t num_connected_components() const;

    /// True iff non-empty and a single connected component.
    bool is_connected() const {
        return !is_empty() && num_connected_components() == 1;
    }

    friend bool operator==(const SimplicialComplex& a,
                           const SimplicialComplex& b) {
        return a.simplices_ == b.simplices_;
    }

private:
    /// Insert `s` (known absent) and whatever part of its face closure
    /// is missing.
    void insert_closure(const Simplex& s);

    /// Insert `s` if absent, recording a new 0-simplex in vertices_.
    /// Returns the element and whether it was inserted.
    std::pair<SimplexSet::iterator, bool> insert_one(Simplex&& s);

    SimplexSet simplices_;
    /// The ids of the 0-simplices, in insertion order: every insertion
    /// path appends here, so vertex_ids() never walks simplices_ (the
    /// complexes are read concurrently, so this is not a lazy cache).
    std::vector<VertexId> vertices_;
};

}  // namespace gact::topo
