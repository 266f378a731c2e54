// Terminating subdivisions (paper, Section 6.1).
//
// A terminating subdivision T of a chromatic complex C is a sequence of
// complexes C_0 = C, C_1, C_2, ... together with subcomplexes
// Sigma_0 ⊆ Sigma_1 ⊆ ... of "stable" simplices: C_{k+1} is the partial
// chromatic subdivision of C_k in which the simplices of Sigma_k are
// terminated (not subdivided further). Stable simplices persist verbatim
// in all later stages. The union K(T) of all stable simplices is a
// chromatic complex whose realization sits inside |C|.
//
// Stage complexes have per-stage vertex ids; K(T) is accumulated in a
// global registry keyed by (color, exact position), so a stable vertex is
// the same K(T) vertex no matter at which stage it stabilized. Since
// Sigma_{k-1} persists into Sigma_k, K(T) after stage k is Sigma_k in
// global ids: the stage's stable set is read from K(T) through a
// stage-vertex -> global-id table, not held a second time.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "topology/subdivision.h"

namespace gact::core {

using topo::BaryPoint;
using topo::ChromaticComplex;
using topo::Color;
using topo::Simplex;
using topo::SimplicialComplex;
using topo::SubdividedComplex;
using topo::VertexId;

/// A terminating subdivision, materialized one stage at a time: only the
/// newest stage complex and its stable set are held, and K(T) collects
/// every stable simplex in global ids.
class TerminatingSubdivision {
public:
    /// An empty placeholder; assign a real subdivision before use.
    TerminatingSubdivision() = default;

    explicit TerminatingSubdivision(const ChromaticComplex& base);

    /// Stage k = stages(): build C_k, then mark as stable every *not yet
    /// stable* simplex of C_k selected by `stabilize` and record Sigma_k
    /// into K(T). C_0 is the base; C_k for k > 0 is the partial
    /// chromatic subdivision of C_{k-1} terminating Sigma_{k-1}, so every
    /// stage complex built is scanned in the same call.
    ///
    /// `stabilize` must be a function of the stage complex and the
    /// simplex, and closed under faces together with the already-stable
    /// simplices: every face of a selected simplex is stable or selected.
    /// The record relies on it and enforces it: a selected simplex with
    /// a face that is neither throws precondition_error, after which the
    /// subdivision must not be used.
    ///
    /// `num_threads > 1` shards the stage into per-facet work units on a
    /// self-scheduling pool: the subdivision build (see
    /// SubdividedComplex::chromatic_subdivision_with_termination) and the
    /// stabilization scan run in parallel, with results merged in facet
    /// order — the stage produced is bit-identical to the single-threaded
    /// one. `stabilize` must then be a pure predicate safe for concurrent
    /// calls (every StableRule is).
    void advance(const std::function<bool(const SubdividedComplex&,
                                          const Simplex&)>& stabilize,
                 unsigned num_threads = 1);

    /// Number of advance() calls, which is the number of stage complexes
    /// built (C_0 .. C_{stages()-1}); 0 before the first advance().
    std::size_t stages() const noexcept { return stages_; }

    /// The stage complex C_k whose Sigma_k the last advance() recorded.
    /// Only the newest stage, k = stages() - 1, is kept: the next
    /// advance() releases it once C_{k+1} is built (K(T) keeps everything
    /// later consumers read about older stages).
    const SubdividedComplex& complex_at(std::size_t k) const;

    /// K(T) so far: the union of stable simplices, in global vertex ids.
    const ChromaticComplex& stable_complex() const noexcept {
        return stable_;
    }

    /// Position in |base| of a global stable vertex.
    const BaryPoint& stable_position(VertexId global_vertex) const;

    /// Carrier in the base complex of a global stable simplex.
    Simplex stable_carrier(const Simplex& global_simplex) const;

    /// The global id for a stable vertex given color and exact position;
    /// nullopt if no such stable vertex exists yet.
    std::optional<VertexId> find_stable_vertex(const BaryPoint& position,
                                               Color color) const;

    /// The stage at which a global stable simplex was terminated (its
    /// first appearance in some Sigma_k). A protocol may only output on a
    /// stable simplex from this many rounds on: stable simplices stand for
    /// "outputs produced after stage-many IS layers" (Section 6.1), and
    /// firing earlier breaks Definition 4.1 (2) in runs that share the
    /// early views but land elsewhere. The first read after an advance()
    /// builds the lookup from stage_record(); concurrent reads are safe.
    std::size_t stable_since(const Simplex& global_simplex) const;

    /// The simplices that stage k added to K(T) (Sigma_k minus
    /// Sigma_{k-1}, so stable_since is k for each), in K(T)'s insertion
    /// order: faces before their cofaces.
    const std::vector<Simplex>& stage_record(std::size_t k) const;

    /// The stable facets (maximal stable simplices) of K(T) so far.
    std::vector<Simplex> stable_facets() const {
        return stable_complex().complex().facets();
    }

    /// Is the realization of the global stable simplex `tau` a superset of
    /// the geometric simplex spanned by `points`? (The landing condition
    /// |sigma_k| ⊆ |tau| of Section 6.2, input-less case.)
    bool stable_simplex_contains(const Simplex& tau,
                                 const std::vector<BaryPoint>& points) const;

    const ChromaticComplex& base() const noexcept { return base_; }

private:
    /// The global id of a vertex of newest_, interning it into the
    /// global registry if it has none yet.
    VertexId global_id(VertexId v);

    /// Is the simplex t of newest_ in Sigma_{stages()-1}: does every
    /// vertex have a global id, and is the mapped simplex in K(T)? Reads
    /// only, so the scan and the subdivision build call it concurrently.
    bool is_stable(const Simplex& t) const;

    /// The facets of a stage complex through each of its vertices.
    struct StarIndex;

    /// Carry the global ids from newest_ = C_{k-1} to `next` = C_k and
    /// check that Sigma_{k-1} persists in C_k; `star` indexes `next`.
    std::vector<VertexId> carry_into(const SubdividedComplex& next,
                                     const StarIndex& star) const;

    ChromaticComplex base_;
    // Members are destroyed in reverse order: K(T)'s below go first, then
    // newest_. Free order once mattered here: when a stage-id copy of
    // Sigma_k was freed after newest_, glibc's per-thread arenas were
    // left so fragmented that the next subdivision's first advance()
    // took ~0.5 s instead of ~1 ms (lt-3-2-res2, 4 shard threads). In
    // this order it reads under 0.1 ms at 1 and at 4 shard threads.
    SubdividedComplex newest_;  // C_{stages()-1}
    // Global id of each vertex of newest_ (kNoGlobal if not in K(T)):
    // Sigma_{stages()-1} is the set of newest_'s simplices that map into
    // K(T) through it.
    std::vector<VertexId> global_of_;
    std::size_t stages_ = 0;

    // Global stable complex and geometry. advance() inserts straight into
    // stable_ (trusted: global simplices are color-preserving images of
    // properly colored stage simplices), so K(T) is held once.
    ChromaticComplex stable_;
    std::map<std::pair<BaryPoint, Color>, VertexId> global_index_;
    std::vector<BaryPoint> global_position_;
    // Each stage's record (stage_record): together they hold K(T)'s
    // simplices once each, in insertion order.
    std::vector<std::vector<Simplex>> stage_record_;
    // stable_since's lookup, filled from stage_record_ on its first read;
    // advance() starts a new one, and copies share it until then.
    struct SinceLookup;
    std::shared_ptr<SinceLookup> since_;
};

}  // namespace gact::core
