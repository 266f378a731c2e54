// The stable simplices of K(T), indexed for landing tests.
//
// Both users of a terminating subdivision's K(T) at run time ask the same
// question: which stable simplex tau contains a set of exact points
// (|sigma_k| ⊆ |tau|)? Admissibility (Theorem 6.1 (a)) asks it per run
// and round, the view-local landing rule (protocol/gact_protocol.h) per
// view. The index answers both from one immutable table: every stable
// simplex with its base carrier, its stabilization stage and the exact
// per-coordinate bounding box of its vertex positions, grouped by
// dimension and sorted within each group. A closed simplex lies inside
// its vertices' box, so a candidate whose box misses a point is rejected
// without the exact test; topo::point_in_simplex still decides every
// candidate the box admits.
//
// The index is built once by its caller and never changes, so concurrent
// readers (fuzz shards sharing one decision rule) need no locks. It keeps
// a reference to the subdivision, which must outlive it.
#pragma once

#include <vector>

#include "core/terminating_subdivision.h"
#include "util/process_set.h"

namespace gact::core {

class LandingIndex {
public:
    /// One stable simplex of K(T).
    struct Entry {
        Simplex simplex;               ///< global vertex ids
        gact::ProcessSet carrier;      ///< base carrier, as base vertex ids
        std::size_t stable_since = 0;  ///< TerminatingSubdivision::stable_since
    };

    explicit LandingIndex(const TerminatingSubdivision& tsub);

    /// The first stable simplex, in sorted order, of dimension |face| - 1
    /// whose carrier is a face of `face` and whose realization contains
    /// every point; nullptr if none does. (The landing test of
    /// find_landing: `face` is the participation face of the run.)
    const Entry* landing_simplex(
        gact::ProcessSet face, const std::vector<BaryPoint>& points) const;

    /// The minimal stable simplex whose realization contains every point
    /// (dimensions ascending, sorted within a dimension); nullptr if none
    /// does. (The snapshot-hull carrier of the view-local landing rule.)
    const Entry* carrier_simplex(const std::vector<BaryPoint>& points) const;

    const TerminatingSubdivision& subdivision() const noexcept {
        return *tsub_;
    }

private:
    /// The exact bounding box and the carrier of a point set, in the same
    /// dense base-coordinate layout as the entry boxes.
    struct PointBox {
        std::vector<Rational> lo, hi;
        gact::ProcessSet support;
        bool in_base = true;  ///< false: a coordinate outside the base
    };

    PointBox box_of(const std::vector<BaryPoint>& points) const;

    /// Box filter, then the exact containment test.
    bool contains(std::size_t entry, const PointBox& box,
                  const std::vector<BaryPoint>& points) const;

    const TerminatingSubdivision* tsub_;
    std::vector<Entry> entries_;  // sorted by (dimension, simplex)
    // Entries of dimension d are [dim_begin_[d], dim_begin_[d + 1]).
    std::vector<std::size_t> dim_begin_;
    // Base coordinates per box; entry i's box is lo = bounds_[2iw .. 2iw+w),
    // hi = bounds_[2iw+w .. 2iw+2w) with w = width_.
    std::size_t width_ = 0;
    std::vector<Rational> bounds_;
};

}  // namespace gact::core
