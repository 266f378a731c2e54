#include "core/landing_index.h"

#include <algorithm>

#include "util/require.h"

namespace gact::core {

LandingIndex::LandingIndex(const TerminatingSubdivision& tsub)
    : tsub_(&tsub) {
    const std::vector<VertexId> base_vertices = tsub.base().vertex_ids();
    width_ = base_vertices.empty() ? 0 : base_vertices.back() + 1;
    require(width_ <= gact::kMaxProcesses,
            "LandingIndex: base vertex ids must fit a ProcessSet");

    // Each stage's record holds its simplices with their stage, so the
    // entries need no stable_since lookup.
    const auto& complex = tsub.stable_complex().complex();
    entries_.reserve(complex.size());
    for (std::size_t k = 0; k < tsub.stages(); ++k) {
        for (const Simplex& s : tsub.stage_record(k)) {
            entries_.push_back(Entry{s, {}, k});
        }
    }
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) {
                  if (a.simplex.size() != b.simplex.size()) {
                      return a.simplex.size() < b.simplex.size();
                  }
                  return a.simplex < b.simplex;
              });

    const std::size_t dims =
        static_cast<std::size_t>(std::max(complex.dimension(), -1) + 1);
    dim_begin_.assign(dims + 1, entries_.size());
    bounds_.resize(entries_.size() * 2 * width_);
    for (std::size_t i = entries_.size(); i-- > 0;) {
        Entry& e = entries_[i];
        dim_begin_[static_cast<std::size_t>(e.simplex.dimension())] = i;
        Rational* lo = &bounds_[2 * i * width_];
        Rational* hi = lo + width_;
        bool first = true;
        for (VertexId v : e.simplex.vertices()) {
            const BaryPoint& pos = tsub.stable_position(v);
            for (std::size_t c = 0; c < width_; ++c) {
                const Rational x = pos.coord(static_cast<VertexId>(c));
                lo[c] = first ? x : std::min(lo[c], x);
                hi[c] = first ? x : std::max(hi[c], x);
            }
            for (const auto& [b, w] : pos.coords()) {
                e.carrier = e.carrier.with(static_cast<ProcessId>(b));
            }
            first = false;
        }
    }
    // A dimension with no entries starts where the next one does.
    for (std::size_t d = dims; d-- > 0;) {
        dim_begin_[d] = std::min(dim_begin_[d], dim_begin_[d + 1]);
    }
}

LandingIndex::PointBox LandingIndex::box_of(
    const std::vector<BaryPoint>& points) const {
    PointBox box;
    box.lo.assign(width_, Rational(1));
    box.hi.assign(width_, Rational(0));
    for (const BaryPoint& p : points) {
        // Coordinates are sparse and sorted by base vertex; absent ones
        // are zero.
        std::size_t c = 0;
        for (const auto& [b, w] : p.coords()) {
            if (b >= width_) {
                box.in_base = false;
                return box;
            }
            for (; c < b; ++c) box.lo[c] = Rational(0);
            box.lo[c] = std::min(box.lo[c], w);
            box.hi[c] = std::max(box.hi[c], w);
            box.support = box.support.with(static_cast<ProcessId>(b));
            ++c;
        }
        for (; c < width_; ++c) box.lo[c] = Rational(0);
    }
    return box;
}

bool LandingIndex::contains(std::size_t entry, const PointBox& box,
                            const std::vector<BaryPoint>& points) const {
    const Rational* lo = &bounds_[2 * entry * width_];
    const Rational* hi = lo + width_;
    for (std::size_t c = 0; c < width_; ++c) {
        if (box.lo[c] < lo[c] || hi[c] < box.hi[c]) return false;
    }
    return tsub_->stable_simplex_contains(entries_[entry].simplex, points);
}

const LandingIndex::Entry* LandingIndex::landing_simplex(
    gact::ProcessSet face, const std::vector<BaryPoint>& points) const {
    // The candidates are the entries of dimension |face| - 1.
    const std::size_t n = face.size();
    if (n == 0 || n >= dim_begin_.size()) return nullptr;
    const PointBox box = box_of(points);
    if (!box.in_base) return nullptr;
    for (std::size_t i = dim_begin_[n - 1]; i < dim_begin_[n]; ++i) {
        if (!face.contains_all(entries_[i].carrier)) continue;
        if (contains(i, box, points)) return &entries_[i];
    }
    return nullptr;
}

const LandingIndex::Entry* LandingIndex::carrier_simplex(
    const std::vector<BaryPoint>& points) const {
    const PointBox box = box_of(points);
    if (!box.in_base) return nullptr;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (!entries_[i].carrier.contains_all(box.support)) continue;
        if (contains(i, box, points)) return &entries_[i];
    }
    return nullptr;
}

}  // namespace gact::core
