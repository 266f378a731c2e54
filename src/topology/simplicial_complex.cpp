#include "topology/simplicial_complex.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <unordered_map>

namespace gact::topo {

SimplicialComplex SimplicialComplex::from_facets(
    const std::vector<Simplex>& facets) {
    SimplicialComplex c;
    // Facets with at most 4 vertices (all of subdivision output) take a
    // bulk path: every nonempty vertex subset is packed into a 128-bit
    // key (four 32-bit slots holding vertex id + 1, empty slots zero —
    // distinct subsets give distinct keys), the flat key list is sorted
    // and uniqued, and each distinct simplex is inserted exactly once
    // into a set reserved at its final size. Subset enumeration makes
    // the result downward closed by construction, and sorting flat PODs
    // is much cheaper than hash-probing the growing set once per
    // (facet, face) pair as the closure walk would. Larger facets — and
    // ids that would collide with the +1 encoding — fall back to
    // add_simplex, whose walk dedups against the bulk-inserted set.
    using Key = std::pair<std::uint64_t, std::uint64_t>;
    std::vector<Key> keys;
    std::vector<const Simplex*> big;
    std::size_t subset_count = 0;
    for (const Simplex& f : facets) {
        if (f.size() <= 4) subset_count += (std::size_t{1} << f.size()) - 1;
    }
    keys.reserve(subset_count);
    for (const Simplex& f : facets) {
        const std::span<const VertexId> fv = f.vertices();
        const std::size_t n = fv.size();
        bool small = n >= 1 && n <= 4;
        if (small) {
            for (VertexId v : fv) {
                if (v == std::numeric_limits<VertexId>::max()) {
                    small = false;
                    break;
                }
            }
        }
        if (!small) {
            big.push_back(&f);
            continue;
        }
        for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
            std::uint64_t slot[4] = {0, 0, 0, 0};
            std::size_t k = 0;
            for (std::size_t i = 0; i < n; ++i) {
                if (mask & (1u << i)) {
                    slot[k++] = std::uint64_t{fv[i]} + 1;
                }
            }
            keys.emplace_back((slot[0] << 32) | slot[1],
                              (slot[2] << 32) | slot[3]);
        }
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    c.simplices_.reserve(keys.size() + big.size() * 4);
    for (const Key& key : keys) {
        // The slots hold a subset of a sorted facet, in order.
        VertexId verts[4];
        std::size_t n = 0;
        for (std::uint64_t p : {key.first >> 32, key.first & 0xffffffffu,
                                key.second >> 32, key.second & 0xffffffffu}) {
            if (p != 0) verts[n++] = static_cast<VertexId>(p - 1);
        }
        c.insert_one(Simplex::from_sorted({verts, n}));
    }
    for (const Simplex* f : big) c.add_simplex(*f);
    return c;
}

SimplicialComplex SimplicialComplex::from_closed(
    std::vector<Simplex> simplices) {
    SimplicialComplex c;
    c.simplices_.reserve(simplices.size());
    for (Simplex& s : simplices) {
        require(!s.empty(),
                "SimplicialComplex: cannot add the empty simplex");
        c.insert_one(std::move(s));
    }
    return c;
}

std::pair<SimplexSet::iterator, bool> SimplicialComplex::insert_one(
    Simplex&& s) {
    auto result = simplices_.insert(std::move(s));
    if (result.second && result.first->size() == 1) {
        vertices_.push_back(result.first->vertices()[0]);
    }
    return result;
}

void SimplicialComplex::add_simplex(const Simplex& s) {
    require(!s.empty(), "SimplicialComplex: cannot add the empty simplex");
    if (contains(s)) return;
    insert_closure(s);
}

bool SimplicialComplex::attach(const Simplex& s) {
    require(!s.empty(), "SimplicialComplex: cannot add the empty simplex");
    const std::span<const VertexId> sv = s.vertices();
    if (sv.size() > 1) {
        // Probe each boundary face through a scratch buffer: sv with a
        // hole, walked from position 0 to n-1 (as insert_closure does).
        // Simplices of up to kInline + 1 vertices need no allocation.
        constexpr std::size_t kInline = 8;
        std::array<VertexId, kInline> inline_ids{};
        std::vector<VertexId> heap_ids;
        VertexId* scratch = inline_ids.data();
        if (sv.size() - 1 > kInline) {
            heap_ids.resize(sv.size() - 1);
            scratch = heap_ids.data();
        }
        std::copy(sv.begin() + 1, sv.end(), scratch);
        const std::span<const VertexId> face(scratch, sv.size() - 1);
        for (std::size_t i = 0;; ++i) {
            require(simplices_.find(face) != simplices_.end(),
                    "SimplicialComplex::attach: a boundary face is missing");
            if (i + 1 == sv.size()) break;
            scratch[i] = sv[i];
        }
    }
    return insert_one(Simplex(s)).second;
}

void SimplicialComplex::insert_closure(const Simplex& s) {
    // Walk the boundary instead of materializing all 2^n - 1 faces up
    // front: a face that is already present has its own closure present
    // (the set is downward closed by construction), so the walk stops at
    // the boundary of what is genuinely new. Adjacent facets share most
    // of their face lattice, which the all-faces version re-built and
    // re-hashed every time; the missing faces are probed through the
    // transparent hash with a reused scratch buffer, so only simplices
    // actually inserted are built.
    std::vector<Simplex> stack;
    stack.push_back(s);
    std::vector<VertexId> scratch;
    while (!stack.empty()) {
        Simplex top = std::move(stack.back());
        stack.pop_back();
        // The same missing face can be stacked by several of its
        // cofaces before it lands in the set; later copies are no-ops.
        if (contains(top)) continue;
        const std::span<const VertexId> tv = top.vertices();
        if (tv.size() > 1) {
            // scratch = tv with a hole, walked from position 0 to n-1.
            scratch.assign(tv.begin() + 1, tv.end());
            for (std::size_t i = 0;; ++i) {
                if (simplices_.find(std::span<const VertexId>(scratch)) ==
                    simplices_.end()) {
                    stack.push_back(Simplex::from_sorted(scratch));
                }
                if (i + 1 == tv.size()) break;
                scratch[i] = tv[i];
            }
        }
        insert_one(std::move(top));
    }
}

std::vector<Simplex> SimplicialComplex::simplices_of_dimension(int d) const {
    std::vector<Simplex> out;
    for (const Simplex& s : simplices_) {
        if (s.dimension() == d) out.push_back(s);
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<Simplex> SimplicialComplex::facets() const {
    // A simplex is maximal iff no coface obtained by adding one vertex of
    // the complex is present. Checking against all vertices is quadratic in
    // the worst case; mark boundary faces instead: s is a facet iff it is
    // not a boundary face of any simplex of the complex.
    std::vector<Simplex> out;
    std::unordered_set<Simplex> non_maximal;
    for (const Simplex& s : simplices_) {
        for (const Simplex& b : s.boundary_faces()) {
            if (!b.empty()) non_maximal.insert(b);
        }
    }
    for (const Simplex& s : simplices_) {
        if (non_maximal.count(s) == 0) out.push_back(s);
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<VertexId> SimplicialComplex::vertex_ids() const {
    std::vector<VertexId> out = vertices_;
    std::sort(out.begin(), out.end());
    return out;
}

int SimplicialComplex::dimension() const {
    int d = -1;
    for (const Simplex& s : simplices_) d = std::max(d, s.dimension());
    return d;
}

bool SimplicialComplex::is_pure(int n) const {
    if (dimension() > n) return false;
    // Every simplex must be a face of some n-simplex. It suffices to check
    // maximality: every facet has dimension exactly n.
    for (const Simplex& f : facets()) {
        if (f.dimension() != n) return false;
    }
    return true;
}

SimplicialComplex SimplicialComplex::skeleton(int k) const {
    SimplicialComplex out;
    for (const Simplex& s : simplices_) {
        if (s.dimension() <= k) out.insert_one(Simplex(s));
    }
    return out;
}

std::vector<Simplex> SimplicialComplex::open_star(const Simplex& s) const {
    std::vector<Simplex> out;
    for (const Simplex& t : simplices_) {
        if (s.is_face_of(t)) out.push_back(t);
    }
    std::sort(out.begin(), out.end());
    return out;
}

SimplicialComplex SimplicialComplex::closed_star(const Simplex& s) const {
    SimplicialComplex out;
    for (const Simplex& t : open_star(s)) out.add_simplex(t);
    return out;
}

SimplicialComplex SimplicialComplex::link(const Simplex& s) const {
    SimplicialComplex out;
    for (const Simplex& t : simplices_) {
        if (t.intersection_with(s).empty() && contains(t.union_with(s))) {
            out.insert_one(Simplex(t));
        }
    }
    return out;
}

bool SimplicialComplex::is_subcomplex_of(const SimplicialComplex& other) const {
    for (const Simplex& s : simplices_) {
        if (!other.contains(s)) return false;
    }
    return true;
}

long long SimplicialComplex::euler_characteristic() const {
    long long chi = 0;
    for (const Simplex& s : simplices_) {
        chi += (s.dimension() % 2 == 0) ? 1 : -1;
    }
    return chi;
}

std::size_t SimplicialComplex::num_connected_components() const {
    // Union-find over vertices, joined along edges.
    std::vector<VertexId> verts = vertex_ids();
    std::unordered_map<VertexId, std::size_t> index;
    for (std::size_t i = 0; i < verts.size(); ++i) index[verts[i]] = i;

    std::vector<std::size_t> parent(verts.size());
    for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = i;
    const auto find = [&](std::size_t x) {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    };

    for (const Simplex& s : simplices_) {
        if (s.dimension() >= 1) {
            const std::size_t root = find(index.at(s.vertices()[0]));
            for (VertexId v : s.vertices()) parent[find(index.at(v))] = root;
        }
    }

    std::size_t components = 0;
    for (std::size_t i = 0; i < parent.size(); ++i) {
        if (find(i) == i) ++components;
    }
    return components;
}

}  // namespace gact::topo
