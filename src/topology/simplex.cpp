#include "topology/simplex.h"

#include <ostream>

namespace gact::topo {

static_assert(sizeof(Simplex) <= 24,
              "Simplex should stay no larger than a std::vector");

Simplex::Simplex(std::initializer_list<VertexId> vertices)
    : Simplex(std::span<const VertexId>(vertices.begin(), vertices.size())) {}

Simplex::Simplex(std::span<const VertexId> vertices) {
    VertexId* out = reset(vertices.size());
    std::copy(vertices.begin(), vertices.end(), out);
    std::sort(out, out + size_);
    truncate(static_cast<std::size_t>(std::unique(out, out + size_) - out));
}

void Simplex::truncate(std::size_t n) noexcept {
    if (on_heap() && n <= kInline) {
        VertexId* heap = heap_;
        std::copy_n(heap, n, inline_);
        delete[] heap;
    }
    size_ = static_cast<std::uint32_t>(n);
}

bool Simplex::contains(VertexId v) const noexcept {
    const auto vs = vertices();
    return std::binary_search(vs.begin(), vs.end(), v);
}

bool Simplex::is_face_of(const Simplex& other) const noexcept {
    const auto mine = vertices();
    const auto theirs = other.vertices();
    return std::includes(theirs.begin(), theirs.end(), mine.begin(),
                         mine.end());
}

Simplex Simplex::union_with(const Simplex& other) const {
    const auto a = vertices();
    const auto b = other.vertices();
    Simplex s;
    VertexId* out = s.reset(a.size() + b.size());
    VertexId* end =
        std::set_union(a.begin(), a.end(), b.begin(), b.end(), out);
    s.truncate(static_cast<std::size_t>(end - out));
    return s;
}

Simplex Simplex::intersection_with(const Simplex& other) const {
    const auto a = vertices();
    const auto b = other.vertices();
    Simplex s;
    VertexId* out = s.reset(std::min(a.size(), b.size()));
    VertexId* end =
        std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), out);
    s.truncate(static_cast<std::size_t>(end - out));
    return s;
}

Simplex Simplex::difference(const Simplex& other) const {
    const auto a = vertices();
    const auto b = other.vertices();
    Simplex s;
    VertexId* out = s.reset(a.size());
    VertexId* end =
        std::set_difference(a.begin(), a.end(), b.begin(), b.end(), out);
    s.truncate(static_cast<std::size_t>(end - out));
    return s;
}

Simplex Simplex::with(VertexId v) const {
    if (contains(v)) return *this;
    const auto a = vertices();
    const auto pos = std::upper_bound(a.begin(), a.end(), v);
    Simplex s;
    VertexId* out = s.reset(a.size() + 1);
    out = std::copy(a.begin(), pos, out);
    *out++ = v;
    std::copy(pos, a.end(), out);
    return s;
}

Simplex Simplex::without(VertexId v) const {
    const auto a = vertices();
    Simplex s;
    VertexId* out = s.reset(a.size());
    VertexId* end = std::remove_copy(a.begin(), a.end(), out, v);
    s.truncate(static_cast<std::size_t>(end - out));
    return s;
}

std::vector<Simplex> Simplex::faces() const {
    std::vector<Simplex> out;
    const std::size_t n = size_;
    require(n <= 24, "Simplex::faces: simplex too large to enumerate faces");
    const std::size_t total = (std::size_t{1} << n) - 1;
    out.reserve(total);
    const VertexId* v = data();
    VertexId face[24];
    for (std::size_t mask = 1; mask <= total; ++mask) {
        std::size_t k = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (mask & (std::size_t{1} << i)) face[k++] = v[i];
        }
        out.push_back(sorted_copy({face, k}));
    }
    return out;
}

std::vector<Simplex> Simplex::faces_of_dimension(int d) const {
    std::vector<Simplex> out;
    if (d < 0 || d > dimension()) return out;
    // Enumerate (d+1)-subsets with the standard combination walk.
    const std::size_t k = static_cast<std::size_t>(d) + 1;
    const std::size_t n = size_;
    const VertexId* v = data();
    std::vector<std::size_t> idx(k);
    std::vector<VertexId> face(k);
    for (std::size_t i = 0; i < k; ++i) idx[i] = i;
    while (true) {
        for (std::size_t i = 0; i < k; ++i) face[i] = v[idx[i]];
        out.push_back(sorted_copy(face));
        // Advance the combination.
        std::size_t i = k;
        while (i > 0 && idx[i - 1] == n - k + i - 1) --i;
        if (i == 0) break;
        ++idx[i - 1];
        for (std::size_t j = i; j < k; ++j) idx[j] = idx[j - 1] + 1;
    }
    return out;
}

std::vector<Simplex> Simplex::boundary_faces() const {
    std::vector<Simplex> out;
    const std::size_t n = size_;
    out.reserve(n);
    const VertexId* v = data();
    for (std::size_t i = 0; i < n; ++i) {
        Simplex face;
        VertexId* f = face.reset(n - 1);
        f = std::copy(v, v + i, f);
        std::copy(v + i + 1, v + n, f);
        out.push_back(std::move(face));
    }
    return out;
}

std::string Simplex::to_string() const {
    std::string out = "[";
    const auto vs = vertices();
    for (std::size_t i = 0; i < vs.size(); ++i) {
        if (i > 0) out += " ";
        out += std::to_string(vs[i]);
    }
    out += "]";
    return out;
}

std::ostream& operator<<(std::ostream& os, const Simplex& s) {
    return os << s.to_string();
}

}  // namespace gact::topo
