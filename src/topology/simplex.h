// Abstract simplices: finite, sorted, duplicate-free vertex sets.
//
// Paper reference: Section 3.1. A simplex is a finite nonempty subset of
// the vertex set of a complex; its dimension is its cardinality minus one.
// This type also admits the empty simplex, which is convenient as a
// neutral element for joins and as the "carrier of nothing".
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "util/hash.h"
#include "util/require.h"

namespace gact::topo {

/// Vertex identifier within one simplicial complex.
using VertexId = std::uint32_t;

/// A simplex as a sorted set of vertex ids: a value type holding up to
/// four vertices in place and larger simplices in an exactly sized heap
/// array. Every complex this library builds for a registry task
/// (at most four processes) has simplices of at most four vertices, so
/// copying, hashing and destroying them never touches the allocator.
class Simplex {
public:
    /// The empty simplex (dimension -1).
    Simplex() noexcept = default;

    /// From an arbitrary list; sorted and deduplicated.
    Simplex(std::initializer_list<VertexId> vertices);
    explicit Simplex(std::span<const VertexId> vertices);

    /// From ids that are already strictly increasing (checked): skips
    /// the sort and deduplication of the general constructor.
    static Simplex from_sorted(std::span<const VertexId> vertices) {
        require(std::adjacent_find(vertices.begin(), vertices.end(),
                                   std::greater_equal<>{}) == vertices.end(),
                "Simplex::from_sorted: ids are not strictly increasing");
        return sorted_copy(vertices);
    }

    Simplex(const Simplex& other);
    Simplex(Simplex&& other) noexcept;
    Simplex& operator=(const Simplex& other);
    Simplex& operator=(Simplex&& other) noexcept;
    ~Simplex() { release(); }

    /// Number of vertices.
    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }

    /// Dimension = |vertices| - 1; the empty simplex has dimension -1.
    int dimension() const noexcept { return static_cast<int>(size_) - 1; }

    std::span<const VertexId> vertices() const noexcept {
        return {data(), size_};
    }

    bool contains(VertexId v) const noexcept;

    /// Face relation: is this a subset of `other`?
    bool is_face_of(const Simplex& other) const noexcept;

    /// Set operations (all results are valid simplices).
    Simplex union_with(const Simplex& other) const;
    Simplex intersection_with(const Simplex& other) const;
    /// this \ other.
    Simplex difference(const Simplex& other) const;

    Simplex with(VertexId v) const;
    Simplex without(VertexId v) const;

    /// All faces of this simplex, including itself, excluding the empty
    /// simplex. 2^size - 1 results.
    std::vector<Simplex> faces() const;

    /// All faces of exactly dimension d.
    std::vector<Simplex> faces_of_dimension(int d) const;

    /// The codimension-1 faces (boundary facets), in the order obtained by
    /// dropping vertex i; this order defines boundary-operator signs.
    std::vector<Simplex> boundary_faces() const;

    friend bool operator==(const Simplex& a, const Simplex& b) noexcept {
        return a.size_ == b.size_ &&
               std::equal(a.data(), a.data() + a.size_, b.data());
    }
    /// Lexicographic on the sorted vertex sequences.
    friend bool operator<(const Simplex& a, const Simplex& b) noexcept {
        return std::lexicographical_compare(a.data(), a.data() + a.size_,
                                            b.data(), b.data() + b.size_);
    }

    std::string to_string() const;

private:
    /// Vertices stored in place; larger simplices go to the heap.
    static constexpr std::size_t kInline = 4;

    bool on_heap() const noexcept { return size_ > kInline; }
    const VertexId* data() const noexcept {
        return on_heap() ? heap_ : inline_;
    }
    /// from_sorted without the check, for ids known to be sorted.
    static Simplex sorted_copy(std::span<const VertexId> vertices) {
        Simplex s;
        std::copy(vertices.begin(), vertices.end(), s.reset(vertices.size()));
        return s;
    }
    /// Free any heap array, then make room for n vertices (size n) and
    /// return where to write them.
    VertexId* reset(std::size_t n) {
        release();
        size_ = 0;
        if (n > kInline) heap_ = new VertexId[n];
        size_ = static_cast<std::uint32_t>(n);
        return on_heap() ? heap_ : inline_;
    }
    /// Drop to the first n vertices, moving back in place when n fits.
    void truncate(std::size_t n) noexcept;
    void release() noexcept {
        if (on_heap()) delete[] heap_;
    }

    // The active member is selected by size_: heap_ iff size_ > kInline.
    union {
        VertexId inline_[kInline] = {};
        VertexId* heap_;
    };
    std::uint32_t size_ = 0;
};

inline Simplex::Simplex(const Simplex& other) : size_(other.size_) {
    if (other.on_heap()) {
        heap_ = new VertexId[size_];
        std::copy_n(other.heap_, size_, heap_);
    } else {
        std::memcpy(inline_, other.inline_, sizeof inline_);
    }
}

inline Simplex::Simplex(Simplex&& other) noexcept : size_(other.size_) {
    if (other.on_heap()) {
        heap_ = other.heap_;
        other.size_ = 0;
    } else {
        std::memcpy(inline_, other.inline_, sizeof inline_);
    }
}

inline Simplex& Simplex::operator=(const Simplex& other) {
    if (this == &other) return *this;
    if (other.on_heap()) {
        std::copy_n(other.heap_, other.size_, reset(other.size_));
    } else {
        release();
        std::memcpy(inline_, other.inline_, sizeof inline_);
        size_ = other.size_;
    }
    return *this;
}

inline Simplex& Simplex::operator=(Simplex&& other) noexcept {
    if (this == &other) return *this;
    release();
    size_ = other.size_;
    if (other.on_heap()) {
        heap_ = other.heap_;
        other.size_ = 0;
    } else {
        std::memcpy(inline_, other.inline_, sizeof inline_);
    }
    return *this;
}

std::ostream& operator<<(std::ostream& os, const Simplex& s);

}  // namespace gact::topo

template <>
struct std::hash<gact::topo::Simplex> {
    std::size_t operator()(const gact::topo::Simplex& s) const noexcept {
        return gact::hash_range(s.vertices());
    }
};
