// Hash combining helpers shared across the library.
#pragma once

#include <cstddef>
#include <functional>
#include <ranges>

namespace gact {

/// Combine a hash value into a seed (boost::hash_combine recipe).
inline void hash_combine(std::size_t& seed, std::size_t value) noexcept {
    seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

/// Hash a sized range of hashable values: seed = size, then one
/// hash_combine per element in order.
template <std::ranges::sized_range Range>
std::size_t hash_range(const Range& values) noexcept {
    using T = std::ranges::range_value_t<Range>;
    std::size_t seed = std::ranges::size(values);
    for (const T& v : values) hash_combine(seed, std::hash<T>{}(v));
    return seed;
}

}  // namespace gact
