// The optional size argument of bench_csp_ablation and
// bench_engine_batch: `bench_foo [size]`.
//
// The meaning of the size (stabilization stages, grid cells) is
// documented per bench; the default is the bench's historical value.
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstdlib>

#include "util/parse.h"

namespace gact::bench {

/// Return argv[1] as a non-negative integer, or `default_value` when it
/// is absent. A malformed size (sign, trailing junk, overflow) or a
/// second argument exits 2 rather than silently running the wrong size.
inline std::size_t parse_size_arg(int argc, char** argv,
                                  std::size_t default_value) {
    if (argc > 2) {
        std::fprintf(stderr, "usage: %s [size]\n", argv[0]);
        std::exit(2);
    }
    if (argc < 2) return default_value;
    const auto value = util::parse_unsigned(argv[1], 0, SIZE_MAX);
    if (!value.has_value()) {
        std::fprintf(stderr, "invalid size argument '%s'\n", argv[1]);
        std::exit(2);
    }
    return *value;
}

}  // namespace gact::bench
