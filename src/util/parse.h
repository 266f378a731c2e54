// Range-checked parsing of numeric command-line values.
//
// The CLIs (gact_fuzz, gact_sweep, gact_serve, gact_client,
// example_engine_cli) and bench_service_load read every numeric flag
// through parse_unsigned and exit 2 (usage error) on a nullopt, so a
// malformed value can never run silently as 0, as a truncated prefix
// ("10x" as 10) or as a wrapped negative ("-1" as 4294967295).
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace gact::util {

/// Upper bound on a thread or connection count taken from a command
/// line. Matches the solve server's default live-connection bound.
inline constexpr std::uint64_t kMaxThreads = 256;

/// Upper bound on a run duration in seconds taken from a command line.
inline constexpr std::uint64_t kMaxSeconds = 24 * 60 * 60;

/// Parse `text` as a base-10 unsigned integer in [min, max]. Only
/// digits are accepted: an empty string, a sign, whitespace, trailing
/// characters, overflow, or a value outside the range yields nullopt.
inline std::optional<std::uint64_t> parse_unsigned(
    std::string_view text, std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
    std::uint64_t value = 0;
    const char* end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc{} || stop != end || value < min || value > max) {
        return std::nullopt;
    }
    return value;
}

}  // namespace gact::util
