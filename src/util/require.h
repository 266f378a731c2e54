// Checked preconditions and invariants for the gact library.
//
// Following the C++ Core Guidelines (I.6, E.12) we report contract
// violations by throwing: callers of this library are research harnesses
// and test drivers that want a diagnosable failure, not process death.
#pragma once

#include <stdexcept>
#include <string>

namespace gact {

/// Thrown when a caller violates a documented precondition.
class precondition_error : public std::invalid_argument {
public:
    using std::invalid_argument::invalid_argument;
};

/// Thrown when an internal invariant fails; indicates a library bug.
class invariant_error : public std::logic_error {
public:
    using std::logic_error::logic_error;
};

/// Thrown when an arithmetic operation would overflow its representation.
class overflow_error : public std::overflow_error {
public:
    using std::overflow_error::overflow_error;
};

/// Check a caller-facing precondition. The message is built only when
/// the check fails: a literal passed as `const std::string&` would be
/// copied into a heap string on every call, passed or not.
inline void require(bool condition, const char* what) {
    if (!condition) throw precondition_error(what);
}
inline void require(bool condition, const std::string& what) {
    if (!condition) throw precondition_error(what);
}

/// Check an internal invariant (messages as for require).
inline void ensure(bool condition, const char* what) {
    if (!condition) throw invariant_error(what);
}
inline void ensure(bool condition, const std::string& what) {
    if (!condition) throw invariant_error(what);
}

}  // namespace gact
