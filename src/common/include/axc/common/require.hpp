/// \file require.hpp
/// Precondition checking helpers used across the library.
///
/// Preconditions on public API entry points are enforced with exceptions
/// (std::invalid_argument / std::out_of_range) so that misuse is diagnosed
/// in both debug and release builds; internal invariants use assert().
///
/// Two styles are available:
///   require(cond, "msg")      — plain message, no location capture.
///   AXC_REQUIRE(cond, "msg")  — additionally records the failed expression
///                               and file:line in the exception message,
///                               e.g. "pgm.cpp:57: read_pgm: bad width
///                               [requirement: width >= 1]".
/// New code and public boundaries with non-obvious failure modes should
/// prefer AXC_REQUIRE; both throw std::invalid_argument so callers can
/// catch uniformly.
///
/// A passing check must not allocate: several run once per bit or per
/// sample (full_add, mul2x2, SadAccelerator::sad). A string literal binds
/// to the `const char*` overloads and is only copied into the exception.
/// A message assembled at run time must be built inside the failure
/// branch (`if (!cond) throw std::invalid_argument(a + b);`), never
/// passed pre-built to require(). The message bytes are part of the wire
/// protocol: the service returns what() as the body of a BadRequest.
#pragma once

#include <stdexcept>
#include <string>

namespace axc {

/// Throws std::invalid_argument with \p message unless \p condition holds.
///
/// Use for argument validation at public API boundaries.
inline void require(bool condition, const char* message) {
  if (!condition) throw std::invalid_argument(message);
}

inline void require(bool condition, const std::string& message) {
  if (!condition) throw std::invalid_argument(message);
}

/// Throws std::out_of_range with \p message unless \p condition holds.
inline void require_in_range(bool condition, const char* message) {
  if (!condition) throw std::out_of_range(message);
}

inline void require_in_range(bool condition, const std::string& message) {
  if (!condition) throw std::out_of_range(message);
}

namespace detail {

/// Strips the directory part of __FILE__ so messages stay stable across
/// build trees.
constexpr const char* basename_of(const char* path) {
  const char* base = path;
  for (const char* p = path; *p != '\0'; ++p) {
    if (*p == '/' || *p == '\\') base = p + 1;
  }
  return base;
}

[[noreturn]] inline void throw_requirement(const char* expression,
                                           const std::string& message,
                                           const char* file, long line) {
  throw std::invalid_argument(std::string(basename_of(file)) + ":" +
                              std::to_string(line) + ": " + message +
                              " [requirement: " + expression + "]");
}

}  // namespace detail

}  // namespace axc

/// Precondition check that captures the failed expression and its source
/// location. Throws std::invalid_argument (same contract as axc::require).
#define AXC_REQUIRE(condition, message)                                  \
  do {                                                                   \
    if (!(condition)) {                                                  \
      ::axc::detail::throw_requirement(#condition, (message), __FILE__,  \
                                       __LINE__);                        \
    }                                                                    \
  } while (false)
