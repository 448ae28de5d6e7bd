/// \file gear.hpp
/// GeAr — the Generic Accuracy-configurable adder of Sec. 4.2 [14].
///
/// An N-bit GeAr adder splits the operands across k = (N-L)/R + 1
/// overlapping L-bit sub-adders (L = R + P). Each sub-adder contributes its
/// top R result bits (the first contributes all L), and predicts its carry
/// from the P operand bits below its result window instead of waiting for
/// the full carry chain — cutting the critical path from N to L full-adder
/// delays. An optional error detection & correction stage re-runs
/// sub-adders whose prediction window was in propagate mode while the
/// previous sub-adder produced a carry, converging to the exact sum in at
/// most k-1 iterations.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "axc/arith/adder.hpp"

namespace axc::arith {

/// A GeAr architectural configuration (N, R, P).
struct GeArConfig {
  unsigned n = 8;  ///< operand width
  unsigned r = 4;  ///< resultant bits per sub-adder
  unsigned p = 4;  ///< carry-prediction bits per sub-adder

  /// Sub-adder width L = R + P.
  constexpr unsigned l() const { return r + p; }

  /// Number of sub-adders k = ((N - L) / R) + 1.
  constexpr unsigned num_subadders() const { return (n - l()) / r + 1; }

  /// A configuration is valid when the windows tile the operand exactly:
  /// R >= 1, L <= N, and (N - L) divisible by R.
  constexpr bool is_valid() const {
    return r >= 1 && n >= 1 && n <= 63 && l() <= n && (n - l()) % r == 0;
  }

  /// True when the configuration degenerates to a single exact sub-adder.
  constexpr bool is_exact() const { return l() == n; }

  /// "GeAr(N=12,R=4,P=4)" — the notation used throughout the paper.
  std::string name() const;

  bool operator==(const GeArConfig&) const = default;
};

/// Enumerates every valid configuration for an N-bit GeAr adder, in
/// (R, P) lexicographic order — the design space of Table IV / Fig. 4.
///
/// \p min_p filters the prediction width: the paper's space uses P >= 1
/// (P = 0 would be plain block truncation with no carry speculation).
/// \p include_exact additionally yields the degenerate L == N point.
std::vector<GeArConfig> enumerate_gear_configs(unsigned n, unsigned min_p = 1,
                                               bool include_exact = false);

/// Behavioural GeAr adder with optional iterative error correction.
class GeArAdder final : public Adder {
 public:
  /// \p correction_iterations error-correction passes are applied on every
  /// add() (0 = plain approximate adder; k-1 passes make it exact).
  explicit GeArAdder(GeArConfig config, unsigned correction_iterations = 0);

  unsigned width() const override { return config_.n; }
  std::uint64_t add(std::uint64_t a, std::uint64_t b,
                    unsigned carry_in) const override;
  std::string name() const override;
  bool is_exact() const override;

  const GeArConfig& config() const { return config_; }
  unsigned correction_iterations() const { return correction_iterations_; }

  /// True iff the uncorrected adder would err on (a, b): some sub-adder's
  /// prediction window is all-propagate while the sub-adder below it
  /// produces a carry-out. This is the signal the EDC hardware computes,
  /// and also what the consolidated error correction (Sec. 6.1) taps.
  bool error_detected(std::uint64_t a, std::uint64_t b) const;

  /// Per-sub-adder error flags for (a, b) on the uncorrected adder;
  /// element i corresponds to sub-adder i+1 (the first cannot err).
  std::vector<bool> error_flags(std::uint64_t a, std::uint64_t b) const;

 private:
  /// True iff sub-adder \p i (>= 1) predicts its carry wrongly: its P
  /// prediction bits all propagate while the sub-adder below, fed
  /// \p prev_carry_in, carries out.
  bool mispredicts(std::uint64_t a, std::uint64_t b, unsigned i,
                   std::uint64_t prev_carry_in) const;
  /// One pass of the sub-adders; bit i of \p carries is the carry into
  /// sub-adder i.
  std::uint64_t add_once(std::uint64_t a, std::uint64_t b,
                         std::uint64_t carries) const;

  GeArConfig config_;
  unsigned correction_iterations_;
};

}  // namespace axc::arith
