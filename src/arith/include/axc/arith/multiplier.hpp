/// \file multiplier.hpp
/// Multi-bit approximate multipliers (Sec. 5, Fig. 6).
///
/// Following the paper (and lpACLib), an NxN multiplier is built
/// recursively: the operands split into high/low halves, the four half
/// products are produced by (N/2)x(N/2) multipliers — bottoming out at the
/// 2x2 blocks of mul2x2.hpp — and the partial products are summed by
/// multi-bit adders. Approximation enters at two independent points:
///   1. which 2x2 elementary block is used (AccMul / ApxMul_SoA /
///      ApxMul_Our), and
///   2. how many low-significance *product* bits the partial-product
///      adders compute with approximate full-adder cells.
///
/// Significance alignment matters: every adder in the recursion knows the
/// weight its LSB carries in the final product, and approximate cells are
/// placed only where that weight falls below `approx_lsbs`. (Approximating
/// each adder's local LSBs instead would corrupt mid-significance product
/// bits — a mistake, not a design point.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "axc/arith/adder.hpp"
#include "axc/arith/mul2x2.hpp"

namespace axc::arith {

/// Builds a partial-product adder of the given width whose LSB sits at
/// `significance` within the final product.
using PartialProductAdderFactory =
    std::function<std::unique_ptr<Adder>(unsigned width,
                                         unsigned significance)>;

/// Configuration of a recursive approximate multiplier.
struct MultiplierConfig {
  unsigned width = 8;  ///< operand width; power of two in [2, 16]
  Mul2x2Kind block = Mul2x2Kind::Accurate;
  /// Full-adder cell used below the `approx_lsbs` product significance.
  FullAdderKind adder_cell = FullAdderKind::Accurate;
  /// Product bits [0, approx_lsbs) are summed with `adder_cell` cells.
  unsigned approx_lsbs = 0;
  /// Optional override; when set, adder_cell/approx_lsbs are ignored for
  /// adder construction (still reported in name()). Must honour the
  /// significance convention above.
  PartialProductAdderFactory adder_factory;
  /// Human-readable label of the adder family (for name()).
  std::string adder_label;
};

/// Ready-made factory: GeAr adders with sub-adder geometry scaled to the
/// requested width — R = P = width/4 (an ETAII-like shape); widths too
/// small to split fall back to exact. Ignores significance (GeAr's errors
/// are carry-boundary events, not LSB truncation).
PartialProductAdderFactory gear_partial_product_factory();

/// Recursive NxN multiplier with configurable approximation.
class ApproxMultiplier {
 public:
  explicit ApproxMultiplier(MultiplierConfig config);

  unsigned width() const { return config_.width; }

  /// Multiplies the low width() bits of a and b; result has 2*width() bits.
  std::uint64_t multiply(std::uint64_t a, std::uint64_t b) const;

  /// e.g. "Mul8x8<ApxMul_Our, ApxFA3 below bit 4>".
  std::string name() const;

  const MultiplierConfig& config() const { return config_; }

  /// True when every stage is exact (accurate block + exact adders).
  bool is_exact() const;

 private:
  std::uint64_t multiply_rec(unsigned w, std::uint64_t a, std::uint64_t b,
                             unsigned significance) const;
  std::size_t adder_slot(unsigned w, unsigned significance) const;
  void build_adders(unsigned w, unsigned significance);
  const Adder& adder_for(unsigned w, unsigned significance) const;

  MultiplierConfig config_;
  /// Flat table indexed by adder_slot(width, significance), i.e. by
  /// (adder width, significance clamped to approx_lsbs); filled once by the
  /// constructor, read-only afterwards. Slots no adder uses stay null.
  std::vector<std::unique_ptr<Adder>> adders_;
};

/// Exact reference product of the low \p width bits of a and b.
std::uint64_t exact_multiply(unsigned width, std::uint64_t a,
                             std::uint64_t b);

}  // namespace axc::arith
