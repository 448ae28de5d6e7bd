#include "axc/arith/multiplier.hpp"

#include <bit>
#include <cassert>

#include "axc/common/bits.hpp"
#include "axc/common/require.hpp"
#include "axc/arith/gear.hpp"

namespace axc::arith {

PartialProductAdderFactory gear_partial_product_factory() {
  return [](unsigned width, unsigned /*significance*/)
             -> std::unique_ptr<Adder> {
    // ETAII-like geometry: the largest R = P dividing the width while
    // still leaving at least two sub-adders (R <= width/3 guarantees
    // L = 2R < width). Falls back to exact for widths with no such split.
    for (unsigned d = width / 3; d >= 1; --d) {
      const GeArConfig config{width, d, d};
      if (width % d == 0 && config.is_valid() && !config.is_exact()) {
        return std::make_unique<GeArAdder>(config);
      }
    }
    return std::make_unique<ExactAdder>(width);
  };
}

ApproxMultiplier::ApproxMultiplier(MultiplierConfig config)
    : config_(std::move(config)) {
  // Width 16 is the paper's largest evaluated multiplier (Fig. 6); the cap
  // also keeps the widest partial-product adder at 24 bits.
  require(config_.width >= 2 && config_.width <= 16 &&
              std::has_single_bit(config_.width),
          "ApproxMultiplier: width must be a power of two in [2, 16]");
  require(config_.approx_lsbs <= 2 * config_.width,
          "ApproxMultiplier: approx_lsbs exceeds the product width");
  if (config_.adder_label.empty()) {
    if (config_.adder_factory) {
      config_.adder_label = "custom";
    } else if (config_.adder_cell == FullAdderKind::Accurate ||
               config_.approx_lsbs == 0) {
      config_.adder_label = "Exact";
    } else {
      config_.adder_label =
          std::string(full_adder_name(config_.adder_cell)) + " below bit " +
          std::to_string(config_.approx_lsbs);
    }
  }
  // The widest partial-product adder is the top level's final combine,
  // 2w - w/2 bits wide.
  adders_.resize(adder_slot(3 * config_.width / 2, config_.approx_lsbs) + 1);
  build_adders(config_.width, 0);
}

std::size_t ApproxMultiplier::adder_slot(unsigned w,
                                         unsigned significance) const {
  // Adders whose whole span lies above the approximate region are
  // identical regardless of exact significance: clamp the significance so
  // they share one slot (and one instance).
  return std::size_t{w} * (config_.approx_lsbs + 1) +
         std::min(significance, config_.approx_lsbs);
}

void ApproxMultiplier::build_adders(unsigned w, unsigned significance) {
  // Walks multiply_rec()'s recursion in its order of first use, so that
  // multiply() only reads adders_ and may run on many threads at once.
  if (w == 2) return;
  const unsigned half = w / 2;
  build_adders(half, significance);
  build_adders(half, significance + half);
  build_adders(half, significance + w);
  const unsigned clamped = std::min(significance + half, config_.approx_lsbs);
  for (const unsigned width : {w, 2 * w - half}) {
    std::unique_ptr<Adder>& slot = adders_[adder_slot(width, clamped)];
    if (slot) continue;
    if (config_.adder_factory) {
      slot = config_.adder_factory(width, clamped);
    } else if (config_.adder_cell == FullAdderKind::Accurate ||
               clamped >= config_.approx_lsbs) {
      slot = std::make_unique<ExactAdder>(width);
    } else {
      std::vector<FullAdderKind> cells(width, FullAdderKind::Accurate);
      for (unsigned i = 0; i < width && clamped + i < config_.approx_lsbs;
           ++i) {
        cells[i] = config_.adder_cell;
      }
      slot = std::make_unique<RippleAdder>(std::move(cells));
    }
  }
}

const Adder& ApproxMultiplier::adder_for(unsigned w,
                                         unsigned significance) const {
  const Adder* adder = adders_[adder_slot(w, significance)].get();
  assert(adder != nullptr && "built by build_adders()");
  return *adder;
}

std::uint64_t ApproxMultiplier::multiply(std::uint64_t a,
                                         std::uint64_t b) const {
  return multiply_rec(config_.width, a & low_mask(config_.width),
                      b & low_mask(config_.width), 0);
}

std::uint64_t ApproxMultiplier::multiply_rec(unsigned w, std::uint64_t a,
                                             std::uint64_t b,
                                             unsigned significance) const {
  if (w == 2) {
    return mul2x2(config_.block, static_cast<unsigned>(a),
                  static_cast<unsigned>(b));
  }
  const unsigned half = w / 2;
  const std::uint64_t al = bit_field(a, 0, half);
  const std::uint64_t ah = bit_field(a, half, half);
  const std::uint64_t bl = bit_field(b, 0, half);
  const std::uint64_t bh = bit_field(b, half, half);

  // Each half product carries its own weight within the final product.
  const std::uint64_t ll = multiply_rec(half, al, bl, significance);
  const std::uint64_t lh = multiply_rec(half, al, bh, significance + half);
  const std::uint64_t hl = multiply_rec(half, ah, bl, significance + half);
  const std::uint64_t hh = multiply_rec(half, ah, bh, significance + w);

  // P = hh*2^w + (lh + hl)*2^(w/2) + ll. hh and ll occupy disjoint bit
  // ranges; the middle sum needs a w-bit adder at weight half and the
  // final combine covers bits [w/2, 2w) — the low w/2 bits of ll pass
  // through untouched (adder cells on structurally-zero operands would
  // waste area and bias the result).
  const std::uint64_t mid =
      adder_for(w, significance + half).add(lh, hl);
  const std::uint64_t upper_base = ((hh << w) | ll) >> half;
  const std::uint64_t upper =
      adder_for(2 * w - half, significance + half).add(upper_base, mid);
  return ((upper << half) | (ll & low_mask(half))) & low_mask(2 * w);
}

std::string ApproxMultiplier::name() const {
  return "Mul" + std::to_string(config_.width) + "x" +
         std::to_string(config_.width) + "<" +
         std::string(mul2x2_name(config_.block)) + ", " +
         config_.adder_label + ">";
}

bool ApproxMultiplier::is_exact() const {
  if (config_.block != Mul2x2Kind::Accurate) return false;
  if (config_.adder_factory) {
    // Conservative: a custom family is presumed approximate somewhere.
    return false;
  }
  return config_.adder_cell == FullAdderKind::Accurate ||
         config_.approx_lsbs == 0;
}

std::uint64_t exact_multiply(unsigned width, std::uint64_t a,
                             std::uint64_t b) {
  require(width >= 1 && width <= 32, "exact_multiply: width in [1, 32]");
  return (a & low_mask(width)) * (b & low_mask(width));
}

}  // namespace axc::arith
