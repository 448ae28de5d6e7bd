#include "axc/arith/lpa_adders.hpp"

#include "axc/common/bits.hpp"
#include "axc/common/require.hpp"

namespace axc::arith {
namespace {

void check_shape(unsigned width, unsigned lsbs, const char* what) {
  if (width < 1 || width > 63) {
    throw std::invalid_argument(std::string(what) +
                                ": width must be in [1, 63]");
  }
  if (lsbs > width) {
    throw std::invalid_argument(std::string(what) +
                                ": approximate part exceeds the width");
  }
}

}  // namespace

LoaAdder::LoaAdder(unsigned width, unsigned approx_lsbs)
    : width_(width), approx_lsbs_(approx_lsbs) {
  check_shape(width, approx_lsbs, "LoaAdder");
}

std::uint64_t LoaAdder::add(std::uint64_t a, std::uint64_t b,
                            unsigned carry_in) const {
  a &= low_mask(width_);
  b &= low_mask(width_);
  const unsigned k = approx_lsbs_;
  if (k == 0) return a + b + (carry_in & 1u);
  // Low part: bitwise OR (absorbs the external carry-in as the hardware
  // does — it has no adder cell to feed it into).
  const std::uint64_t low = (a | b) & low_mask(k);
  // Carry into the exact part: AND of the most significant approximate
  // bits (LOA's single recovered carry).
  const unsigned carry = bit_of(a & b, k - 1);
  const std::uint64_t high = (a >> k) + (b >> k) + carry;
  return (high << k) | low;
}

std::string LoaAdder::name() const {
  return "LOA(" + std::to_string(width_) + "," +
         std::to_string(approx_lsbs_) + ")";
}

EtaiAdder::EtaiAdder(unsigned width, unsigned approx_lsbs)
    : width_(width), approx_lsbs_(approx_lsbs) {
  check_shape(width, approx_lsbs, "EtaiAdder");
}

std::uint64_t EtaiAdder::add(std::uint64_t a, std::uint64_t b,
                             unsigned carry_in) const {
  a &= low_mask(width_);
  b &= low_mask(width_);
  const unsigned k = approx_lsbs_;
  if (k == 0) return a + b + (carry_in & 1u);
  // Low part, MSB -> LSB: XOR until the first (1, 1) pair, then saturate
  // everything from that position downward to 1.
  std::uint64_t low = 0;
  bool saturate = false;
  for (unsigned i = k; i-- > 0;) {
    if (saturate) {
      low |= std::uint64_t{1} << i;
      continue;
    }
    const unsigned ai = bit_of(a, i);
    const unsigned bi = bit_of(b, i);
    if (ai & bi) {
      saturate = true;
      low |= std::uint64_t{1} << i;
    } else {
      low |= static_cast<std::uint64_t>(ai ^ bi) << i;
    }
  }
  const std::uint64_t high = (a >> k) + (b >> k);  // no carry crosses
  return (high << k) | low;
}

std::string EtaiAdder::name() const {
  return "ETAI(" + std::to_string(width_) + "," +
         std::to_string(approx_lsbs_) + ")";
}

TruncatedAdder::TruncatedAdder(unsigned width, unsigned truncated_lsbs)
    : width_(width), truncated_lsbs_(truncated_lsbs) {
  check_shape(width, truncated_lsbs, "TruncatedAdder");
}

std::uint64_t TruncatedAdder::add(std::uint64_t a, std::uint64_t b,
                                  unsigned carry_in) const {
  a &= low_mask(width_);
  b &= low_mask(width_);
  const unsigned k = truncated_lsbs_;
  if (k == 0) return a + b + (carry_in & 1u);
  const std::uint64_t high = (a >> k) + (b >> k);
  return high << k;
}

std::string TruncatedAdder::name() const {
  return "Trunc(" + std::to_string(width_) + "," +
         std::to_string(truncated_lsbs_) + ")";
}

}  // namespace axc::arith
