#include "axc/arith/gear.hpp"

#include "axc/common/bits.hpp"
#include "axc/common/require.hpp"

namespace axc::arith {

std::string GeArConfig::name() const {
  return "GeAr(N=" + std::to_string(n) + ",R=" + std::to_string(r) +
         ",P=" + std::to_string(p) + ")";
}

std::vector<GeArConfig> enumerate_gear_configs(unsigned n, unsigned min_p,
                                               bool include_exact) {
  require(n >= 2 && n <= 63, "enumerate_gear_configs: n must be in [2, 63]");
  std::vector<GeArConfig> configs;
  for (unsigned r = 1; r < n; ++r) {
    for (unsigned p = min_p; r + p <= n; ++p) {
      const GeArConfig config{n, r, p};
      if (!config.is_valid()) continue;
      if (config.is_exact() && !include_exact) continue;
      configs.push_back(config);
    }
  }
  return configs;
}

GeArAdder::GeArAdder(GeArConfig config, unsigned correction_iterations)
    : config_(config), correction_iterations_(correction_iterations) {
  if (!config.is_valid()) {
    throw std::invalid_argument(
        config.name() + ": invalid configuration (need R >= 1, "
                        "R + P <= N, (N - L) divisible by R)");
  }
}

bool GeArAdder::mispredicts(std::uint64_t a, std::uint64_t b, unsigned i,
                            std::uint64_t prev_carry_in) const {
  const unsigned l = config_.l();
  const bool all_propagate =
      bit_field(a ^ b, i * config_.r, config_.p) == low_mask(config_.p);
  if (!all_propagate) return false;
  const unsigned prev_start = (i - 1) * config_.r;
  const std::uint64_t prev_sum = bit_field(a, prev_start, l) +
                                 bit_field(b, prev_start, l) + prev_carry_in;
  return bit_of(prev_sum, l) != 0;
}

std::uint64_t GeArAdder::add_once(std::uint64_t a, std::uint64_t b,
                                  std::uint64_t carries) const {
  const unsigned l = config_.l();
  const unsigned k = config_.num_subadders();
  std::uint64_t sum = 0;
  for (unsigned i = 0; i < k; ++i) {
    const unsigned start = i * config_.r;
    const std::uint64_t win_a = bit_field(a, start, l);
    const std::uint64_t win_b = bit_field(b, start, l);
    const std::uint64_t win_sum = win_a + win_b + ((carries >> i) & 1u);
    if (i == 0) {
      sum |= win_sum & low_mask(l);
    } else {
      // Keep only the top R bits; the low P bits were pure carry prediction.
      sum |= (bit_field(win_sum, config_.p, config_.r)) << (start + config_.p);
    }
    if (i == k - 1) {
      sum |= bit_of(win_sum, l) ? (std::uint64_t{1} << config_.n) : 0;
    }
  }
  return sum;
}

std::uint64_t GeArAdder::add(std::uint64_t a, std::uint64_t b,
                             unsigned carry_in) const {
  const unsigned k = config_.num_subadders();
  // Bit i is the carry into sub-adder i: carry_in for sub-adder 0, a forced
  // correction carry for the others. k <= 63 (N <= 63, R >= 1), so one
  // 64-bit word holds them all.
  std::uint64_t carries = carry_in & 1u;

  // Iterative error detection & recovery (Fig. 3, blue path): whenever the
  // previous sub-adder generated a carry-out and this sub-adder's P bits
  // are all propagating, force a carry into the window on the next pass
  // (the hardware forces both input LSBs to 1, which under propagate mode
  // adds exactly the missing +1).
  for (unsigned iter = 0; iter < correction_iterations_; ++iter) {
    // All detections of one pass are evaluated on the previous pass's state
    // (the hardware computes them combinationally in parallel), so each
    // iteration advances the correction by one sub-adder stage and k-1
    // passes guarantee the exact sum.
    const std::uint64_t prev = carries;
    for (unsigned i = 1; i < k; ++i) {
      const std::uint64_t bit = std::uint64_t{1} << i;
      if (carries & bit) continue;
      // Carry-out of the sub-adder below, fed its carry of the last pass.
      if (mispredicts(a, b, i, (prev >> (i - 1)) & 1u)) carries |= bit;
    }
    if (carries == prev) break;
  }
  return add_once(a, b, carries);
}

std::vector<bool> GeArAdder::error_flags(std::uint64_t a,
                                         std::uint64_t b) const {
  const unsigned k = config_.num_subadders();
  std::vector<bool> flags;
  flags.reserve(k - 1);
  for (unsigned i = 1; i < k; ++i) flags.push_back(mispredicts(a, b, i, 0));
  return flags;
}

bool GeArAdder::error_detected(std::uint64_t a, std::uint64_t b) const {
  const unsigned k = config_.num_subadders();
  for (unsigned i = 1; i < k; ++i) {
    if (mispredicts(a, b, i, 0)) return true;
  }
  return false;
}

std::string GeArAdder::name() const {
  std::string label = config_.name();
  if (correction_iterations_ > 0) {
    label += "+EDC" + std::to_string(correction_iterations_);
  }
  return label;
}

bool GeArAdder::is_exact() const {
  return config_.is_exact() ||
         correction_iterations_ + 1 >= config_.num_subadders();
}

}  // namespace axc::arith
