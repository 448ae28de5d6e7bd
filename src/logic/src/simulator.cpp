#include "axc/logic/simulator.hpp"

#include "axc/common/bits.hpp"
#include "axc/common/require.hpp"
#include "axc/obs/obs.hpp"

namespace axc::logic {

namespace {

/// Scalar-entry-point calls (each is a 1-lane pass over the gate list);
/// contrast with logic.sim.passes to see how much work runs bitsliced.
void count_scalar_call() {
  static obs::Counter& calls = obs::counter("logic.scalar.calls");
  calls.add();
}

}  // namespace

Simulator::Simulator(const Netlist& netlist)
    : core_(netlist), in_words_(netlist.inputs().size(), 0) {}

std::vector<unsigned> Simulator::apply(std::span<const unsigned> input_bits) {
  require(input_bits.size() == in_words_.size(),
          "Simulator::apply: stimulus width does not match primary inputs");
  count_scalar_call();
  for (std::size_t i = 0; i < in_words_.size(); ++i) {
    in_words_[i] = input_bits[i] & 1u;
  }
  const std::span<const std::uint64_t> out_words =
      core_.apply_lanes(in_words_, 1);

  std::vector<unsigned> out;
  out.reserve(out_words.size());
  for (const std::uint64_t word : out_words) {
    out.push_back(static_cast<unsigned>(word & 1u));
  }
  return out;
}

std::uint64_t Simulator::apply_word(std::uint64_t input_word) {
  const std::size_t n_in = core_.netlist().inputs().size();
  const std::size_t n_out = core_.netlist().outputs().size();
  require(n_in <= 64 && n_out <= 64,
          "Simulator::apply_word: > 64 inputs or outputs");
  count_scalar_call();
  for (std::size_t i = 0; i < n_in; ++i) {
    in_words_[i] = bit_of(input_word, static_cast<unsigned>(i));
  }
  core_.apply_lanes(in_words_, 1);
  return core_.lane_output(0);
}

}  // namespace axc::logic
