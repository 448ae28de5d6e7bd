/// \file simulator.hpp
/// Functional simulation with switching-activity capture.
///
/// Replaces the paper's ModelSim + VCD/SAIF step (Fig. 2): applying a
/// stimulus sequence yields both output values (functional verification)
/// and per-gate toggle counts (the switching activity that drives the
/// dynamic power estimate in power.hpp).
///
/// Simulator is the scalar (one vector per pass) interface, implemented as
/// a thin 1-lane wrapper over the 64-lane BitslicedSimulator — throughput
/// consumers should use the packed API in bitsliced.hpp directly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "axc/logic/bitsliced.hpp"
#include "axc/logic/netlist.hpp"

namespace axc::logic {

/// Evaluates a Netlist over stimulus vectors and accumulates toggle counts.
///
/// The simulator is zero-delay: each vector produces the settled output.
/// Toggles are counted per driven net between consecutive vectors, which is
/// exactly the information a SAIF file carries for power estimation.
/// Glitching is not modelled; this under-reports power uniformly across
/// designs and therefore preserves relative comparisons.
class Simulator {
 public:
  explicit Simulator(const Netlist& netlist);

  /// Applies one input vector (one bit per primary input, in the order of
  /// Netlist::inputs()) and returns the primary-output bits.
  std::vector<unsigned> apply(std::span<const unsigned> input_bits);

  /// Packs the low bits of \p input_word onto the primary inputs
  /// (input[i] = bit i) and returns outputs packed the same way
  /// (bit i = output[i]). Requires <= 64 inputs/outputs.
  std::uint64_t apply_word(std::uint64_t input_word);

  /// Number of vectors applied since construction / reset_activity().
  std::uint64_t vectors_applied() const { return core_.vectors_applied(); }

  /// Total output toggles of gate \p gate_index accumulated so far.
  std::uint64_t gate_toggles(std::size_t gate_index) const {
    return core_.gate_toggles(gate_index);
  }

  /// Switching energy accumulated so far, in femtojoules: for every gate,
  /// toggles x per-cell energy.
  double switched_energy_fj() const { return core_.switched_energy_fj(); }

  /// Clears toggle counts and the vector counter (state values persist so
  /// the next run still starts from the current state).
  void reset_activity() { core_.reset_activity(); }

  const Netlist& netlist() const { return core_.netlist(); }

 private:
  BitslicedSimulator core_;
  std::vector<std::uint64_t> in_words_;
};

}  // namespace axc::logic
