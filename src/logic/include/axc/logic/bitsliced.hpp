/// \file bitsliced.hpp
/// 64-lane bitsliced (SWAR) netlist simulation.
///
/// Every net holds a std::uint64_t word whose bit k is lane k's logic
/// value, so a single pass over the (topologically ordered) gates
/// evaluates 64 stimulus vectors at once using nothing but bitwise ops
/// (eval_cell_word). Toggle counting stays exact: per gate, the toggles of
/// one step are popcount(old_word ^ new_word) restricted to the active
/// lanes, i.e. each lane carries its own independent stimulus stream and
/// contributes its own transitions. Simulating L lanes for T steps is
/// therefore bit-identical — outputs, per-gate toggle counts and
/// switched_energy_fj() — to running L scalar simulations, lane k fed the
/// bit-k stream (asserted against a per-gate reference simulator in
/// tests/logic/test_bitsliced.cpp and test_tape.cpp).
///
/// BitslicedSimulator is the observable facade of the compiled tape engine
/// TapeSimulator<std::uint64_t> (tape.hpp / tape_engine.hpp): it checks
/// its arguments, records the logic.sim.* instruments, and forwards every
/// pass to the engine, which owns the lane discipline. The scalar
/// Simulator in simulator.hpp is a thin 1-lane wrapper around this class.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "axc/logic/netlist.hpp"
#include "axc/logic/tape_engine.hpp"

namespace axc::logic {

/// Evaluates a Netlist over 64 stimulus lanes per pass and accumulates
/// per-gate toggle counts, exactly like Simulator but one word at a time.
///
/// Lane discipline: the active lane count may vary freely between calls.
/// Each lane's first active vector within an activity window (construction
/// or reset_activity() to the next reset) is a per-lane baseline — it
/// establishes state without counting transitions; later vectors of that
/// lane count toggles against the last value the lane actually held. Lanes
/// outside the active set keep stale state and are excluded from toggle
/// accounting, so shrink/grow patterns (e.g. a partial remainder batch
/// followed by a full one, as the batched SAD path produces) stay exact.
class BitslicedSimulator {
 public:
  /// Lanes per simulation word.
  static constexpr unsigned kLanes = 64;

  explicit BitslicedSimulator(const Netlist& netlist);

  /// Applies one packed stimulus word per primary input (input_words[i]
  /// bit k = lane k's value of input i, in the order of Netlist::inputs())
  /// and returns one packed word per primary output (bit k = lane k's
  /// value). The returned span aliases internal storage and is valid until
  /// the next apply call. Only the low \p lanes lanes are meaningful.
  std::span<const std::uint64_t> apply_lanes(
      std::span<const std::uint64_t> input_words, unsigned lanes = kLanes);

  /// Counting-lane convenience for netlists with <= 64 primary inputs:
  /// lane k simulates the packed input word `base + k` (bit i = input i),
  /// i.e. one call covers the exhaustive range [base, base + lanes).
  std::span<const std::uint64_t> apply_word_range(std::uint64_t base,
                                                  unsigned lanes = kLanes);

  /// The packed output word of one lane of the most recent apply call
  /// (bit j = output j, as Simulator::apply_word). Requires <= 64 outputs.
  std::uint64_t lane_output(unsigned lane) const;

  /// Total lane-vectors applied since construction / reset_activity().
  std::uint64_t vectors_applied() const { return engine_.vectors_applied(); }

  /// Number of (vector, predecessor) pairs that contributed to toggle
  /// accounting — vectors_applied() minus one baseline vector per lane
  /// ever active in this window. This is the denominator for
  /// energy-per-vector power estimates.
  std::uint64_t transition_pairs() const {
    return engine_.transition_pairs();
  }

  /// Total output toggles of gate \p gate_index, summed over all lanes.
  std::uint64_t gate_toggles(std::size_t gate_index) const {
    return engine_.gate_toggles(gate_index);
  }

  /// Switching energy accumulated so far, in femtojoules: for every gate,
  /// toggles x per-cell energy. Exact — lane packing loses no transitions.
  double switched_energy_fj() const { return engine_.switched_energy_fj(); }

  /// Clears toggle counts and the vector counters (net state persists).
  void reset_activity() { engine_.reset_activity(); }

  const Netlist& netlist() const { return netlist_; }

 private:
  const Netlist& netlist_;
  TapeSimulator<std::uint64_t> engine_;
  std::vector<std::uint64_t> in_scratch_;
};

}  // namespace axc::logic
