/// \file reference_sim.hpp
/// The test oracle for netlist simulation: a scalar reference simulator
/// that every engine in the library (the BitslicedSimulator facade and
/// TapeSimulator at any lane width) is compared against.
///
/// It is deliberately the most literal reading of the semantics and shares
/// no code with the engines beyond the per-cell truth function: per lane,
/// one vector at a time, it runs eval_cell over Netlist::gates() in gate
/// order (the incremental builder keeps that order topological). Each lane
/// keeps its own net values and its own baseline — a lane's first vector
/// establishes state without counting transitions — and every later
/// vector adds one toggle per gate whose output changed. Energy is summed
/// in gate order from cell_info().energy_fj, so a correct engine matches
/// it byte for byte, not merely closely.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "axc/common/bits.hpp"
#include "axc/logic/cell.hpp"
#include "axc/logic/netlist.hpp"

namespace axc::logic {

class ReferenceSimulator {
 public:
  ReferenceSimulator(const Netlist& netlist, unsigned lanes)
      : netlist_(netlist),
        values_(lanes, std::vector<unsigned>(netlist.net_count(), 0)),
        baselined_(lanes, false),
        toggles_(netlist.gate_count(), 0) {
    for (std::vector<unsigned>& lane_values : values_) {
      for (NetId net = 0; net < netlist.net_count(); ++net) {
        if (netlist.driver(net) == CellType::Const1) lane_values[net] = 1;
      }
    }
  }

  /// Lane \p lane takes one vector (input_bits[i] = primary input i) and
  /// returns the primary-output bits.
  std::vector<unsigned> apply(unsigned lane,
                              std::span<const unsigned> input_bits) {
    std::vector<unsigned>& value = values_.at(lane);
    const auto& inputs = netlist_.inputs();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      value[inputs[i]] = input_bits[i] & 1u;
    }
    const bool counted = baselined_[lane];
    const auto& gates = netlist_.gates();
    for (std::size_t g = 0; g < gates.size(); ++g) {
      const Gate& gate = gates[g];
      const unsigned out = eval_cell(gate.type, value[gate.in[0]],
                                     value[gate.in[1]], value[gate.in[2]]);
      if (counted && out != value[gate.out]) ++toggles_[g];
      value[gate.out] = out;
    }
    if (counted) ++transition_pairs_;
    baselined_[lane] = true;
    ++vectors_applied_;

    std::vector<unsigned> outputs;
    for (const NetId net : netlist_.outputs()) outputs.push_back(value[net]);
    return outputs;
  }

  /// Lane \p lane takes input word \p word (bit i = input i); returns the
  /// outputs packed the same way.
  std::uint64_t apply_word(unsigned lane, std::uint64_t word) {
    std::vector<unsigned> bits(netlist_.inputs().size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
      bits[i] = bit_of(word, static_cast<unsigned>(i));
    }
    std::uint64_t packed = 0;
    const std::vector<unsigned> out = apply(lane, bits);
    for (std::size_t j = 0; j < out.size(); ++j) {
      packed |= static_cast<std::uint64_t>(out[j]) << j;
    }
    return packed;
  }

  /// One packed step over lanes [first_lane, first_lane + active): lane
  /// first_lane + k is fed bit k of every input word. Returns one word per
  /// primary output, bit k = that lane's output; inactive bits are 0.
  std::vector<std::uint64_t> apply_packed(
      std::span<const std::uint64_t> input_words, unsigned active,
      unsigned first_lane = 0) {
    std::vector<std::uint64_t> packed(netlist_.outputs().size(), 0);
    std::vector<unsigned> bits(input_words.size());
    for (unsigned k = 0; k < active; ++k) {
      for (std::size_t i = 0; i < bits.size(); ++i) {
        bits[i] = bit_of(input_words[i], k);
      }
      const std::vector<unsigned> out = apply(first_lane + k, bits);
      for (std::size_t j = 0; j < out.size(); ++j) {
        packed[j] |= static_cast<std::uint64_t>(out[j]) << k;
      }
    }
    return packed;
  }

  std::uint64_t gate_toggles(std::size_t gate_index) const {
    return toggles_.at(gate_index);
  }
  std::uint64_t vectors_applied() const { return vectors_applied_; }
  std::uint64_t transition_pairs() const { return transition_pairs_; }

  double switched_energy_fj() const {
    double energy = 0.0;
    const auto& gates = netlist_.gates();
    for (std::size_t g = 0; g < gates.size(); ++g) {
      energy += static_cast<double>(toggles_[g]) *
                cell_info(gates[g].type).energy_fj;
    }
    return energy;
  }

 private:
  const Netlist& netlist_;
  std::vector<std::vector<unsigned>> values_;  ///< [lane][net]
  std::vector<bool> baselined_;                ///< per lane
  std::vector<std::uint64_t> toggles_;         ///< per gate, gate order
  std::uint64_t vectors_applied_ = 0;
  std::uint64_t transition_pairs_ = 0;
};

}  // namespace axc::logic
