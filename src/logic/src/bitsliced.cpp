#include "axc/logic/bitsliced.hpp"

#include "axc/common/require.hpp"
#include "axc/obs/obs.hpp"

namespace axc::logic {

BitslicedSimulator::BitslicedSimulator(const Netlist& netlist)
    : netlist_(netlist), engine_(netlist) {}

std::span<const std::uint64_t> BitslicedSimulator::apply_lanes(
    std::span<const std::uint64_t> input_words, unsigned lanes) {
  require(input_words.size() == netlist_.inputs().size(),
          "BitslicedSimulator::apply_lanes: stimulus width does not match "
          "primary inputs");
  require(lanes >= 1 && lanes <= kLanes,
          "BitslicedSimulator::apply_lanes: lanes must be in [1, 64]");
  // One gate pass advances `lanes` vectors; the occupancy histogram is how
  // a run report shows whether batching actually fills the 64 lanes.
  static obs::Counter& passes = obs::counter("logic.sim.passes");
  static obs::Histogram& occupancy =
      obs::histogram("logic.sim.lane_occupancy");
  passes.add();
  occupancy.record(lanes);
  return engine_.apply_lanes(input_words, lanes);
}

std::span<const std::uint64_t> BitslicedSimulator::apply_word_range(
    std::uint64_t base, unsigned lanes) {
  const std::size_t n_in = netlist_.inputs().size();
  require(n_in <= 64, "BitslicedSimulator::apply_word_range: > 64 inputs");
  in_scratch_.resize(n_in);
  pack_counting_lanes(base, static_cast<unsigned>(n_in), lanes, in_scratch_);
  return apply_lanes(in_scratch_, lanes);
}

std::uint64_t BitslicedSimulator::lane_output(unsigned lane) const {
  require(lane < kLanes && netlist_.outputs().size() <= 64,
          "BitslicedSimulator::lane_output: lane or output count out of "
          "range");
  return engine_.lane_output(lane);
}

}  // namespace axc::logic
