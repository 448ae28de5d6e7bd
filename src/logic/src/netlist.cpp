#include "axc/logic/netlist.hpp"

#include "axc/common/require.hpp"

namespace axc::logic {

NetId Netlist::new_net(CellType kind) {
  const NetId id = static_cast<NetId>(net_kind_.size());
  net_kind_.push_back(kind);
  return id;
}

NetId Netlist::add_input(std::string name) {
  const NetId id = new_net(CellType::Input);
  inputs_.push_back(id);
  input_names_.push_back(std::move(name));
  return id;
}

NetId Netlist::add_const(bool value) {
  return new_net(value ? CellType::Const1 : CellType::Const0);
}

NetId Netlist::add_gate(CellType type, std::span<const NetId> inputs) {
  const CellInfo& info = cell_info(type);
  require(info.fanin > 0, "Netlist::add_gate: pseudo-cells cannot be "
                          "instantiated as gates");
  if (static_cast<int>(inputs.size()) != info.fanin) {
    throw std::invalid_argument(
        std::string("Netlist::add_gate: wrong input count for ") +
        std::string(info.name));
  }
  Gate gate;
  gate.type = type;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    require(inputs[i] < net_kind_.size(),
            "Netlist::add_gate: input net does not exist");
    gate.in[i] = inputs[i];
  }
  gate.out = new_net(type);
  gates_.push_back(gate);
  return gate.out;
}

NetId Netlist::add_gate(CellType type, NetId a) {
  const NetId ins[] = {a};
  return add_gate(type, ins);
}

NetId Netlist::add_gate(CellType type, NetId a, NetId b) {
  const NetId ins[] = {a, b};
  return add_gate(type, ins);
}

NetId Netlist::add_gate(CellType type, NetId a, NetId b, NetId c) {
  const NetId ins[] = {a, b, c};
  return add_gate(type, ins);
}

void Netlist::mark_output(NetId net, std::string name) {
  require_in_range(net < net_kind_.size(),
                   "Netlist::mark_output: no such net");
  outputs_.push_back(net);
  output_names_.push_back(std::move(name));
}

Netlist Netlist::from_parts(std::string name,
                            std::vector<CellType> net_kinds,
                            std::vector<Gate> gates,
                            std::vector<NetId> inputs,
                            std::vector<NetId> outputs) {
  Netlist netlist(std::move(name));
  netlist.net_kind_ = std::move(net_kinds);
  netlist.gates_ = std::move(gates);
  netlist.inputs_ = std::move(inputs);
  netlist.outputs_ = std::move(outputs);
  netlist.input_names_.reserve(netlist.inputs_.size());
  for (std::size_t i = 0; i < netlist.inputs_.size(); ++i) {
    netlist.input_names_.push_back("i" + std::to_string(i));
  }
  netlist.output_names_.reserve(netlist.outputs_.size());
  for (std::size_t i = 0; i < netlist.outputs_.size(); ++i) {
    netlist.output_names_.push_back("o" + std::to_string(i));
  }
  return netlist;
}

double Netlist::area_ge() const {
  double area = 0.0;
  for (const Gate& gate : gates_) area += cell_info(gate.type).area_ge;
  return area;
}

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

constexpr void fnv_mix(std::uint64_t& h, std::uint64_t value) {
  // Mix 8 bytes at a time; FNV-1a over the value's bytes.
  for (int i = 0; i < 8; ++i) {
    h ^= value >> (8 * i) & 0xFFu;
    h *= kFnvPrime;
  }
}

}  // namespace

std::uint64_t Netlist::structural_hash() const {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, net_kind_.size());
  for (const CellType kind : net_kind_) {
    fnv_mix(h, static_cast<std::uint64_t>(kind));
  }
  fnv_mix(h, gates_.size());
  for (const Gate& gate : gates_) {
    fnv_mix(h, static_cast<std::uint64_t>(gate.type));
    fnv_mix(h, gate.in[0]);
    fnv_mix(h, gate.in[1]);
    fnv_mix(h, gate.in[2]);
    fnv_mix(h, gate.out);
  }
  fnv_mix(h, inputs_.size());
  for (const NetId net : inputs_) fnv_mix(h, net);
  fnv_mix(h, outputs_.size());
  for (const NetId net : outputs_) fnv_mix(h, net);
  return h;
}

}  // namespace axc::logic
