#include "graph/circuit_graph.hpp"

#include <algorithm>

#include "util/timer.hpp"

namespace subg {

CircuitGraph::CircuitGraph(const Netlist& netlist) : netlist_(&netlist) {
  Timer timer;
  device_count_ = netlist.device_count();
  net_count_ = netlist.net_count();
  const std::size_t nv = vertex_count();

  // Refuse an overflowing graph before any column is allocated.
  std::uint64_t pin_total = 0;
  for (std::uint32_t d = 0; d < device_count_; ++d) {
    pin_total += netlist.device_pins(DeviceId(d)).size();
  }
  CsrOffsetLimits<CsrOffset>::require(2 * pin_total);

  // Count edges per vertex, then fill the columns.
  edge_begin_.assign(nv + 1, 0);
  for (std::uint32_t d = 0; d < device_count_; ++d) {
    const DeviceId dev(d);
    auto pins = netlist.device_pins(dev);
    edge_begin_[vertex_of(dev) + 1] += static_cast<CsrOffset>(pins.size());
    for (NetId n : pins) {
      edge_begin_[vertex_of(n) + 1] += 1;
    }
  }
  for (std::size_t v = 0; v < nv; ++v) edge_begin_[v + 1] += edge_begin_[v];
  neighbor_.resize(edge_begin_[nv]);
  coefficient_.resize(edge_begin_[nv]);

  std::vector<CsrOffset> cursor(edge_begin_.begin(), edge_begin_.end() - 1);
  for (std::uint32_t d = 0; d < device_count_; ++d) {
    const DeviceId dev(d);
    const DeviceTypeInfo& info = netlist.device_type_info(dev);
    auto pins = netlist.device_pins(dev);
    const Vertex dv = vertex_of(dev);
    for (std::uint32_t p = 0; p < pins.size(); ++p) {
      const Label coeff = info.class_coefficient[info.pin_class[p]];
      const Vertex nv_ = vertex_of(pins[p]);
      neighbor_[cursor[dv]] = nv_;
      coefficient_[cursor[dv]++] = coeff;
      neighbor_[cursor[nv_]] = dv;
      coefficient_[cursor[nv_]++] = coeff;
    }
  }

  // Invariant labels and special flags.
  initial_label_.resize(nv);
  special_.assign(nv, 0);
  for (std::uint32_t d = 0; d < device_count_; ++d) {
    initial_label_[d] =
        netlist.device_type_info(DeviceId(d)).type_label;
  }
  for (std::uint32_t n = 0; n < net_count_; ++n) {
    const NetId net(n);
    const Vertex v = vertex_of(net);
    if (netlist.is_global(net)) {
      special_[v] = 1;
      initial_label_[v] = special_net_label(netlist.net_name(net));
    } else {
      initial_label_[v] = degree_label(netlist.net_degree(net));
    }
  }

  // Device fanin is bounded by the pin count, so sorting each device range
  // is O(E); net ranges (unbounded fanout) get no degree column at all.
  neighbor_degree_.resize(edge_begin_[device_count_]);
  for (std::uint32_t d = 0; d < device_count_; ++d) {
    const CsrOffset begin = edge_begin_[d];
    const CsrOffset end = edge_begin_[d + 1];
    for (CsrOffset k = begin; k < end; ++k) {
      neighbor_degree_[k] = static_cast<std::uint32_t>(degree(neighbor_[k]));
    }
    std::sort(neighbor_degree_.begin() + static_cast<std::ptrdiff_t>(begin),
              neighbor_degree_.begin() + static_cast<std::ptrdiff_t>(end));
  }
  build_seconds_ = timer.seconds();
}

std::string CircuitGraph::vertex_name(Vertex v) const {
  SUBG_CHECK_MSG(v < vertex_count(), "invalid vertex");
  if (is_device(v)) return "dev:" + netlist_->device_name(device_of(v));
  return "net:" + netlist_->net_name(net_of(v));
}

std::size_t CircuitGraph::bytes() const {
  return edge_begin_.capacity() * sizeof(CsrOffset) +
         neighbor_.capacity() * sizeof(Vertex) +
         coefficient_.capacity() * sizeof(Label) +
         initial_label_.capacity() * sizeof(Label) +
         special_.capacity() * sizeof(std::uint8_t) +
         neighbor_degree_.capacity() * sizeof(std::uint32_t);
}

}  // namespace subg
