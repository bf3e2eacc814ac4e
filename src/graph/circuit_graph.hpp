// Bipartite circuit graph over a Netlist (paper §II, Figs 1–2).
//
// Vertices 0..D-1 are devices, D..D+N-1 are nets. Each device pin yields
// one undirected edge between the device vertex and the net vertex; the
// edge carries the relabeling coefficient of the pin's terminal equivalence
// class, so that — per Fig 3 — a neighbor's label contributes through the
// class of the connecting terminal.
//
// The graph is one columnar CSR edge table, built in one linear pass.
// Phase I sweeps the whole host every round, Phase II's frontier expansion
// and corruption checks read only neighbors while the relabel sum reads
// neighbors and coefficients, so the two edge fields live in separate
// arrays:
//
//   edge_begin_[v..v+1]  edge range of vertex v (CsrOffset offsets —
//                        uint32 by default, uint64 under SUBG_CSR_OFFSET64)
//   neighbor_[e]         neighbor vertex
//   coefficient_[e]      terminal-class coefficient
//   initial_label_[v]    invariant label
//   special_[v]          rail flag as uint8 (vector<bool> proxies are not
//                        addressable and cost a shift+mask per probe)
//   neighbor_degree_[e]  device edge ranges only: the neighbor nets'
//                        degrees, sorted within each device's range
//
// Edge order is fixed: a device lists its pins in pin order, a net lists
// its pins in (device id, pin) order. The relabel arithmetic
// (util/hash.hpp) is commutative, but every sum walks this one order.
//
// A graph whose edge slots (two per pin) overflow the configured offset
// width is refused at construction with a subg::Error naming the count,
// the limit and the build flag that widens the offsets.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace subg {

/// Graph vertex index (devices first, then nets).
using Vertex = std::uint32_t;

/// Offset-width policy, parameterized so every width stays unit-testable
/// regardless of how the build was configured (DESIGN.md §11): offsets of
/// type OffsetT address at most max_edges edge slots, and a larger graph
/// must be refused BEFORE construction.
template <typename OffsetT>
struct CsrOffsetLimits {
  static_assert(std::is_unsigned_v<OffsetT>);
  static constexpr std::uint64_t max_edges =
      std::numeric_limits<OffsetT>::max();
  [[nodiscard]] static constexpr bool fits(std::uint64_t edge_count) {
    return edge_count <= max_edges;
  }
  /// Throws subg::Error naming `edge_count`, the limit, and
  /// -DSUBG_CSR_OFFSET64=ON when the count does not fit.
  static void require(std::uint64_t edge_count) {
    if (fits(edge_count)) return;
    throw Error("circuit graph: " + std::to_string(edge_count) +
                " edge slots exceed the limit of " +
                std::to_string(max_edges) + " for " +
                std::to_string(8 * sizeof(OffsetT)) +
                "-bit CSR offsets; rebuild with -DSUBG_CSR_OFFSET64=ON");
  }
};

/// Compile-time offset selection: the default graph spends 4 bytes per
/// vertex slot and caps at ~4.29e9 edge slots; configuring
/// -DSUBG_CSR_OFFSET64=ON doubles the offset column for hosts past the
/// uint32 boundary. bytes() accounts the width via sizeof(CsrOffset).
#if defined(SUBG_CSR_OFFSET64)
using CsrOffset = std::uint64_t;
#else
using CsrOffset = std::uint32_t;
#endif

class CircuitGraph {
 public:
  /// Build the graph. The netlist must outlive the graph and must not be
  /// mutated while the graph is in use. Throws subg::Error when the edge
  /// slots overflow CsrOffset.
  explicit CircuitGraph(const Netlist& netlist);

  [[nodiscard]] const Netlist& netlist() const { return *netlist_; }

  [[nodiscard]] std::size_t device_count() const { return device_count_; }
  [[nodiscard]] std::size_t net_count() const { return net_count_; }
  [[nodiscard]] std::size_t vertex_count() const {
    return device_count_ + net_count_;
  }
  /// Directed edge slots: two per device pin.
  [[nodiscard]] std::size_t edge_count() const { return neighbor_.size(); }

  [[nodiscard]] bool is_device(Vertex v) const { return v < device_count_; }
  [[nodiscard]] bool is_net(Vertex v) const { return v >= device_count_; }

  [[nodiscard]] Vertex vertex_of(DeviceId d) const {
    return static_cast<Vertex>(d.index());
  }
  [[nodiscard]] Vertex vertex_of(NetId n) const {
    return static_cast<Vertex>(device_count_ + n.index());
  }
  [[nodiscard]] DeviceId device_of(Vertex v) const {
    return DeviceId(v);
  }
  [[nodiscard]] NetId net_of(Vertex v) const {
    return NetId(static_cast<std::uint32_t>(v - device_count_));
  }

  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const {
    return {neighbor_.data() + edge_begin_[v],
            edge_begin_[v + 1] - edge_begin_[v]};
  }
  /// Coefficients of v's edges, index-aligned with neighbors(v).
  [[nodiscard]] std::span<const Label> coefficients(Vertex v) const {
    return {coefficient_.data() + edge_begin_[v],
            edge_begin_[v + 1] - edge_begin_[v]};
  }
  [[nodiscard]] std::size_t degree(Vertex v) const {
    return edge_begin_[v + 1] - edge_begin_[v];
  }

  /// Neighborhood signature of a DEVICE vertex: the degrees of its neighbor
  /// nets, sorted ascending, one entry per edge slot (a pin wired to the
  /// same net twice contributes its degree twice). Precomputed at build so
  /// the Phase II signature prefilter rejects K↔c postulates without
  /// touching the adjacency. Empty for net vertices.
  [[nodiscard]] std::span<const std::uint32_t> sorted_neighbor_degrees(
      Vertex v) const {
    if (!is_device(v)) return {};  // the column covers device ranges only
    return {neighbor_degree_.data() + edge_begin_[v], degree(v)};
  }

  /// True for global nets (the paper's "special signals").
  [[nodiscard]] bool is_special(Vertex v) const { return special_[v] != 0; }

  /// Initial invariant label (paper §III): device type hash for devices,
  /// degree hash for nets, fixed name-derived label for special nets.
  [[nodiscard]] Label initial_label(Vertex v) const { return initial_label_[v]; }

  /// Round-0 host label BEFORE rail overrides: a host global is a rail only
  /// for a pattern that names it, so it starts from its degree label like
  /// any other net; everything else starts from its invariant label.
  [[nodiscard]] Label host_base_label(Vertex v) const {
    return is_special(v) ? degree_label(degree(v)) : initial_label(v);
  }

  /// Fixed label of a special net, derived from its (global) name — equal in
  /// pattern and host exactly when the rails have the same name.
  [[nodiscard]] static Label special_net_label(std::string_view name) {
    return hash_string(std::string("!global:") += name);
  }

  /// Human-readable vertex name for traces and error messages.
  [[nodiscard]] std::string vertex_name(Vertex v) const;

  /// Heap footprint of the columns (for the "csr.bytes" gauge).
  [[nodiscard]] std::size_t bytes() const;
  /// Wall-clock cost of construction (for the "csr.build_seconds" span).
  [[nodiscard]] double build_seconds() const { return build_seconds_; }

 private:
  const Netlist* netlist_;
  std::size_t device_count_ = 0;
  std::size_t net_count_ = 0;
  std::vector<CsrOffset> edge_begin_;  // size vertex_count()+1
  std::vector<Vertex> neighbor_;
  std::vector<Label> coefficient_;
  std::vector<Label> initial_label_;
  std::vector<std::uint8_t> special_;
  std::vector<std::uint32_t> neighbor_degree_;  // size edge_begin_[D]
  double build_seconds_ = 0;
};

}  // namespace subg
