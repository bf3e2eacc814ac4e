// Shared machinery for the baseline matchers: special-net resolution,
// vertex compatibility, assignment ordering, instance extraction, dedup.
#pragma once

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "graph/circuit_graph.hpp"
#include "match/instance.hpp"
#include "match/verify.hpp"
#include "util/check.hpp"

namespace subg::baseline_detail {

inline constexpr Vertex kInvalid = 0xFFFFFFFFu;

/// Preprocessed view of a (pattern, host) matching problem.
struct Prep {
  CircuitGraph sg;
  CircuitGraph gg;
  /// Pattern vertex → forced host image (resolved globals); kInvalid else.
  std::vector<Vertex> special_image;
  /// Host vertices already claimed by resolved globals.
  std::vector<bool> host_bound;
  /// Non-special pattern vertices in assignment order (BFS from vertex 0 so
  /// each vertex after the first has an already-assigned neighbor whenever
  /// the pattern is connected without rails).
  std::vector<Vertex> order;
  /// False when a used pattern global has no same-named host net — no
  /// instance can exist.
  bool feasible = true;

  Prep(const Netlist& pattern, const Netlist& host) : sg(pattern), gg(host) {
    SUBG_CHECK_MSG(pattern.device_count() > 0, "pattern netlist has no devices");
    special_image.assign(sg.vertex_count(), kInvalid);
    host_bound.assign(gg.vertex_count(), false);
    for (Vertex v = 0; v < sg.vertex_count(); ++v) {
      if (!sg.is_special(v)) continue;
      auto hn = host.find_net(pattern.net_name(sg.net_of(v)));
      if (!hn) {
        if (sg.degree(v) > 0) feasible = false;
        continue;
      }
      special_image[v] = gg.vertex_of(*hn);
      host_bound[gg.vertex_of(*hn)] = true;
    }

    // BFS order over non-special vertices, crossing rails as connectors;
    // restarted per component (the baselines handle disconnected patterns,
    // unlike SubgraphMatcher).
    std::vector<bool> seen(sg.vertex_count(), false);
    std::vector<Vertex> queue;
    for (Vertex start = 0; start < sg.vertex_count(); ++start) {
      if (seen[start] || sg.is_special(start)) continue;
      queue.clear();
      queue.push_back(start);
      seen[start] = true;
      for (std::size_t head = 0; head < queue.size(); ++head) {
        Vertex v = queue[head];
        if (!sg.is_special(v)) order.push_back(v);
        for (const Vertex to : sg.neighbors(v)) {
          if (!seen[to]) {
            seen[to] = true;
            queue.push_back(to);
          }
        }
      }
    }
  }

  /// Static vertex-pair compatibility (kind, type, degree, rail exclusion).
  [[nodiscard]] bool compatible(Vertex s, Vertex g) const {
    if (sg.is_device(s) != gg.is_device(g)) return false;
    if (gg.is_net(g) && host_bound[g]) return false;  // claimed by a rail
    if (sg.is_device(s)) {
      return sg.initial_label(s) == gg.initial_label(g);
    }
    const Netlist& pnl = sg.netlist();
    const NetId pn = sg.net_of(s);
    const std::size_t sd = sg.degree(s);
    const std::size_t gd = gg.degree(g);
    return pnl.is_port(pn) ? gd >= sd : gd == sd;
  }

  /// Count of edges between u and w in `graph` carrying coefficient c.
  [[nodiscard]] static std::size_t edge_multiplicity(const CircuitGraph& graph,
                                                     Vertex u, Vertex w,
                                                     Label c) {
    std::size_t n = 0;
    const auto to = graph.neighbors(u);
    const auto coeff = graph.coefficients(u);
    for (std::size_t k = 0; k < to.size(); ++k) {
      if (to[k] == w && coeff[k] == c) ++n;
    }
    return n;
  }

  /// Check that all pattern edges from s to already-placed vertices are
  /// present between g and their images (with multiplicity).
  [[nodiscard]] bool edges_consistent(
      Vertex s, Vertex g, const std::vector<Vertex>& mapping) const {
    const auto to = sg.neighbors(s);
    const auto coeff = sg.coefficients(s);
    for (std::size_t k = 0; k < to.size(); ++k) {
      const Vertex image =
          sg.is_special(to[k]) ? special_image[to[k]] : mapping[to[k]];
      if (image == kInvalid) continue;  // not yet placed
      if (edge_multiplicity(gg, g, image, coeff[k]) <
          edge_multiplicity(sg, s, to[k], coeff[k])) {
        return false;
      }
    }
    return true;
  }

  /// Build a SubcircuitInstance from a full mapping; returns nullopt if the
  /// explicit verification rejects it.
  [[nodiscard]] std::optional<SubcircuitInstance> extract(
      const std::vector<Vertex>& mapping) const {
    SubcircuitInstance inst;
    inst.device_image.assign(sg.device_count(), DeviceId());
    inst.net_image.assign(sg.net_count(), NetId());
    for (Vertex v = 0; v < sg.vertex_count(); ++v) {
      Vertex image = sg.is_special(v) ? special_image[v] : mapping[v];
      if (image == kInvalid) {
        if (sg.is_special(v) && sg.degree(v) == 0) continue;
        return std::nullopt;
      }
      if (sg.is_device(v)) {
        inst.device_image[v] = gg.device_of(image);
      } else {
        inst.net_image[sg.net_of(v).index()] = gg.net_of(image);
      }
    }
    if (!verify_instance(sg.netlist(), gg.netlist(), inst)) return std::nullopt;
    return inst;
  }
};

/// Dedup key: sorted host device ids.
inline std::vector<std::uint32_t> device_set_key(const SubcircuitInstance& inst) {
  std::vector<std::uint32_t> key;
  key.reserve(inst.device_image.size());
  for (DeviceId d : inst.device_image) key.push_back(d.value);
  std::sort(key.begin(), key.end());
  return key;
}

}  // namespace subg::baseline_detail
