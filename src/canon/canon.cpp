#include "canon/canon.hpp"

#include <map>

#include "gemini/gemini.hpp"
#include "graph/circuit_graph.hpp"

namespace subg::canon {

std::vector<Label> refined_labels(const CircuitGraph& g,
                                  const Netlist& netlist,
                                  const CanonOptions& options) {
  std::vector<Label> labels(g.vertex_count());
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    Label base = g.initial_label(v);
    // Ports are part of the identity: mix the flag in.
    if (g.is_net(v) && netlist.is_port(g.net_of(v))) {
      base = hash_combine(base, hash_string("!port"));
    }
    labels[v] = base;
  }

  std::vector<Label> scratch(labels.size());
  std::size_t distinct_before = 0;
  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    for (Vertex v = 0; v < g.vertex_count(); ++v) {
      if (g.is_special(v)) {
        scratch[v] = labels[v];
        continue;
      }
      Label sum = 0;
      const auto to = g.neighbors(v);
      const auto coeff = g.coefficients(v);
      for (std::size_t k = 0; k < to.size(); ++k) {
        sum += edge_contribution(coeff[k], labels[to[k]]);
      }
      scratch[v] = relabel(labels[v], sum);
    }
    labels.swap(scratch);

    // Stop when the partition structure stabilizes.
    std::map<Label, std::size_t> parts;
    for (Label l : labels) ++parts[l];
    if (parts.size() == distinct_before) break;
    distinct_before = parts.size();
  }
  return labels;
}

Label fingerprint(const Netlist& netlist, const CanonOptions& options) {
  CircuitGraph g(netlist);
  const std::vector<Label> labels = refined_labels(g, netlist, options);

  // Order-free combination: histogram of final labels, hashed as sorted
  // (label, count) pairs, plus the overall shape.
  std::map<Label, std::size_t> parts;
  for (Label l : labels) ++parts[l];
  Label out = hash_combine(hash_string("!canon"),
                           static_cast<Label>(netlist.device_count()));
  out = hash_combine(out, static_cast<Label>(netlist.net_count()));
  for (const auto& [label, count] : parts) {
    out = hash_combine(out, hash_combine(label, static_cast<Label>(count)));
  }
  return out;
}

std::vector<std::vector<std::size_t>> isomorphism_classes(
    const std::vector<const Netlist*>& netlists, const CanonOptions& options) {
  std::map<Label, std::vector<std::size_t>> buckets;
  for (std::size_t i = 0; i < netlists.size(); ++i) {
    buckets[fingerprint(*netlists[i], options)].push_back(i);
  }

  std::vector<std::vector<std::size_t>> classes;
  for (auto& [hash, members] : buckets) {
    // Confirm within the bucket: fingerprints can (rarely) collide for
    // non-isomorphic inputs, never the reverse.
    std::vector<std::vector<std::size_t>> confirmed;
    for (std::size_t idx : members) {
      bool placed = false;
      for (auto& group : confirmed) {
        if (compare_netlists(*netlists[group.front()], *netlists[idx])
                .isomorphic) {
          group.push_back(idx);
          placed = true;
          break;
        }
      }
      if (!placed) confirmed.push_back({idx});
    }
    for (auto& group : confirmed) classes.push_back(std::move(group));
  }
  return classes;
}

}  // namespace subg::canon
