#include "lvs/lvs.hpp"

#include <map>
#include <sstream>

#include "graph/circuit_graph.hpp"
#include "reduce/reduce.hpp"

namespace subg::lvs {

namespace {

/// One synchronous refinement round over all vertices (both kinds at once —
/// diagnostics don't need the bipartite alternation).
void relabel(const CircuitGraph& g, std::vector<Label>& labels) {
  std::vector<Label> next(labels.size());
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    if (g.is_special(v)) {
      next[v] = labels[v];
      continue;
    }
    Label sum = 0;
    const auto to = g.neighbors(v);
    const auto coeff = g.coefficients(v);
    for (std::size_t k = 0; k < to.size(); ++k) {
      sum += edge_contribution(coeff[k], labels[to[k]]);
    }
    next[v] = subg::relabel(labels[v], sum);
  }
  labels.swap(next);
}

std::string vertex_display(const CircuitGraph& g, Vertex v) {
  return g.vertex_name(v);
}

/// Collect the unbalanced partitions of the current labeling.
std::vector<Mismatch> divergences(const CircuitGraph& ga,
                                  const CircuitGraph& gb,
                                  const std::vector<Label>& la,
                                  const std::vector<Label>& lb,
                                  std::size_t round, std::size_t cap) {
  std::map<Label, std::pair<std::vector<Vertex>, std::vector<Vertex>>> parts;
  for (Vertex v = 0; v < ga.vertex_count(); ++v) parts[la[v]].first.push_back(v);
  for (Vertex v = 0; v < gb.vertex_count(); ++v) parts[lb[v]].second.push_back(v);

  std::vector<Mismatch> out;
  for (const auto& [label, sides] : parts) {
    if (sides.first.size() == sides.second.size()) continue;
    Mismatch m;
    m.round = round;
    for (Vertex v : sides.first) m.left.push_back(vertex_display(ga, v));
    for (Vertex v : sides.second) m.right.push_back(vertex_display(gb, v));
    out.push_back(std::move(m));
    if (out.size() >= cap) break;
  }
  return out;
}

}  // namespace

LvsReport compare(const Netlist& left, const Netlist& right,
                  const LvsOptions& options) {
  LvsReport report;

  const Netlist* a = &left;
  const Netlist* b = &right;
  reduce::Reduced ra{Netlist(left.catalog_ptr()), {}};
  reduce::Reduced rb{Netlist(right.catalog_ptr()), {}};
  if (options.reduce_first) {
    ra = reduce::reduce_netlist(left);
    rb = reduce::reduce_netlist(right);
    a = &ra.netlist;
    b = &rb.netlist;
  }
  report.left_devices = a->device_count();
  report.right_devices = b->device_count();

  CompareResult cmp = compare_netlists(*a, *b, options.compare);
  if (cmp.isomorphic) {
    report.clean = true;
    report.summary = "netlists match (" + std::to_string(a->device_count()) +
                     " devices" +
                     (options.reduce_first ? ", after reduction)" : ")");
    return report;
  }
  report.summary = cmp.reason;

  // Localize: run lockstep refinement and report the first round whose
  // census is unbalanced.
  CircuitGraph ga(*a), gb(*b);
  std::vector<Label> la(ga.vertex_count()), lb(gb.vertex_count());
  for (Vertex v = 0; v < ga.vertex_count(); ++v) la[v] = ga.initial_label(v);
  for (Vertex v = 0; v < gb.vertex_count(); ++v) lb[v] = gb.initial_label(v);

  const std::size_t max_rounds =
      2 * (std::max(ga.vertex_count(), gb.vertex_count()) + 1);
  for (std::size_t round = 0; round <= max_rounds; ++round) {
    std::vector<Mismatch> found =
        divergences(ga, gb, la, lb, round, options.max_findings);
    if (!found.empty()) {
      report.mismatches = std::move(found);
      std::ostringstream os;
      os << report.summary << "; first divergence at refinement round "
         << round;
      report.summary = os.str();
      return report;
    }
    relabel(ga, la);
    relabel(gb, lb);
  }
  // Balanced at every round yet not isomorphic: a symmetric discrepancy
  // (caught by gemini's individuation). Report without localization.
  report.summary += "; divergence not localizable by refinement (symmetric)";
  return report;
}

}  // namespace subg::lvs
