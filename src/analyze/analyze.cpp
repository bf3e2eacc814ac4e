#include "analyze/analyze.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <ostream>
#include <set>
#include <utility>

#include "util/check.hpp"

namespace subg::analyze {

namespace {

std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t s = a + b;
  return s < a ? std::numeric_limits<std::uint64_t>::max() : s;
}

// --- automorphism search ---------------------------------------------------

/// Backtracking enumerator over WL-pruned candidate classes. Work is
/// bounded by max_search_nodes assignments and max_automorphisms results;
/// either cap marks the group incomplete (a sound under-approximation).
class AutomorphismSearch {
 public:
  AutomorphismSearch(const CircuitGraph& g, const Netlist& netlist,
                     const AnalyzeOptions& options)
      : g_(g), nl_(netlist), options_(options) {}

  Orbits run() {
    const std::size_t n = g_.vertex_count();
    Orbits out;
    out.orbit_of.resize(n);
    for (Vertex v = 0; v < n; ++v) out.orbit_of[v] = v;
    if (n == 0) return out;

    labels_ = canon::refined_labels(g_, nl_, options_.canon);
    perm_.assign(n, kUnassigned);
    used_.assign(n, false);

    // Assignment order: most-constrained (smallest WL class) first, ties by
    // vertex index — deterministic and it fails early on asymmetric parts.
    std::map<Label, std::size_t> class_size;
    for (Label l : labels_) ++class_size[l];
    order_.resize(n);
    for (Vertex v = 0; v < n; ++v) order_[v] = v;
    std::stable_sort(order_.begin(), order_.end(), [&](Vertex a, Vertex b) {
      return class_size[labels_[a]] < class_size[labels_[b]];
    });

    extend(0, out);

    // Fold the found automorphisms into orbits (union by minimum).
    for (const std::vector<Vertex>& sigma : out.automorphisms) {
      for (Vertex v = 0; v < n; ++v) {
        Vertex a = find(out.orbit_of, v);
        Vertex b = find(out.orbit_of, sigma[v]);
        if (a != b) out.orbit_of[std::max(a, b)] = std::min(a, b);
      }
    }
    for (Vertex v = 0; v < n; ++v) {
      out.orbit_of[v] = find(out.orbit_of, v);
    }
    out.complete = !truncated_;
    return out;
  }

 private:
  static constexpr Vertex kUnassigned = 0xFFFFFFFFu;

  static Vertex find(std::vector<Vertex>& parent, Vertex v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  }

  [[nodiscard]] bool vertex_compatible(Vertex v, Vertex w) const {
    if (labels_[v] != labels_[w]) return false;
    if (g_.is_device(v) != g_.is_device(w)) return false;
    if (g_.degree(v) != g_.degree(w)) return false;
    if (g_.is_device(v)) {
      return nl_.device_type(g_.device_of(v)) == nl_.device_type(g_.device_of(w));
    }
    const NetId nv = g_.net_of(v);
    const NetId nw = g_.net_of(w);
    // Globals are matched by name everywhere else, so an automorphism must
    // fix them; ports must stay ports (the matcher treats them differently).
    if (nl_.is_global(nv) || nl_.is_global(nw)) return v == w;
    return nl_.is_port(nv) == nl_.is_port(nw);
  }

  /// Partial consistency: every already-mapped neighbor of v must be a
  /// neighbor of w with the same per-coefficient multiplicity.
  [[nodiscard]] bool edges_consistent(Vertex v, Vertex w) const {
    const auto v_to = g_.neighbors(v);
    const auto v_coeff = g_.coefficients(v);
    const auto w_to = g_.neighbors(w);
    const auto w_coeff = g_.coefficients(w);
    for (std::size_t i = 0; i < v_to.size(); ++i) {
      if (perm_[v_to[i]] == kUnassigned) continue;
      std::size_t want = 0;
      for (std::size_t k = 0; k < v_to.size(); ++k) {
        if (v_to[k] == v_to[i] && v_coeff[k] == v_coeff[i]) ++want;
      }
      std::size_t have = 0;
      for (std::size_t k = 0; k < w_to.size(); ++k) {
        if (w_to[k] == perm_[v_to[i]] && w_coeff[k] == v_coeff[i]) ++have;
      }
      if (want != have) return false;
    }
    return true;
  }

  /// Full check at a leaf: the permutation preserves every edge multiset
  /// with coefficients (degrees already matched pairwise).
  [[nodiscard]] bool is_automorphism() const {
    std::vector<std::pair<Vertex, Label>> a;
    std::vector<std::pair<Vertex, Label>> b;
    for (Vertex v = 0; v < g_.vertex_count(); ++v) {
      a.clear();
      b.clear();
      const auto v_to = g_.neighbors(v);
      const auto v_coeff = g_.coefficients(v);
      for (std::size_t k = 0; k < v_to.size(); ++k) {
        a.emplace_back(perm_[v_to[k]], v_coeff[k]);
      }
      const auto w_to = g_.neighbors(perm_[v]);
      const auto w_coeff = g_.coefficients(perm_[v]);
      for (std::size_t k = 0; k < w_to.size(); ++k) {
        b.emplace_back(w_to[k], w_coeff[k]);
      }
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      if (a != b) return false;
    }
    return true;
  }

  void extend(std::size_t depth, Orbits& out) {
    if (truncated_) return;
    if (depth == order_.size()) {
      bool identity = true;
      for (Vertex v = 0; v < g_.vertex_count(); ++v) {
        if (perm_[v] != v) {
          identity = false;
          break;
        }
      }
      if (!identity && is_automorphism()) {
        out.automorphisms.push_back(perm_);
        if (out.automorphisms.size() + 1 >= options_.max_automorphisms) {
          truncated_ = true;
        }
      }
      return;
    }
    const Vertex v = order_[depth];
    for (Vertex w = 0; w < g_.vertex_count(); ++w) {
      if (used_[w] || !vertex_compatible(v, w)) continue;
      if (++nodes_ > options_.max_search_nodes) {
        truncated_ = true;
        return;
      }
      if (!edges_consistent(v, w)) continue;
      perm_[v] = w;
      used_[w] = true;
      extend(depth + 1, out);
      perm_[v] = kUnassigned;
      used_[w] = false;
      if (truncated_) return;
    }
  }

  const CircuitGraph& g_;
  const Netlist& nl_;
  const AnalyzeOptions& options_;
  std::vector<Label> labels_;
  std::vector<Vertex> perm_;
  std::vector<bool> used_;
  std::vector<Vertex> order_;
  std::size_t nodes_ = 0;
  bool truncated_ = false;
};

// --- path-label DP ---------------------------------------------------------

void count_closed_walks(const CircuitGraph& g, const Netlist& netlist,
                        std::size_t device_count, Side side,
                        const AnalyzeOptions& options, Vertex anchor,
                        std::uint64_t* out_counts,
                        std::vector<std::uint64_t>& cur,
                        std::vector<std::uint64_t>& nxt,
                        std::vector<Vertex>& frontier,
                        std::vector<Vertex>& next_frontier) {
  const std::size_t classes = PathLabels::kTrackedDegrees.size();
  const auto net_allowed = [&](Vertex v, std::uint32_t d) {
    if (g.degree(v) != d) return false;
    if (side == Side::kPattern) {
      // Pattern walks stay on internal non-global nets: their host images
      // are induced (exact degree), so the injection into host walks of the
      // same class is guaranteed. Host walks impose no such restriction —
      // the host count must upper-bound every possible image.
      if (g.is_special(v)) return false;
      if (netlist.is_port(NetId(static_cast<std::uint32_t>(
              v - device_count)))) {
        return false;
      }
    }
    return true;
  };

  for (std::size_t c = 0; c < classes; ++c) {
    const std::uint32_t d = PathLabels::kTrackedDegrees[c];
    const bool anchor_is_net = anchor >= device_count;
    if (anchor_is_net && !net_allowed(anchor, d)) {
      out_counts[c] = 0;
      continue;
    }
    frontier.clear();
    frontier.push_back(anchor);
    cur[anchor] = 1;
    for (std::size_t step = 0; step < options.walk_steps; ++step) {
      next_frontier.clear();
      for (const Vertex v : frontier) {
        const std::uint64_t val = cur[v];
        for (const Vertex w : g.neighbors(v)) {
          if (w >= device_count && !net_allowed(w, d)) continue;
          if (nxt[w] == 0) next_frontier.push_back(w);
          nxt[w] = sat_add(nxt[w], val);
        }
      }
      for (const Vertex v : frontier) cur[v] = 0;
      cur.swap(nxt);
      frontier.swap(next_frontier);
    }
    out_counts[c] = cur[anchor];
    for (const Vertex v : frontier) cur[v] = 0;
  }
}

}  // namespace

// --- orbits ----------------------------------------------------------------

std::size_t Orbits::orbit_count() const {
  std::size_t n = 0;
  for (Vertex v = 0; v < orbit_of.size(); ++v) {
    if (orbit_of[v] == v) ++n;
  }
  return n;
}

std::size_t Orbits::nontrivial_orbit_count() const {
  std::map<Vertex, std::size_t> sizes;
  for (Vertex rep : orbit_of) ++sizes[rep];
  std::size_t n = 0;
  for (const auto& [rep, size] : sizes) {
    if (size > 1) ++n;
  }
  return n;
}

Orbits find_orbits(const CircuitGraph& g, const Netlist& netlist,
                   const AnalyzeOptions& options) {
  return AutomorphismSearch(g, netlist, options).run();
}

// --- path labels -----------------------------------------------------------

PathLabels build_path_labels(const CircuitGraph& g, const Netlist& netlist,
                             Side side, const AnalyzeOptions& options) {
  SUBG_CHECK_MSG(options.walk_steps % 2 == 0,
                 "path-label walk length must be even (bipartite closure)");
  const std::size_t n = g.vertex_count();
  const std::size_t classes = PathLabels::kTrackedDegrees.size();
  PathLabels out;
  out.walk_steps = options.walk_steps;
  out.vertex_count = n;
  out.counts.assign(n * classes, 0);
  std::vector<std::uint64_t> cur(n, 0);
  std::vector<std::uint64_t> nxt(n, 0);
  std::vector<Vertex> frontier;
  std::vector<Vertex> next_frontier;
  for (Vertex v = 0; v < n; ++v) {
    count_closed_walks(g, netlist, netlist.device_count(), side, options, v,
                       out.counts.data() + v * classes, cur, nxt, frontier,
                       next_frontier);
  }
  return out;
}


PathLabels rebase_path_labels(const PathLabels& old_labels,
                              const CircuitGraph& new_graph,
                              const Netlist& netlist,
                              const std::vector<Vertex>& new_to_old,
                              const std::vector<Vertex>& dirty_seed,
                              const AnalyzeOptions& options) {
  SUBG_CHECK_MSG(old_labels.walk_steps == options.walk_steps,
                 "path-label rebase with mismatched walk length");
  const std::size_t n = new_graph.vertex_count();
  const std::size_t classes = PathLabels::kTrackedDegrees.size();
  PathLabels out;
  out.walk_steps = options.walk_steps;
  out.vertex_count = n;
  out.counts.assign(n * classes, 0);

  // The dirty cone: every anchor within walk_steps hops of a seed (its
  // radius-L ball saw an edge/degree/flag change), plus fresh vertices.
  std::vector<bool> dirty(n, false);
  std::vector<Vertex> frontier;
  for (Vertex v : dirty_seed) {
    if (v < n && !dirty[v]) {
      dirty[v] = true;
      frontier.push_back(v);
    }
  }
  for (Vertex v = 0; v < n; ++v) {
    if (new_to_old[v] == kNoPredecessor && !dirty[v]) {
      dirty[v] = true;
      frontier.push_back(v);
    }
  }
  std::vector<Vertex> next;
  for (std::size_t hop = 0; hop < options.walk_steps && !frontier.empty();
       ++hop) {
    next.clear();
    for (const Vertex v : frontier) {
      for (const Vertex to : new_graph.neighbors(v)) {
        if (!dirty[to]) {
          dirty[to] = true;
          next.push_back(to);
        }
      }
    }
    frontier.swap(next);
  }

  std::vector<std::uint64_t> cur(n, 0);
  std::vector<std::uint64_t> nxt(n, 0);
  std::vector<Vertex> walk_frontier;
  std::vector<Vertex> walk_next;
  for (Vertex v = 0; v < n; ++v) {
    if (!dirty[v]) {
      const Vertex old = new_to_old[v];
      for (std::size_t c = 0; c < classes; ++c) {
        out.counts[v * classes + c] = old_labels.counts[old * classes + c];
      }
      continue;
    }
    count_closed_walks(new_graph, netlist, netlist.device_count(), Side::kHost,
                       options, v, out.counts.data() + v * classes, cur, nxt,
                       walk_frontier, walk_next);
  }
  return out;
}

// --- infeasibility certificates --------------------------------------------

std::optional<Certificate> check_feasibility(const Netlist& pattern,
                                             const Netlist& host) {
  // Rule 1: device-type counts must dominate (every pattern device needs a
  // distinct same-type host device).
  {
    const NetlistStats ps = pattern.stats();
    const NetlistStats hs = host.stats();
    std::map<std::string, std::uint64_t> host_types;
    for (const auto& [type, count] : hs.devices_by_type) {
      host_types[type] = count;
    }
    for (const auto& [type, count] : ps.devices_by_type) {
      const auto it = host_types.find(type);
      const std::uint64_t have = it == host_types.end() ? 0 : it->second;
      if (count > have) {
        Certificate cert;
        cert.rule = "device_type_deficit";
        cert.subject = type;
        cert.pattern_count = count;
        cert.host_count = have;
        cert.detail = "pattern instantiates " + std::to_string(count) + " '" +
                      type + "' device(s) but the host has only " +
                      std::to_string(have);
        return cert;
      }
    }
  }

  // Rule 2: every used pattern global must resolve by name (Phase II
  // refuses the whole search otherwise; this states the reason).
  for (std::uint32_t i = 0; i < pattern.net_count(); ++i) {
    const NetId n(i);
    if (!pattern.is_global(n) || pattern.net_degree(n) == 0) continue;
    if (!host.find_net(pattern.net_name(n)).has_value()) {
      Certificate cert;
      cert.rule = "missing_global_net";
      cert.subject = pattern.net_name(n);
      cert.pattern_count = 1;
      cert.host_count = 0;
      cert.detail = "pattern global net '" + pattern.net_name(n) +
                    "' has no same-named net in the host";
      return cert;
    }
  }

  // Host net-degree histogram, shared by rules 3 and 4.
  std::map<std::uint64_t, std::uint64_t> host_degrees;
  std::vector<std::uint64_t> host_degree_list;
  host_degree_list.reserve(host.net_count());
  for (std::uint32_t i = 0; i < host.net_count(); ++i) {
    const std::uint64_t d = host.net_degree(NetId(i));
    ++host_degrees[d];
    host_degree_list.push_back(d);
  }

  // Rule 3: internal (non-port, non-global) pattern nets are induced — each
  // needs its own host net of exactly its degree.
  std::map<std::uint64_t, std::uint64_t> internal_degrees;
  for (std::uint32_t i = 0; i < pattern.net_count(); ++i) {
    const NetId n(i);
    if (pattern.is_global(n) || pattern.is_port(n)) continue;
    ++internal_degrees[pattern.net_degree(n)];
  }
  for (const auto& [degree, count] : internal_degrees) {
    const auto it = host_degrees.find(degree);
    const std::uint64_t have = it == host_degrees.end() ? 0 : it->second;
    if (count > have) {
      Certificate cert;
      cert.rule = "internal_net_degree_deficit";
      cert.degree = degree;
      cert.pattern_count = count;
      cert.host_count = have;
      cert.detail = "pattern has " + std::to_string(count) +
                    " internal net(s) of degree " + std::to_string(degree) +
                    " but the host has only " + std::to_string(have) +
                    " net(s) of that exact degree";
      return cert;
    }
  }

  // Rule 4: port nets only need host degree >=, so sorted-descending greedy
  // assignment is exact for the one-sided constraint.
  std::vector<std::uint64_t> port_degrees;
  for (const NetId n : pattern.ports()) {
    if (pattern.is_global(n)) continue;
    port_degrees.push_back(pattern.net_degree(n));
  }
  std::sort(port_degrees.rbegin(), port_degrees.rend());
  std::sort(host_degree_list.rbegin(), host_degree_list.rend());
  for (std::size_t k = 0; k < port_degrees.size(); ++k) {
    if (k >= host_degree_list.size() || host_degree_list[k] < port_degrees[k]) {
      Certificate cert;
      cert.rule = "port_net_degree_deficit";
      cert.degree = port_degrees[k];
      cert.pattern_count = k + 1;
      cert.host_count =
          k < host_degree_list.size() ? host_degree_list[k] : 0;
      cert.detail = "pattern needs " + std::to_string(k + 1) +
                    " distinct host net(s) of degree >= " +
                    std::to_string(port_degrees[k]) +
                    " for its ports; the host cannot supply them";
      return cert;
    }
  }

  return std::nullopt;
}

// --- combined report -------------------------------------------------------

AnalysisReport analyze(const Netlist& pattern, const Netlist* host,
                       const AnalyzeOptions& options) {
  AnalysisReport report;
  report.pattern_devices = pattern.device_count();
  report.pattern_nets = pattern.net_count();
  report.walk_steps = options.walk_steps;

  const CircuitGraph g(pattern);
  const Orbits orbits = find_orbits(g, pattern, options);
  report.orbit_count = orbits.orbit_count();
  report.nontrivial_orbit_count = orbits.nontrivial_orbit_count();
  report.automorphism_count = orbits.automorphisms.size();
  report.automorphisms_complete = orbits.complete;
  std::map<Vertex, std::vector<Vertex>> members;
  for (Vertex v = 0; v < orbits.orbit_of.size(); ++v) {
    members[orbits.orbit_of[v]].push_back(v);
  }
  for (const auto& [rep, group] : members) {
    if (group.size() < 2) continue;
    std::vector<std::string> names;
    names.reserve(group.size());
    for (const Vertex v : group) names.push_back(g.vertex_name(v));
    report.orbits.push_back(std::move(names));
  }

  const PathLabels paths =
      build_path_labels(g, pattern, Side::kPattern, options);
  std::set<std::vector<std::uint64_t>> signatures;
  const std::size_t classes = PathLabels::kTrackedDegrees.size();
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    signatures.insert(std::vector<std::uint64_t>(
        paths.counts.begin() + static_cast<std::ptrdiff_t>(v * classes),
        paths.counts.begin() + static_cast<std::ptrdiff_t>((v + 1) * classes)));
  }
  report.path_classes = signatures.size();

  if (host != nullptr) {
    report.host_checked = true;
    report.host_name = host->name();
    report.certificate = check_feasibility(pattern, *host);
  }
  return report;
}

void write_text(const AnalysisReport& report, std::ostream& out) {
  out << "pattern: " << report.pattern_devices << " device(s), "
      << report.pattern_nets << " net(s)\n";
  out << "orbits: " << report.orbit_count << " ("
      << report.nontrivial_orbit_count << " non-trivial), "
      << report.automorphism_count << " non-identity automorphism(s)"
      << (report.automorphisms_complete ? "" : " [truncated]") << "\n";
  for (const std::vector<std::string>& group : report.orbits) {
    out << "  orbit:";
    for (const std::string& name : group) out << ' ' << name;
    out << '\n';
  }
  out << "path labels: walk length " << report.walk_steps << ", "
      << report.path_classes << " distinct signature class(es)\n";
  if (report.host_checked) {
    if (report.certificate.has_value()) {
      const Certificate& cert = *report.certificate;
      out << "host '" << report.host_name
          << "': INFEASIBLE (" << cert.rule << ")\n  " << cert.detail << '\n';
    } else {
      out << "host '" << report.host_name
          << "': no static refutation (search required)\n";
    }
  }
  out.flush();
}

}  // namespace subg::analyze
