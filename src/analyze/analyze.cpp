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

std::uint64_t sat_square(std::uint64_t a) {
  return a >> 32 != 0 ? std::numeric_limits<std::uint64_t>::max() : a * a;
}

/// Fibonacci hash of a vertex; the caller masks it to the table size.
std::size_t scatter(Vertex v) {
  return static_cast<std::size_t>((v * 0x9E3779B97F4A7C15ull) >> 32);
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

/// The closed-walk counts of one anchor, written to out_counts[0..classes).
/// A closed walk of walk_steps steps is a walk of half that length out to
/// some vertex u and one back, and the walks back from u are the walks out
/// to u reversed, so the count is the sum over u of W(u)², where W(u)
/// counts the half-length walks from the anchor to u. Only the anchor's
/// ball of radius walk_steps / 2 is visited. Values live in the scratch's
/// ball-local slots and saturate; saturation is monotone, so a saturated
/// count is exactly the saturated true count.
void count_closed_walks(const CircuitGraph& g, const Netlist& netlist,
                        Side side, std::size_t walk_steps, Vertex anchor,
                        std::uint64_t* out_counts, WalkScratch& ws) {
  const std::size_t classes = PathLabels::kTrackedDegrees.size();
  const auto net_allowed = [&](Vertex v, std::uint32_t d) {
    if (g.degree(v) != d) return false;
    if (side == Side::kPattern) {
      // Pattern walks stay on internal non-global nets: their host images
      // are induced (exact degree), so the injection into host walks of the
      // same class is guaranteed. Host walks impose no such restriction —
      // the host count must upper-bound every possible image.
      if (g.is_special(v)) return false;
      if (netlist.is_port(g.net_of(v))) return false;
    }
    return true;
  };

  ws.clear();
  for (std::size_t c = 0; c < classes; ++c) {
    const std::uint32_t d = PathLabels::kTrackedDegrees[c];
    if (g.is_net(anchor) && !net_allowed(anchor, d)) {
      out_counts[c] = 0;
      continue;
    }
    const std::uint32_t home = ws.slot(anchor);
    std::size_t p = 0;  // parity of the current step's values
    ws.frontier.assign(1, home);
    ws.value[p][home] = 1;
    for (std::size_t step = 0; step < walk_steps / 2; ++step) {
      ws.next.clear();
      for (const std::uint32_t i : ws.frontier) {
        const std::uint64_t val = ws.value[p][i];
        for (const Vertex w : g.neighbors(ws.vertex[i])) {
          if (g.is_net(w) && !net_allowed(w, d)) continue;
          const std::uint32_t j = ws.slot(w);
          std::uint64_t& acc = ws.value[p ^ 1][j];
          if (acc == 0) ws.next.push_back(j);
          acc = sat_add(acc, val);
        }
      }
      for (const std::uint32_t i : ws.frontier) ws.value[p][i] = 0;
      p ^= 1;
      ws.frontier.swap(ws.next);
    }
    std::uint64_t closed = 0;
    for (const std::uint32_t i : ws.frontier) {
      closed = sat_add(closed, sat_square(ws.value[p][i]));
      ws.value[p][i] = 0;
    }
    out_counts[c] = closed;
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

std::uint32_t WalkScratch::slot(Vertex v) {
  if (2 * (vertex.size() + 1) > index_.size()) grow();
  const std::size_t mask = index_.size() - 1;
  std::size_t h = scatter(v) & mask;
  while (index_[h] != 0) {
    if (vertex[index_[h] - 1] == v) return index_[h] - 1;
    h = (h + 1) & mask;
  }
  const auto s = static_cast<std::uint32_t>(vertex.size());
  index_[h] = s + 1;
  home_.push_back(static_cast<std::uint32_t>(h));
  vertex.push_back(v);
  value[0].push_back(0);
  value[1].push_back(0);
  return s;
}

void WalkScratch::grow() {
  index_.assign(std::max<std::size_t>(64, 2 * index_.size()), 0);
  const std::size_t mask = index_.size() - 1;
  for (std::uint32_t s = 0; s < vertex.size(); ++s) {
    std::size_t h = scatter(vertex[s]) & mask;
    while (index_[h] != 0) h = (h + 1) & mask;
    index_[h] = s + 1;
    home_[s] = static_cast<std::uint32_t>(h);
  }
}

void WalkScratch::clear() {
  for (const std::uint32_t h : home_) index_[h] = 0;
  home_.clear();
  vertex.clear();
  value[0].clear();
  value[1].clear();
}

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
  WalkScratch scratch;
  for (Vertex v = 0; v < n; ++v) {
    count_closed_walks(g, netlist, side, options.walk_steps, v,
                       out.counts.data() + v * classes, scratch);
  }
  return out;
}

HostPathLabels::HostPathLabels(const CircuitGraph& host,
                               const AnalyzeOptions& options)
    : g_(&host),
      walk_steps_(options.walk_steps),
      counts_(std::make_unique_for_overwrite<std::uint64_t[]>(
          host.vertex_count() * PathLabels::kTrackedDegrees.size())),
      state_(std::make_unique<std::atomic<std::uint8_t>[]>(
          host.vertex_count())) {
  SUBG_CHECK_MSG(options.walk_steps % 2 == 0,
                 "path-label walk length must be even (bipartite closure)");
}

HostPathLabels::Counts HostPathLabels::fill(Vertex g,
                                            WalkScratch& scratch) const {
  Counts out{};
  count_closed_walks(*g_, g_->netlist(), Side::kHost, walk_steps_, g,
                     out.data(), scratch);
  std::uint8_t expected = kEmpty;
  if (state_[g].compare_exchange_strong(expected, kFilling)) {
    for (std::size_t c = 0; c < out.size(); ++c) {
      counts_[g * out.size() + c] = out[c];
    }
    state_[g].store(kReady, std::memory_order_release);
  }
  return out;
}

std::size_t HostPathLabels::filled_count() const {
  std::size_t n = 0;
  for (std::size_t v = 0; v < vertex_count(); ++v) {
    if (state_[v].load(std::memory_order_acquire) == kReady) ++n;
  }
  return n;
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
