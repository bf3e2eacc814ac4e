#include "gemini/gemini.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>

#include "graph/circuit_graph.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace subg {

namespace {

struct GeminiState {
  const CircuitGraph& a;
  const CircuitGraph& b;
  std::vector<Label> label_a, label_b;
  std::vector<Label> scratch_a, scratch_b;
  SplitMix64 rng;

  GeminiState(const CircuitGraph& ga, const CircuitGraph& gb, std::uint64_t seed)
      : a(ga), b(gb), rng(seed) {
    label_a.resize(a.vertex_count());
    label_b.resize(b.vertex_count());
    for (Vertex v = 0; v < a.vertex_count(); ++v) label_a[v] = a.initial_label(v);
    for (Vertex v = 0; v < b.vertex_count(); ++v) label_b[v] = b.initial_label(v);
    scratch_a = label_a;
    scratch_b = label_b;
  }

  static void relabel_graph(const CircuitGraph& g, const std::vector<Label>& old_l,
                            std::vector<Label>& new_l) {
    for (Vertex v = 0; v < g.vertex_count(); ++v) {
      if (g.is_special(v)) {
        new_l[v] = old_l[v];  // rails keep their name labels
        continue;
      }
      Label sum = 0;
      const auto to = g.neighbors(v);
      const auto coeff = g.coefficients(v);
      for (std::size_t k = 0; k < to.size(); ++k) {
        sum += edge_contribution(coeff[k], old_l[to[k]]);
      }
      new_l[v] = relabel(old_l[v], sum);
    }
  }

  void relabel_round() {
    relabel_graph(a, label_a, scratch_a);
    relabel_graph(b, label_b, scratch_b);
    label_a.swap(scratch_a);
    label_b.swap(scratch_b);
  }

  /// Partition census: label → (count in a, count in b, sample vertices).
  struct Census {
    std::map<Label, std::pair<std::size_t, std::size_t>> counts;
    bool balanced = true;
    std::size_t partitions = 0;
    std::size_t singletons = 0;
  };

  [[nodiscard]] Census census() const {
    Census c;
    for (Vertex v = 0; v < a.vertex_count(); ++v) ++c.counts[label_a[v]].first;
    for (Vertex v = 0; v < b.vertex_count(); ++v) ++c.counts[label_b[v]].second;
    for (const auto& [lbl, cnt] : c.counts) {
      if (cnt.first != cnt.second) c.balanced = false;
      ++c.partitions;
      if (cnt.first == 1 && cnt.second == 1) ++c.singletons;
    }
    return c;
  }
};

/// Verify an all-singleton label correspondence edge-by-edge and build the
/// explicit mapping.
bool finalize(const GeminiState& st, CompareResult* out) {
  const CircuitGraph& a = st.a;
  const CircuitGraph& b = st.b;
  std::unordered_map<Label, Vertex> where_b;
  where_b.reserve(b.vertex_count());
  for (Vertex v = 0; v < b.vertex_count(); ++v) {
    if (!where_b.emplace(st.label_b[v], v).second) return false;
  }
  std::vector<Vertex> map_ab(a.vertex_count());
  for (Vertex v = 0; v < a.vertex_count(); ++v) {
    auto it = where_b.find(st.label_a[v]);
    if (it == where_b.end()) return false;
    if (a.is_device(v) != b.is_device(it->second)) return false;
    map_ab[v] = it->second;
  }

  const Netlist& na = a.netlist();
  const Netlist& nb = b.netlist();
  for (std::uint32_t d = 0; d < na.device_count(); ++d) {
    const DeviceId ad(d);
    const DeviceId bd = b.device_of(map_ab[a.vertex_of(ad)]);
    const DeviceTypeInfo& at = na.device_type_info(ad);
    const DeviceTypeInfo& bt = nb.device_type_info(bd);
    if (at.name != bt.name || at.pin_class != bt.pin_class) return false;
    auto apins = na.device_pins(ad);
    auto bpins = nb.device_pins(bd);
    if (apins.size() != bpins.size()) return false;
    std::vector<std::pair<std::uint32_t, Vertex>> want, have;
    for (std::uint32_t p = 0; p < apins.size(); ++p) {
      want.emplace_back(at.pin_class[p], map_ab[a.vertex_of(apins[p])]);
      have.emplace_back(bt.pin_class[p], b.vertex_of(bpins[p]));
    }
    std::sort(want.begin(), want.end());
    std::sort(have.begin(), have.end());
    if (want != have) return false;
  }

  out->device_map.assign(na.device_count(), DeviceId());
  out->net_map.assign(na.net_count(), NetId());
  for (Vertex v = 0; v < a.vertex_count(); ++v) {
    if (a.is_device(v)) {
      out->device_map[v] = b.device_of(map_ab[v]);
    } else {
      out->net_map[a.net_of(v).index()] = b.net_of(map_ab[v]);
    }
  }
  return true;
}

/// Severity-ordered outcome escalation (see RunStatus::escalate).
void escalate(CompareResult* out, RunOutcome to) {
  if (static_cast<int>(to) > static_cast<int>(out->outcome)) out->outcome = to;
}

/// Refine until all-singleton (try finalize), imbalanced (fail), or stall
/// (individuate + recurse).
bool solve(GeminiState& st, const CompareOptions& options, CompareResult* out) {
  std::size_t prev_partitions = 0;
  while (out->rounds < options.max_rounds) {
    RunOutcome why;
    if (options.budget.interrupted(&why)) {
      escalate(out, why);
      out->reason =
          std::string(to_string(why)) + " before refinement converged";
      return false;
    }
    GeminiState::Census c = st.census();
    if (!c.balanced) {
      out->reason = "partition sizes diverge after " +
                    std::to_string(out->rounds) + " refinement rounds";
      return false;
    }
    if (c.singletons == c.partitions &&
        c.partitions == st.a.vertex_count()) {
      if (finalize(st, out)) return true;
      out->reason = "label correspondence failed edge verification";
      return false;
    }
    if (c.partitions == prev_partitions) {
      // Stall: automorphism symmetry. Individuate the first vertex of the
      // smallest non-singleton partition of `a` against each choice in `b`.
      Label target = kNoLabel;
      std::size_t best = 0;
      for (const auto& [lbl, cnt] : c.counts) {
        if (cnt.first >= 2 && (target == kNoLabel || cnt.first < best)) {
          target = lbl;
          best = cnt.first;
        }
      }
      if (target == kNoLabel) {
        out->reason = "refinement stalled without non-singleton partitions";
        return false;
      }
      Vertex va = 0;
      while (st.label_a[va] != target) ++va;
      Label fresh;
      do {
        fresh = st.rng();
      } while (fresh == kNoLabel);
      const std::vector<Label> save_a = st.label_a;
      const std::vector<Label> save_b = st.label_b;
      for (Vertex vb = 0; vb < st.b.vertex_count(); ++vb) {
        if (st.label_b[vb] != target) continue;
        if (++out->individuations > options.max_individuations) {
          out->reason = "individuation budget exhausted";
          escalate(out, RunOutcome::kTruncated);
          return false;
        }
        st.label_a[va] = fresh;
        st.label_b[vb] = fresh;
        CompareResult attempt = *out;
        if (solve(st, options, &attempt)) {
          *out = attempt;
          return true;
        }
        out->rounds = attempt.rounds;
        out->individuations = attempt.individuations;
        if (attempt.outcome != RunOutcome::kComplete) {
          // A branch that was cut short (not refuted) poisons completeness;
          // keep its explanation in case we end up failing overall.
          escalate(out, attempt.outcome);
          out->reason = attempt.reason;
        }
        st.label_a = save_a;
        st.label_b = save_b;
      }
      if (out->outcome == RunOutcome::kComplete) {
        out->reason = "no consistent individuation for a symmetric partition";
      }
      return false;
    }
    prev_partitions = c.partitions;
    st.relabel_round();
    ++out->rounds;
  }
  out->reason = "round budget exhausted";
  escalate(out, RunOutcome::kTruncated);
  return false;
}

}  // namespace

CompareResult compare_netlists(const Netlist& a, const Netlist& b,
                               const CompareOptions& options) {
  CompareResult result;
  if (a.device_count() != b.device_count()) {
    result.reason = "device counts differ (" + std::to_string(a.device_count()) +
                    " vs " + std::to_string(b.device_count()) + ")";
    return result;
  }
  if (a.net_count() != b.net_count()) {
    result.reason = "net counts differ (" + std::to_string(a.net_count()) +
                    " vs " + std::to_string(b.net_count()) + ")";
    return result;
  }
  CircuitGraph ga(a), gb(b);
  GeminiState st(ga, gb, options.seed);
  if (solve(st, options, &result)) {
    result.isomorphic = true;
    result.reason.clear();
    // A found-and-verified correspondence is definitive even if some other
    // branch was cut short along the way.
    result.outcome = RunOutcome::kComplete;
  }
  return result;
}

}  // namespace subg
