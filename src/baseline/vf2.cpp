// VF2-style adjacency-directed depth-first matcher — the paper's "simple
// approach": exhaustively search from a start vertex, extending a partial
// mapping one vertex at a time (§IV, ref [6]). No partition refinement, no
// candidate filtering beyond local feasibility; wrong early guesses cost
// exponential time, which is exactly what SubGemini's Phase II avoids.
#include <unordered_set>

#include "baseline/baseline.hpp"
#include "baseline/common.hpp"
#include "util/timer.hpp"

namespace subg {

namespace {

using baseline_detail::kInvalid;
using baseline_detail::Prep;

struct Vf2Search {
  const Prep& prep;
  const BaselineOptions& options;
  BaselineResult& result;
  std::vector<Vertex> mapping;       // pattern vertex → host vertex
  std::vector<bool> used;            // host vertex claimed
  std::set<std::vector<std::uint32_t>> seen;

  Vf2Search(const Prep& p, const BaselineOptions& o, BaselineResult& r)
      : prep(p), options(o), result(r) {
    mapping.assign(prep.sg.vertex_count(), kInvalid);
    used.assign(prep.gg.vertex_count(), false);
  }

  [[nodiscard]] bool done() const {
    return result.instances.size() >= options.max_matches ||
           !result.status.complete();
  }

  /// Candidate host vertices for pattern vertex s given the current partial
  /// mapping: neighbors of an assigned neighbor's image (through the right
  /// pin class), falling back to a rail's fanout, falling back to a full
  /// host scan for the very first vertex.
  void candidates(Vertex s, std::vector<Vertex>* out) const {
    out->clear();
    // Prefer an assigned non-special neighbor: its image's adjacency is the
    // tightest candidate source.
    const auto s_to = prep.sg.neighbors(s);
    const auto s_coeff = prep.sg.coefficients(s);
    // Host neighbors of `from` reached through coefficient `c`.
    auto push_through = [&](Vertex from, Label c) {
      const auto g_to = prep.gg.neighbors(from);
      const auto g_coeff = prep.gg.coefficients(from);
      for (std::size_t j = 0; j < g_to.size(); ++j) {
        if (g_coeff[j] == c) out->push_back(g_to[j]);
      }
      dedup(out);
    };
    for (std::size_t k = 0; k < s_to.size(); ++k) {
      const Vertex img =
          prep.sg.is_special(s_to[k]) ? kInvalid : mapping[s_to[k]];
      if (img == kInvalid) continue;
      push_through(img, s_coeff[k]);
      return;
    }
    for (std::size_t k = 0; k < s_to.size(); ++k) {
      if (!prep.sg.is_special(s_to[k])) continue;
      const Vertex rail = prep.special_image[s_to[k]];
      if (rail == kInvalid) continue;
      push_through(rail, s_coeff[k]);
      return;
    }
    // First vertex (or disconnected pattern handled by caller's contract).
    for (Vertex g = 0; g < prep.gg.vertex_count(); ++g) out->push_back(g);
  }

  static void dedup(std::vector<Vertex>* v) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  }

  void search(std::size_t depth) {
    if (done()) return;
    if (depth == prep.order.size()) {
      if (auto inst = prep.extract(mapping)) {
        if (seen.insert(baseline_detail::device_set_key(*inst)).second) {
          result.instances.push_back(std::move(*inst));
        }
      }
      return;
    }
    const Vertex s = prep.order[depth];
    std::vector<Vertex> cands;
    candidates(s, &cands);
    for (Vertex g : cands) {
      if (done()) return;
      if (++result.nodes_explored > options.node_budget) {
        result.budget_exhausted = true;
        result.status.escalate(RunOutcome::kTruncated,
                               "vf2: search-node budget exhausted; instance "
                               "count is a lower bound");
        return;
      }
      RunOutcome why;
      if (options.budget.interrupted(&why)) {
        result.status.escalate(why, std::string("vf2: ") + to_string(why) +
                                        " during the search");
        return;
      }
      if (used[g] || !prep.compatible(s, g)) continue;
      if (!prep.edges_consistent(s, g, mapping)) continue;
      mapping[s] = g;
      used[g] = true;
      search(depth + 1);
      mapping[s] = kInvalid;
      used[g] = false;
    }
  }
};

}  // namespace

BaselineResult match_vf2(const Netlist& pattern, const Netlist& host,
                         const BaselineOptions& options) {
  Timer timer;
  BaselineResult result;
  Prep prep(pattern, host);
  if (prep.feasible) {
    Vf2Search search(prep, options, result);
    search.search(0);
  }
  result.seconds = timer.seconds();
  return result;
}

}  // namespace subg
