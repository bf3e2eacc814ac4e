// Ullmann's subgraph-isomorphism algorithm (JACM 1976), adapted to labeled
// bipartite circuit graphs: a |S|×|G| candidate bit-matrix is initialized
// from vertex compatibility, refined to arc consistency, and searched
// depth-first with re-refinement after every tentative assignment. The
// generic, technology-independent comparison point for experiment E7.
#include <cstring>

#include "baseline/baseline.hpp"
#include "baseline/common.hpp"
#include "util/timer.hpp"

namespace subg {

namespace {

using baseline_detail::kInvalid;
using baseline_detail::Prep;

/// Flat bit matrix: rows = assignment order index, columns = host vertices.
class BitMatrix {
 public:
  BitMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), words_(static_cast<std::size_t>((cols + 63) / 64)),
        bits_(rows * words_, 0) {}

  [[nodiscard]] bool get(std::size_t r, std::size_t c) const {
    return (bits_[r * words_ + c / 64] >> (c % 64)) & 1u;
  }
  void set(std::size_t r, std::size_t c) {
    bits_[r * words_ + c / 64] |= std::uint64_t{1} << (c % 64);
  }
  void clear(std::size_t r, std::size_t c) {
    bits_[r * words_ + c / 64] &= ~(std::uint64_t{1} << (c % 64));
  }
  [[nodiscard]] bool row_empty(std::size_t r) const {
    for (std::size_t w = 0; w < words_; ++w) {
      if (bits_[r * words_ + w]) return false;
    }
    return true;
  }
  /// Iterate set columns of a row.
  template <class Fn>
  void for_each(std::size_t r, Fn&& fn) const {
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t word = bits_[r * words_ + w];
      while (word) {
        const int bit = __builtin_ctzll(word);
        fn(w * 64 + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

 private:
  std::size_t rows_, words_;
  std::vector<std::uint64_t> bits_;
};

struct UllmannSearch {
  const Prep& prep;
  const BaselineOptions& options;
  BaselineResult& result;
  /// order index per pattern vertex (kInvalid for specials).
  std::vector<std::uint32_t> row_of;
  std::set<std::vector<std::uint32_t>> seen;
  std::vector<Vertex> mapping;

  UllmannSearch(const Prep& p, const BaselineOptions& o, BaselineResult& r)
      : prep(p), options(o), result(r) {
    row_of.assign(prep.sg.vertex_count(), kInvalid);
    for (std::size_t i = 0; i < prep.order.size(); ++i) {
      row_of[prep.order[i]] = static_cast<std::uint32_t>(i);
    }
    mapping.assign(prep.sg.vertex_count(), kInvalid);
  }

  [[nodiscard]] BitMatrix initial_matrix() const {
    BitMatrix m(prep.order.size(), prep.gg.vertex_count());
    for (std::size_t r = 0; r < prep.order.size(); ++r) {
      const Vertex s = prep.order[r];
      for (Vertex g = 0; g < prep.gg.vertex_count(); ++g) {
        if (!prep.compatible(s, g)) continue;
        // Rail adjacency: edges to resolved globals must exist now.
        bool ok = true;
        const auto s_to = prep.sg.neighbors(s);
        const auto s_coeff = prep.sg.coefficients(s);
        for (std::size_t k = 0; k < s_to.size(); ++k) {
          if (!prep.sg.is_special(s_to[k])) continue;
          const Vertex rail = prep.special_image[s_to[k]];
          if (rail == kInvalid) continue;
          if (Prep::edge_multiplicity(prep.gg, g, rail, s_coeff[k]) <
              Prep::edge_multiplicity(prep.sg, s, s_to[k], s_coeff[k])) {
            ok = false;
            break;
          }
        }
        if (ok) m.set(r, g);
      }
    }
    return m;
  }

  /// Ullmann refinement to arc consistency. Returns false if a row empties
  /// (or the run is interrupted — the caller's status then explains why).
  [[nodiscard]] bool refine(BitMatrix& m) const {
    bool changed = true;
    while (changed) {
      changed = false;
      RunOutcome why;
      if (options.budget.interrupted(&why)) {
        result.status.escalate(why, std::string("ullmann: ") + to_string(why) +
                                        " during matrix refinement");
        return false;
      }
      for (std::size_t r = 0; r < prep.order.size(); ++r) {
        const Vertex s = prep.order[r];
        std::vector<std::size_t> to_clear;
        m.for_each(r, [&](std::size_t g) {
          const auto s_to = prep.sg.neighbors(s);
          const auto s_coeff = prep.sg.coefficients(s);
          const auto g_to = prep.gg.neighbors(static_cast<Vertex>(g));
          const auto g_coeff = prep.gg.coefficients(static_cast<Vertex>(g));
          for (std::size_t k = 0; k < s_to.size(); ++k) {
            if (prep.sg.is_special(s_to[k])) continue;  // handled in init
            const std::uint32_t nr = row_of[s_to[k]];
            bool witness = false;
            for (std::size_t j = 0; j < g_to.size(); ++j) {
              if (g_coeff[j] == s_coeff[k] && m.get(nr, g_to[j])) {
                witness = true;
                break;
              }
            }
            if (!witness) {
              to_clear.push_back(g);
              return;
            }
          }
        });
        for (std::size_t g : to_clear) m.clear(r, g);
        if (!to_clear.empty()) {
          changed = true;
          if (m.row_empty(r)) return false;
        }
      }
    }
    return true;
  }

  [[nodiscard]] bool done() const {
    return result.instances.size() >= options.max_matches ||
           !result.status.complete();
  }

  void search(std::size_t depth, const BitMatrix& m) {
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
    std::vector<std::size_t> cands;
    m.for_each(depth, [&](std::size_t g) { cands.push_back(g); });
    for (std::size_t g : cands) {
      if (done()) return;
      if (++result.nodes_explored > options.node_budget) {
        result.budget_exhausted = true;
        result.status.escalate(RunOutcome::kTruncated,
                               "ullmann: search-node budget exhausted; "
                               "instance count is a lower bound");
        return;
      }
      RunOutcome why;
      if (options.budget.interrupted(&why)) {
        result.status.escalate(why, std::string("ullmann: ") + to_string(why) +
                                        " during the search");
        return;
      }
      BitMatrix next = m;
      // Commit s→g: row becomes {g}, column g leaves every other row.
      for (std::size_t r = 0; r < prep.order.size(); ++r) {
        if (r != depth) next.clear(r, g);
      }
      std::vector<std::size_t> row_bits;
      next.for_each(depth, [&](std::size_t c) { row_bits.push_back(c); });
      for (std::size_t c : row_bits) {
        if (c != g) next.clear(depth, c);
      }
      if (!refine(next)) continue;
      mapping[s] = static_cast<Vertex>(g);
      search(depth + 1, next);
      mapping[s] = kInvalid;
    }
  }
};

}  // namespace

BaselineResult match_ullmann(const Netlist& pattern, const Netlist& host,
                             const BaselineOptions& options) {
  Timer timer;
  BaselineResult result;
  Prep prep(pattern, host);
  if (prep.feasible) {
    UllmannSearch search(prep, options, result);
    BitMatrix m = search.initial_matrix();
    if (search.refine(m)) {
      search.search(0, m);
    }
  }
  result.seconds = timer.seconds();
  return result;
}

}  // namespace subg
