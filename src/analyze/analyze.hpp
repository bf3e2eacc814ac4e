// Pre-search static analysis: everything the matcher can know about a
// pattern (and a pattern/host pairing) before Phase I runs.
//
// Three independent layers, each consumed by a different part of the
// matcher and all surfaced together through `subgemini analyze`:
//
//  1. Pattern automorphisms and orbits (find_orbits). Iterated WL
//     refinement (canon::refined_labels) partitions the pattern's vertices
//     into equivalence candidates; a small backtracking search then finds
//     the actual label/kind/port/coefficient-preserving automorphisms.
//     Exhaustive enumeration uses them to suppress automorphic copies of
//     completions it has already recorded (Phase2Stats::symmetry_skips) —
//     sound because the matcher-level device-set dedup collapses exactly
//     those copies anyway.
//
//  2. Supplemental path labels (build_path_labels, HostPathLabels). Per
//     vertex, the number of closed walks of length `walk_steps` whose net
//     vertices all have degree exactly d, for each tracked degree class d
//     — the path-at-a-time idea (Hassaan & Gouda) specialized to the
//     bipartite circuit graph. Patterns are counted eagerly; a host is
//     counted per anchor on the first query (HostPathLabels), so only the
//     anchors Phase II consults are paid for. Pattern-side walks are
//     restricted to internal non-global nets, whose host images are
//     induced (exactly equal degree, final verification enforces it); an
//     injective embedding maps every such pattern walk to a distinct host
//     walk in the same degree class, so pattern_count > host_count
//     refutes the candidate pair.
//     This kills decoy families the degree-sequence signature cannot see:
//     a 6-ring pattern has closed 12-walks that wrap the ring twice, a
//     12-ring host does not, even though every degree multiset agrees.
//     Counts saturate; saturation is monotone, so the comparison stays
//     sound.
//
//  3. Infeasibility certificates (check_feasibility). Label-histogram /
//     degree-multiset dominance checks that statically prove "this pattern
//     cannot occur in this host" — device-type counts, named global nets,
//     exact-degree coverage for internal nets, greedy lower-bound coverage
//     for ports. A certificate names the violated rule with both counts,
//     so a test (or a user) can re-derive the refutation, and lets
//     find/extract short-circuit the whole search
//     (MatchReport::infeasible_shortcuts).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "canon/canon.hpp"
#include "graph/circuit_graph.hpp"
#include "netlist/netlist.hpp"

namespace subg::analyze {

struct AnalyzeOptions {
  /// Closed-walk length in bipartite steps (device→net→…→device); must be
  /// even so walks return to their own side. 12 = six device hops, long
  /// enough to see a 6-ring wrap twice.
  std::size_t walk_steps = 12;
  /// Cap on enumerated automorphisms (identity included). Hitting the cap
  /// marks the group incomplete; suppression with a subset of the group is
  /// still sound, only less effective.
  std::size_t max_automorphisms = 256;
  /// Node budget for the automorphism backtracking search.
  std::size_t max_search_nodes = 1u << 16;
  canon::CanonOptions canon;
};

// --- layer 1: automorphisms / orbits ---------------------------------------

struct Orbits {
  /// orbit_of[v] = smallest vertex in v's orbit (the orbit representative).
  /// Identity partition when no non-trivial automorphism was found.
  std::vector<Vertex> orbit_of;
  /// Non-identity automorphisms, each a full vertex permutation. Bounded by
  /// AnalyzeOptions::max_automorphisms.
  std::vector<std::vector<Vertex>> automorphisms;
  /// False when a cap truncated the search: automorphisms/orbit_of are a
  /// sound under-approximation (never merge vertices wrongly).
  bool complete = true;

  [[nodiscard]] std::size_t orbit_count() const;
  [[nodiscard]] std::size_t nontrivial_orbit_count() const;
};

/// Enumerate the pattern's automorphism group (WL-pruned backtracking) and
/// fold it into orbits. Deterministic.
[[nodiscard]] Orbits find_orbits(const CircuitGraph& g, const Netlist& netlist,
                                 const AnalyzeOptions& options = {});

// --- layer 2: supplemental path labels -------------------------------------

struct PathLabels {
  /// Net-degree classes the walks are restricted to. Rails and buses fall
  /// outside and never dilute the counts.
  static constexpr std::array<std::uint32_t, 3> kTrackedDegrees{2, 3, 4};

  std::size_t walk_steps = 0;
  std::size_t vertex_count = 0;
  /// counts[v * kTrackedDegrees.size() + c] = saturating closed-walk count
  /// anchored at v through class-c nets.
  std::vector<std::uint64_t> counts;

  [[nodiscard]] std::uint64_t count(Vertex v, std::size_t cls) const {
    return counts[v * kTrackedDegrees.size() + cls];
  }

  /// Sound refuter: true ⟹ no embedding maps pattern vertex s onto host
  /// vertex g. Both sides must have been built with equal walk_steps.
  [[nodiscard]] static bool refutes(const PathLabels& pattern, Vertex s,
                                    const PathLabels& host, Vertex g) {
    const std::size_t n = kTrackedDegrees.size();
    for (std::size_t c = 0; c < n; ++c) {
      if (pattern.counts[s * n + c] > host.counts[g * n + c]) return true;
    }
    return false;
  }
};

/// Which side's walk restriction to apply: pattern walks may only use
/// internal (non-port) non-global nets — their images are induced; host
/// walks may use any net of the tracked degree (including rails), so the
/// host count is always an upper bound for images of pattern walks.
enum class Side { kPattern, kHost };

[[nodiscard]] PathLabels build_path_labels(const CircuitGraph& g,
                                           const Netlist& netlist, Side side,
                                           const AnalyzeOptions& options = {});

/// Scratch for one anchor's closed-walk DP. The vertices the anchor's walks
/// reach get dense slots through a small open-addressing index, so the
/// scratch grows with the largest ball counted so far, never with the host.
/// Reusable across anchors and graphs; one per thread.
class WalkScratch {
 public:
  /// Dense slot of v, added with zero DP values on first sight.
  std::uint32_t slot(Vertex v);
  /// Forget every slot, in time proportional to the slots in use.
  void clear();

  /// slot → vertex, and the DP values of each slot by step parity.
  std::vector<Vertex> vertex;
  std::array<std::vector<std::uint64_t>, 2> value;
  /// Slots holding a nonzero value at the current and the next step.
  std::vector<std::uint32_t> frontier;
  std::vector<std::uint32_t> next;

 private:
  void grow();
  /// Open-addressing index: slot + 1, 0 = empty; home_[slot] = position.
  std::vector<std::uint32_t> index_;
  std::vector<std::uint32_t> home_;
};

/// Host path labels, counted per anchor on its first query: the
/// path-at-a-time filter paid only where Phase II consults it. Every vertex
/// has a dense count slot and a state byte. The first query of an anchor
/// runs the DP build_path_labels runs, in the caller's scratch; the thread
/// that claims the slot writes it and publishes it with a release store,
/// and later queries read it after an acquire load. A thread that loses
/// the claim keeps its own, identical, result. A count depends only on the
/// graph, so --jobs lanes, extract tiers and serve workers share one memo,
/// and an edited host gets a fresh, empty one.
class HostPathLabels {
 public:
  using Counts = std::array<std::uint64_t, PathLabels::kTrackedDegrees.size()>;

  /// An empty memo over `host`, which must outlive it. Counts nothing.
  explicit HostPathLabels(const CircuitGraph& host,
                          const AnalyzeOptions& options = {});

  [[nodiscard]] const CircuitGraph& graph() const { return *g_; }
  [[nodiscard]] std::size_t vertex_count() const {
    return g_->vertex_count();
  }

  /// Anchor g's counts, equal to build_path_labels(kHost).count(g, ·);
  /// counted on the first query. Safe to call from many threads.
  [[nodiscard]] Counts counts(Vertex g, WalkScratch& scratch) const {
    if (state_[g].load(std::memory_order_acquire) == kReady) {
      Counts out{};
      for (std::size_t c = 0; c < out.size(); ++c) {
        out[c] = counts_[g * out.size() + c];
      }
      return out;
    }
    return fill(g, scratch);
  }

  /// PathLabels::refutes against this memo. A pattern vertex with no walk
  /// in any class refutes nothing, so g is read (and counted) only when s
  /// has one.
  [[nodiscard]] bool refutes(const PathLabels& pattern, Vertex s, Vertex g,
                             WalkScratch& scratch) const {
    const std::size_t n = PathLabels::kTrackedDegrees.size();
    const std::uint64_t* want = pattern.counts.data() + s * n;
    bool any = false;
    for (std::size_t c = 0; c < n; ++c) any |= want[c] != 0;
    if (!any) return false;
    const Counts have = counts(g, scratch);
    for (std::size_t c = 0; c < n; ++c) {
      if (want[c] > have[c]) return true;
    }
    return false;
  }

  /// Anchors counted and published so far.
  [[nodiscard]] std::size_t filled_count() const;

 private:
  enum : std::uint8_t { kEmpty, kFilling, kReady };

  [[nodiscard]] Counts fill(Vertex g, WalkScratch& scratch) const;

  const CircuitGraph* g_;
  std::size_t walk_steps_;
  /// counts_[v * classes + c]; written once, by the claiming thread.
  std::unique_ptr<std::uint64_t[]> counts_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> state_;
};

// --- layer 3: infeasibility certificates -----------------------------------

struct Certificate {
  /// Violated rule, a closed slug set (consumers branch on it):
  ///   device_type_deficit      pattern instantiates more devices of
  ///                            `subject` than the host has
  ///   missing_global_net       pattern global net `subject` (degree > 0)
  ///                            has no same-named host net
  ///   internal_net_degree_deficit  pattern needs more internal nets of
  ///                            exact degree `degree` than the host holds
  ///   port_net_degree_deficit  no injective assignment of port nets to
  ///                            host nets of degree >= `degree`
  std::string rule;
  /// Device-type or net name, when the rule names one.
  std::string subject;
  /// Degree class, when the rule names one.
  std::uint64_t degree = 0;
  std::uint64_t pattern_count = 0;
  std::uint64_t host_count = 0;
  /// Human sentence restating the four fields above.
  std::string detail;
};

/// Statically prove the pattern cannot occur in the host, or return
/// nullopt (which proves nothing). Every rule is a relaxation of the
/// matcher's own acceptance checks, so a certificate can never refute a
/// host that contains an instance.
[[nodiscard]] std::optional<Certificate> check_feasibility(
    const Netlist& pattern, const Netlist& host);

// --- the combined report (the `subgemini analyze` document) ----------------

struct AnalysisReport {
  // Pattern shape.
  std::size_t pattern_devices = 0;
  std::size_t pattern_nets = 0;
  // Layer 1.
  std::size_t orbit_count = 0;
  std::size_t nontrivial_orbit_count = 0;
  /// Non-identity automorphisms found (group order - 1 when complete).
  std::size_t automorphism_count = 0;
  bool automorphisms_complete = true;
  /// Non-trivial orbits as vertex-name groups, for the text rendering.
  std::vector<std::vector<std::string>> orbits;
  // Layer 2.
  std::size_t walk_steps = 0;
  /// Distinct pattern path-signature tuples — how much the supplemental
  /// labels can discriminate beyond the degree filter.
  std::size_t path_classes = 0;
  // Layer 3 (host given).
  bool host_checked = false;
  std::string host_name;
  std::optional<Certificate> certificate;

  [[nodiscard]] bool infeasible() const { return certificate.has_value(); }
};

/// Run all applicable layers. `host` may be null (pattern-only analysis).
[[nodiscard]] AnalysisReport analyze(const Netlist& pattern,
                                     const Netlist* host,
                                     const AnalyzeOptions& options = {});

/// Human rendering of the report (the `subgemini analyze` text output).
void write_text(const AnalysisReport& report, std::ostream& out);

}  // namespace subg::analyze
