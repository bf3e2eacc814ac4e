// Match records and statistics shared by Phase II and the public matcher.
#pragma once

#include <cstddef>
#include <vector>

#include "netlist/ids.hpp"

namespace subg {

/// One verified instance of the pattern inside the host: a full
/// vertex-to-vertex mapping, indexed by pattern device/net index.
struct SubcircuitInstance {
  /// device_image[i] = host device matched to pattern device i.
  std::vector<DeviceId> device_image;
  /// net_image[i] = host net matched to pattern net i (globals included,
  /// resolved by name).
  std::vector<NetId> net_image;
};

/// Phase II counters, accumulated across all candidates of a search.
struct Phase2Stats {
  std::size_t candidates_tried = 0;
  std::size_t candidates_matched = 0;
  std::size_t passes = 0;            ///< relabeling passes, all candidates
  std::size_t bindings = 0;          ///< pattern↔host pairs postulated (key
                                     ///< postulates, singleton matches,
                                     ///< guesses and forced-pin walk
                                     ///< bindings; re-bindings after a
                                     ///< backtrack or a walk fallback count
                                     ///< again)
  std::size_t guesses = 0;           ///< postulated matches at ambiguity points
  std::size_t backtracks = 0;        ///< failed guesses undone
  std::size_t verify_failures = 0;   ///< final explicit verification rejected
  std::size_t max_guess_depth = 0;
  std::size_t expansion_ops = 0;     ///< edge visits in the relabel passes
                                     ///< (frontier expansion + label sums,
                                     ///< both sides) — a deterministic work
                                     ///< counter, identical across --jobs
  std::size_t domain_prunes = 0;     ///< postulates rejected by the
                                     ///< neighborhood-signature prefilter
                                     ///< before any relabeling pass ran
  std::size_t nogood_hits = 0;       ///< rejections served from the
                                     ///< per-candidate nogood memo without
                                     ///< re-running the signature check
  std::size_t trail_undos = 0;       ///< trail entries rolled back while
                                     ///< backtracking (replaces whole-state
                                     ///< snapshot copies)
  std::size_t path_label_prunes = 0; ///< postulates rejected by the
                                     ///< supplemental path-label refuter
                                     ///< (--phase2-filter=paths) after the
                                     ///< signature check passed
  std::size_t symmetry_skips = 0;    ///< exhaustive-enumeration completions
                                     ///< suppressed because they are an
                                     ///< automorphic image of one already
                                     ///< recorded for this candidate
  std::size_t walk_settled = 0;      ///< candidates the forced-pin walk
                                     ///< decided without relabeling: a
                                     ///< verified instance or a refutation
  std::size_t walk_fallbacks = 0;    ///< candidates whose walk got stuck
                                     ///< and went to the relabel search

  /// Fold another verifier's counters in (parallel sweeps keep per-worker
  /// stats and merge them; sums are scheduling-order independent).
  void merge(const Phase2Stats& other) {
    candidates_tried += other.candidates_tried;
    candidates_matched += other.candidates_matched;
    passes += other.passes;
    bindings += other.bindings;
    guesses += other.guesses;
    backtracks += other.backtracks;
    verify_failures += other.verify_failures;
    if (other.max_guess_depth > max_guess_depth) {
      max_guess_depth = other.max_guess_depth;
    }
    expansion_ops += other.expansion_ops;
    domain_prunes += other.domain_prunes;
    nogood_hits += other.nogood_hits;
    trail_undos += other.trail_undos;
    path_label_prunes += other.path_label_prunes;
    symmetry_skips += other.symmetry_skips;
    walk_settled += other.walk_settled;
    walk_fallbacks += other.walk_fallbacks;
  }
};

}  // namespace subg
