// SubgraphMatcher — the public entry point of the SubGemini algorithm.
//
// Given a pattern netlist (the subcircuit, with its external nets marked as
// ports and its rails marked global) and a host netlist, find the instances
// of the pattern inside the host:
//
//   SubgraphMatcher matcher(nand2, chip);
//   MatchReport report = matcher.find_all();
//   for (const SubcircuitInstance& inst : report.instances) { ... }
//
// Phase I computes a key vertex and candidate vector; Phase II verifies
// each candidate. find_all() reports at most one instance per candidate —
// distinct instances have distinct images of the key vertex, so every
// instance is discovered; overlapping instances that share a key image
// resolve to one representative (the paper's semantics, which is what gate
// extraction wants). Results are deduplicated by their device set, so
// pattern automorphisms do not double-count.
#pragma once

#include <memory>
#include <optional>

#include "analyze/analyze.hpp"
#include "graph/circuit_graph.hpp"
#include "match/instance.hpp"
#include "match/phase1.hpp"
#include "match/phase2.hpp"
#include "util/phase2_filter.hpp"

namespace subg::obs {
class Metrics;
}  // namespace subg::obs

namespace subg {

class ThreadPool;

struct MatchOptions {
  /// Stop after this many verified instances.
  std::size_t max_matches = static_cast<std::size_t>(-1);
  /// Drop instances whose host device set equals an earlier instance's.
  bool deduplicate = true;
  /// Exhaustive semantics: enumerate EVERY instance (like the baselines) by
  /// exploring all Phase II guess branches per candidate, instead of the
  /// paper's one-instance-per-key-image. Costs extra only where instances
  /// overlap or patterns are symmetric. Implies deduplication. Note the two
  /// dedup granularities: Phase II's enumerate() keeps matches that differ
  /// only in external-net bindings (full (device, net)-image key), while the
  /// matcher-level dedup below collapses to one instance per host DEVICE
  /// set — matching the Ullmann/VF2 baselines' counting convention.
  bool exhaustive = false;
  /// Phase II prefilter strength (util/phase2_filter.hpp). kPaths (the
  /// default) = the neighborhood-signature prefilter and nogood memo PLUS
  /// the supplemental path-label refuter (src/analyze closed-walk counts);
  /// kOn = signature alone; kOff = the pure census search. All settings
  /// are sound — instances and statuses are identical; kOn/kOff exist for
  /// A/B measurement (--phase2-filter).
  Phase2Filter phase2_filter = Phase2Filter::kPaths;
  /// Pre-search static analysis (src/analyze): check the infeasibility
  /// certificates before Phase I — a certificate short-circuits the whole
  /// search (MatchReport::infeasible_shortcuts, with the certificate
  /// carried in the report) — and, in exhaustive mode with no binding
  /// match limit, use the pattern's automorphisms to suppress symmetric
  /// enumeration copies (Phase2Stats::symmetry_skips). Off reproduces the
  /// pre-analyzer pipeline byte for byte.
  bool analyze = true;
  /// Optional externally owned host path-label memo (HostSession shares
  /// one across matches and starts a fresh one after an ECO patch). Must
  /// cover THIS host with default AnalyzeOptions; only consulted when
  /// phase2_filter == kPaths. Null = the matcher keeps its own.
  const analyze::HostPathLabels* host_path_labels = nullptr;
  /// Seed for the fixed labels Phase II assigns to matched pairs.
  std::uint64_t seed = 0x53554247454D494EULL;
  /// Wall-clock / cancellation envelope for the WHOLE run: threaded through
  /// Phase I refinement, the candidate sweep, and Phase II verification
  /// (it overrides phase1.budget). An interrupted run returns the verified
  /// instances found so far and reports how it ended in
  /// MatchReport::status — reported instances are always sound; only the
  /// completeness of the sweep is at stake.
  Budget budget;
  Phase1Options phase1;
  std::size_t max_phase2_passes_per_candidate = 1u << 20;
  std::size_t max_guess_depth = 4096;
  /// Optional Phase II pass trace (small examples only).
  Phase2Trace* trace = nullptr;
  /// Lanes of parallelism for Phase I host relabeling and the Phase II
  /// candidate sweep. 1 (the default) is the exact serial code path; 0
  /// means hardware concurrency. Each candidate-vector seed is an
  /// independent rooted search, so seeds are verified concurrently and the
  /// results merged in seed-index order — the report's instances, order,
  /// and status are identical to the serial run's. A trace implies the
  /// serial path (trace entries interleave across candidates).
  std::size_t jobs = 1;
  /// Optional externally owned pool, shared across matches (the extract
  /// sweep passes one). Overrides `jobs` when set; the pool must outlive
  /// the matcher calls that use it.
  ThreadPool* pool = nullptr;
  /// Optional metrics sink (see obs/metrics.hpp), threaded into Phase I and
  /// recorded against at phase boundaries: seeds tried, bindings,
  /// backtracks, ambiguity events, per-lane seed throughput, phase timings.
  /// Null (the default) records nothing and costs nothing — the Phase II
  /// inner loops are never instrumented per-pass.
  obs::Metrics* metrics = nullptr;
};

struct MatchReport {
  std::vector<SubcircuitInstance> instances;
  Phase1Result phase1;
  Phase2Stats phase2;
  /// kComplete iff every candidate was fully searched within every limit;
  /// otherwise the first interruption/cap hit, with skipped-work counters.
  RunStatus status;
  /// 1 when a pre-search infeasibility certificate proved the pattern
  /// cannot occur in the host and the search never ran (0 otherwise);
  /// `infeasibility` then holds the certificate. The empty instance list
  /// is exact, not truncated — status stays kComplete.
  std::size_t infeasible_shortcuts = 0;
  std::optional<analyze::Certificate> infeasibility;
  double phase1_seconds = 0;
  double phase2_seconds = 0;

  [[nodiscard]] std::size_t count() const { return instances.size(); }
  [[nodiscard]] double total_seconds() const {
    return phase1_seconds + phase2_seconds;
  }
};

class SubgraphMatcher {
 public:
  /// Both netlists must outlive the matcher and stay unmodified while it is
  /// in use. Throws subg::Error when check_pattern rejects the pattern,
  /// when the two catalogs disagree on the pin structure of a shared device
  /// type, or when a graph overflows the CSR offset width.
  SubgraphMatcher(const Netlist& pattern, const Netlist& host,
                  MatchOptions options = {});

  /// Same, but over a caller-owned host graph — build one CircuitGraph (and
  /// optionally one HostLabelCache, via options.phase1.host_cache) and share
  /// them across a whole library sweep.
  SubgraphMatcher(const Netlist& pattern, const CircuitGraph& host_graph,
                  MatchOptions options = {});

  /// Find all instances (per the key-image semantics above).
  [[nodiscard]] MatchReport find_all();

  /// Find at most one instance.
  [[nodiscard]] std::optional<SubcircuitInstance> find_first();

  [[nodiscard]] const CircuitGraph& pattern_graph() const { return pattern_graph_; }
  [[nodiscard]] const CircuitGraph& host_graph() const { return *host_graph_; }

  /// Throws subg::Error if shared device-type names have mismatched pin
  /// structure across the two catalogs.
  static void check_catalog_compatibility(const Netlist& pattern,
                                          const Netlist& host);

  /// Throws subg::Error, naming the offending vertex, when the pattern has
  /// no devices, is disconnected (global rails count as connectors), or has
  /// a net other than a global rail that no device touches.
  static void check_pattern(const CircuitGraph& pattern);

 private:
  MatchReport run(std::size_t limit);
  void validate_inputs() const;
  /// Record the graphs' footprint ("csr.bytes") and the build time of the
  /// graphs built here ("csr.build_seconds") against the metrics sink.
  void record_graph_metrics() const;
  /// Lazily build the analyzer artifacts a run() needs: the feasibility
  /// certificate (options_.analyze), the pattern's path labels and a host
  /// path-label memo (kPaths), pattern orbits (exhaustive, unlimited). Each
  /// is built at most once per matcher and reused across runs.
  void ensure_certificate();
  void ensure_path_labels();
  void ensure_orbits();

  const Netlist& pattern_;
  const Netlist& host_;
  MatchOptions options_;
  CircuitGraph pattern_graph_;
  std::optional<CircuitGraph> owned_host_graph_;
  const CircuitGraph* host_graph_;
  // Cached analyzer artifacts (see ensure_*).
  bool certificate_checked_ = false;
  std::optional<analyze::Certificate> infeasibility_;
  std::optional<analyze::PathLabels> pattern_paths_;
  std::optional<analyze::HostPathLabels> owned_host_paths_;
  const analyze::HostPathLabels* host_paths_ = nullptr;
  std::optional<analyze::Orbits> pattern_orbits_;
};

}  // namespace subg
