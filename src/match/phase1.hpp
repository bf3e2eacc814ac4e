// Phase I — candidate vector generation (paper §III).
//
// Iterative partition refinement over pattern S and host G with a
// *valid/corrupt* bit on pattern vertices. External (port) nets of the
// pattern start corrupt — their host images see extra connections the
// pattern cannot know about — and corruption spreads one ring per
// relabeling round. Relabeling alternates net rounds and device rounds
// (the graph is bipartite, so a round corrupts only one side) and stops
// when an entire side of the pattern is corrupt. Throughout,
//
//   Label Invariant (1): if g = image(s) and s is valid,
//                        label(g) == label(s).
//
// Consistency checks prune host vertices whose label matches no valid
// pattern partition (they cannot be images of valid pattern vertices), and
// declare the whole search infeasible when a host partition is smaller
// than its valid pattern twin. At exit, the smallest surviving host
// partition becomes the candidate vector CV and a pattern vertex of the
// matching partition becomes the key vertex K: every image of K in G is
// guaranteed to be in CV.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/circuit_graph.hpp"
#include "util/budget.hpp"

namespace subg::obs {
class Metrics;
}  // namespace subg::obs

namespace subg {

class HostLabelCache;
class ShardPlan;
class ThreadPool;

struct Phase1Options {
  /// Hard cap on relabeling rounds (corruption reaches the whole pattern in
  /// O(pattern diameter) rounds; this is a safety net only).
  std::size_t max_rounds = 256;
  /// Wall-clock / cancellation envelope, polled once per relabeling round.
  /// An interrupted Phase I still selects a candidate vector from the
  /// rounds already run (sound — refinement only ever narrows the CV) and
  /// reports the interruption in Phase1Result::outcome.
  Budget budget;
  /// Optional cache of the host's label sequence (see host_labels.hpp) —
  /// share one across patterns searched against the same host. Must have
  /// been constructed over the same host graph.
  HostLabelCache* host_cache = nullptr;
  /// Optional worker pool: host relabeling rounds become data-parallel over
  /// vertices (two-buffer synchronous update, bit-identical to the serial
  /// sweep). The pattern side stays serial — patterns are tiny.
  ThreadPool* pool = nullptr;
  /// Ablation switch: disable the per-round consistency checks (host-vertex
  /// pruning and early infeasibility detection, paper §III). Candidates are
  /// then selected from final-round labels alone. Correct but slower /
  /// weaker — exists so bench_ablation can quantify the checks' value.
  bool consistency_checks = true;
  /// Diagnostics: copy the final labels and validity flags into the result
  /// (costs O(|S| + |G|) memory) so tests can check Label Invariant (1).
  bool keep_labels = false;
  /// Optional metrics sink (see obs/metrics.hpp): rounds, candidate-vector
  /// size, consistency-check prunes, corruption front, label-cache
  /// hits/misses. Null (the default) records nothing and costs nothing —
  /// counters are recorded once per run, never inside the relabeling loop.
  obs::Metrics* metrics = nullptr;
  /// Optional shard plan over the host (graph/shard_plan.hpp; wired by
  /// HostSession when SessionOptions::shard_target_devices > 0). The
  /// host-side consistency sweeps then run per shard on `pool`, with the
  /// round-0 sweep bulk-skipping shards whose prefilter proves no owned
  /// vertex matches any valid pattern label. Must have been built over the
  /// same host graph. Results — prunes, censuses, candidates, every
  /// counter — are byte-identical to the unsharded sweep at every --jobs;
  /// only the shards_* counters below are new.
  const ShardPlan* shards = nullptr;
};

struct Phase1Result {
  /// False ⇒ Phase I proved no instance of the pattern exists in the host.
  bool feasible = true;

  /// kComplete, or the interruption that cut refinement short (the CV is
  /// then valid but possibly wider than a full run would produce).
  RunOutcome outcome = RunOutcome::kComplete;

  /// Key vertex in the pattern graph (valid iff feasible).
  Vertex key = 0;
  bool key_is_device = false;

  /// Candidate vector: all host vertices that may be images of `key`.
  std::vector<Vertex> candidates;

  /// Relabeling rounds executed (net rounds + device rounds).
  std::size_t rounds = 0;

  /// Pattern vertices still valid at exit.
  std::size_t valid_pattern_vertices = 0;

  /// Host vertices still eligible (not pruned by consistency checks) at
  /// exit — a measure of how sharp the filter was before CV selection.
  std::size_t possible_host_vertices = 0;

  /// Pattern-side edge contributions computed across all relabel rounds —
  /// a deterministic work counter, identical across --jobs.
  /// (Host-side relabel work is accounted by the label cache; see
  /// HostLabelCache::CacheStats::relabel_ops.)
  std::uint64_t relabel_ops = 0;

  /// Sharded-sweep counters (all zero when Phase1Options::shards is null).
  /// Deterministic: the plan is a pure function of the host, the skip rule
  /// a pure function of (plan, pattern). `shards_total` counts the plan's
  /// regions (the anchor boundary sweeps separately and is never skipped);
  /// `shards_skipped` counts regions bulk-skipped for at least one vertex
  /// kind by the round-0 prefilter; `shards_prefilter_rejects` counts
  /// regions rejected for BOTH kinds — fully dead before any search.
  std::size_t shards_total = 0;
  std::size_t shards_skipped = 0;
  std::size_t shards_prefilter_rejects = 0;

  /// Filled only when Phase1Options::keep_labels is set: final labels and
  /// the pattern's valid (non-corrupt) flags, for invariant checking.
  std::vector<Label> pattern_labels;
  std::vector<bool> pattern_valid;
  std::vector<Label> host_labels;
};

/// Run Phase I for `pattern` against `host`.
[[nodiscard]] Phase1Result run_phase1(const CircuitGraph& pattern,
                                      const CircuitGraph& host,
                                      const Phase1Options& options = {});

}  // namespace subg
