// Host-side Phase I label sequences, cacheable across patterns.
//
// Phase I relabels the WHOLE host every round (host labels are "true"
// labels — every neighbor contributes, no corrupt bits), so the label array
// after k rounds is a pure function of (host graph, which host nets act as
// special rails and with what fixed labels). Pattern structure only decides
// how many rounds get used and which labels survive consistency pruning.
// Searching one host for a whole cell library therefore recomputes the
// same arrays once per cell; a HostLabelCache shares them.
//
//   HostLabelCache cache(host_graph);
//   Phase1Options opts;
//   opts.host_cache = &cache;
//   run_phase1(pattern1, host_graph, opts);  // computes rounds 0..k1
//   run_phase1(pattern2, host_graph, opts);  // reuses them
//
// Rounds alternate like Phase I does: round 0 = initial invariant labels,
// odd rounds relabel nets, even rounds relabel devices.
//
// Thread safety: labels() may be called concurrently from matches running
// on different threads (the extract sweep shares one cache across a cell
// tier). Lookup and extension are serialized by an internal mutex; the
// returned array reference stays valid for the cache's lifetime (storage is
// a deque, so finished rounds never move) and is immutable once returned,
// so callers may read it without holding any lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "graph/circuit_graph.hpp"

namespace subg::obs {
class Metrics;
}  // namespace subg::obs

namespace subg {

class ThreadPool;

class HostLabelCache {
 public:
  /// Identifies a rail configuration: (host net vertex, fixed label) pairs,
  /// sorted by vertex. Built by Phase I from the pattern's global nets.
  using RailKey = std::vector<std::pair<Vertex, Label>>;

  explicit HostLabelCache(const CircuitGraph& host) : g_(&host) {}

  /// Canonicalize a rail key in place: sort and drop duplicate entries.
  /// Aliased globals (two pattern specials resolving to the same host net)
  /// would otherwise pollute the cache key with duplicates — missing the
  /// cache and applying the same rail override twice. Conflicting labels
  /// for one vertex are kept (both sorted, deterministic; the last override
  /// wins when the initial round is built).
  static void normalize(RailKey& rails);

  /// Label array after `round` relabeling steps under `rails`; computed
  /// (and memoized) on demand. The key is canonicalized via normalize()
  /// before lookup. When `pool` is non-null the relabeling sweep is
  /// data-parallel over host vertices (two-buffer synchronous update, so
  /// the result is bit-identical to the serial sweep).
  const std::vector<Label>& labels(const RailKey& rails, std::size_t round,
                                   ThreadPool* pool = nullptr);

  [[nodiscard]] const CircuitGraph& host() const { return *g_; }

  /// Number of label arrays currently memoized (for tests/benches).
  [[nodiscard]] std::size_t cached_rounds() const;

  /// Reuse accounting for the metrics registry: a labels() call that only
  /// reads memoized rounds is a hit; every round it has to compute is a
  /// miss, and each computed round adds its edge visits to relabel_ops.
  /// Updated under the cache mutex, so reads are exact.
  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Edge contributions computed by relabel sweeps (a pure function of
    /// which rounds were computed — identical across --jobs).
    std::uint64_t relabel_ops = 0;
  };
  [[nodiscard]] CacheStats stats() const;

  /// "No corresponding vertex" sentinel for the rebase vertex maps.
  static constexpr Vertex kNoVertex = static_cast<Vertex>(-1);

  /// Rebase the memoized sequences onto `new_host` after an ECO edit,
  /// returning a fresh cache (the class owns a mutex, so it cannot move).
  /// `old_to_new[old_v]` / `new_to_old[new_v]` map vertices across the edit
  /// (kNoVertex = removed/created); `dirty_seed` lists new-graph vertices
  /// whose labels may differ from their mapped old values (edited nets,
  /// fresh vertices are added implicitly). Only labels inside the seed's
  /// r-hop neighborhood are recomputed at round r — everything else copies
  /// its old value, which is sound because a non-dirty vertex's round-r
  /// label depends only on non-dirty round-(r-1) neighbors with unchanged
  /// adjacency (device pins are immutable and nets are only removable at
  /// degree 0, so a mapped vertex whose pin set changed is in the seed).
  /// Cache keys whose rail vertex was removed are dropped. Reuse stats
  /// carry over (session-cumulative); the recomputed-label count is added
  /// to *invalidated (the eco.invalidated_labels counter) when non-null.
  /// Under SUBG_AUDIT every rebased round is checked against a cold
  /// recompute over the new host (A18).
  [[nodiscard]] std::unique_ptr<HostLabelCache> rebase(
      const CircuitGraph& new_host, std::span<const Vertex> old_to_new,
      std::span<const Vertex> new_to_old, std::span<const Vertex> dirty_seed,
      std::uint64_t* invalidated) const;

 private:
  const CircuitGraph* g_;
  /// Deque per rail key: push_back never moves finished rounds, so label
  /// array references handed out survive concurrent extension.
  std::map<RailKey, std::deque<std::vector<Label>>> sequences_;
  mutable std::mutex mutex_;
  CacheStats stats_;
};

/// Record a cache's reuse totals under the uniform metric names
/// ("phase1.label_cache.hits" / ".misses" / ".relabel_ops"). Null-safe;
/// every owner of a cache — the Phase I local fallback, the extract tier
/// sweep, the benches — funnels through here so `--metrics` output and the
/// bench comparator see cache behavior spelled the same way.
void record_cache_stats(obs::Metrics* metrics,
                        const HostLabelCache::CacheStats& stats);

}  // namespace subg
