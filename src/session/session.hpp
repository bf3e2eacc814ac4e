// HostSession — the owned handle for a loaded host.
//
// Everything the matcher shares across repeated searches of one host —
// the CircuitGraph, the HostLabelCache of Phase I label sequences and the
// path-label memo — used to be built ad hoc by every consumer (CLI
// one-shot, serve `load`, extract per-tier, bench mains). A HostSession
// owns the whole bundle:
//
//   HostSession session = HostSession::build(netlist);
//   MatchReport r = find_in_session(pattern, session, options);
//   session.apply(parse_delta(delta_text));   // ECO edit, dirty-cone labels
//   MatchReport r2 = find_in_session(pattern, session, options);
//
// A build counts no path labels: Phase II counts each host anchor on its
// first query and the session's memo keeps the count for later matches.
//
// apply() is ATOMIC (apply-or-rollback): every fallible step — delta
// application, graph rebuild, capacity check, cache rebase — runs on
// copies; the session swaps them in only after all of them succeed, so a
// thrown Error (an inapplicable delta, an edited graph that overflows the
// CSR offset width, or an injected "session.patch" fault) leaves the
// session byte-identical to before.
//
// The invariant contract: a patched session produces byte-identical
// reports/traces/JSON to a cold HostSession::build over the edited
// netlist, at every --jobs. Under SUBG_AUDIT this is enforced structurally
// on every apply (A18: rebased label rounds equal a cold recompute — see
// HostLabelCache::rebase). The path-label memo needs no such check: a
// patch starts a fresh one over the edited graph, exactly as a cold build
// does.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "analyze/analyze.hpp"
#include "graph/circuit_graph.hpp"
#include "graph/shard_plan.hpp"
#include "match/host_labels.hpp"
#include "match/matcher.hpp"
#include "netlist/netlist.hpp"
#include "session/delta.hpp"

namespace subg {

struct SessionOptions {
  /// Shard the host for Phase I (graph/shard_plan.hpp): 0 (the default)
  /// matches the whole host as one monolith; > 0 decomposes it into
  /// fanout-bounded regions of at most this many owned devices, rebuilt on
  /// every apply(). Reports stay byte-identical either way at every --jobs
  /// — sharding changes the sweep schedule and adds the shards_* counters,
  /// never the result.
  std::size_t shard_target_devices = 0;
  /// Nets with at least this many pins become boundary anchors (replicated
  /// by reference, never owned) when sharding is on. Tests lower it to
  /// force many regions out of small hosts.
  std::size_t shard_anchor_fanout = 64;
};

/// What one apply() did — the per-patch numbers behind the eco.* counters
/// and the serve `patch` response.
struct ApplyStats {
  /// Device add/remove ops applied ("eco.patched_devices").
  std::uint64_t patched_devices = 0;
  /// Net add/remove ops applied.
  std::uint64_t patched_nets = 0;
  /// Rename ops applied.
  std::uint64_t renames = 0;
  /// Label-cache entries recomputed by the rebase — the dirty-cone size,
  /// which scales with the EDIT, not the host ("eco.invalidated_labels").
  std::uint64_t invalidated_labels = 0;
};

class HostSession {
 public:
  /// Build a session over (a copy of) `netlist`. Pass by value: callers
  /// that are done with their netlist move it in. Throws subg::Error when
  /// the host graph overflows the CSR offset width.
  [[nodiscard]] static HostSession build(Netlist netlist,
                                         SessionOptions options = {});

  HostSession(HostSession&&) = default;
  HostSession& operator=(HostSession&&) = default;
  HostSession(const HostSession&) = delete;
  HostSession& operator=(const HostSession&) = delete;

  /// Apply an ECO delta atomically. Throws subg::Error (delta inapplicable,
  /// "delta line N: ..." messages) or fault::InjectedFault ("session.patch")
  /// with the session unchanged. On success the graph is rebuilt, the label
  /// cache rebased, the path-label memo started afresh, and the per-patch
  /// stats returned.
  ApplyStats apply(const NetlistDelta& delta);

  /// Wire this session's shared host structures into match options:
  /// phase1.host_cache, phase1.shards and host_path_labels point at the
  /// session. NOTE: because the
  /// cache is session-owned, Phase I does not fold its reuse totals into
  /// metrics — callers that want them call
  /// record_cache_stats(metrics, session.cache().stats()) themselves.
  void configure(MatchOptions& options);

  [[nodiscard]] const Netlist& netlist() const { return *netlist_; }
  [[nodiscard]] const CircuitGraph& graph() const { return *graph_; }
  [[nodiscard]] HostLabelCache& cache() { return *cache_; }
  /// Session-owned path-label memo over the host (src/analyze), shared
  /// across matches via configure(); each anchor is counted on its first
  /// query. apply() replaces it with an empty memo over the edited graph.
  [[nodiscard]] const analyze::HostPathLabels& path_labels() const {
    return *paths_;
  }
  /// End the session and hand its netlist back (the graph, cache and memo
  /// point into it and die with the session). The extract sweep lends its
  /// working netlist to one session per size tier this way, without a copy.
  [[nodiscard]] Netlist take_netlist() && { return std::move(*netlist_); }
  /// Null unless SessionOptions::shard_target_devices > 0. Rebuilt cold on
  /// every apply() (the plan is a pure function of the patched graph, so a
  /// patched session's shards equal a cold build's).
  [[nodiscard]] const ShardPlan* shards() const { return shards_.get(); }
  [[nodiscard]] const SessionOptions& options() const { return options_; }

  // --- session generation (serve `status`, eco.* counters) -------------
  [[nodiscard]] std::uint64_t patch_count() const { return patch_count_; }
  /// Cumulative apply() stats since build().
  [[nodiscard]] const ApplyStats& totals() const { return totals_; }

 private:
  HostSession() = default;

  SessionOptions options_;
  std::unique_ptr<Netlist> netlist_;
  std::unique_ptr<CircuitGraph> graph_;
  std::unique_ptr<ShardPlan> shards_;
  std::unique_ptr<HostLabelCache> cache_;
  std::unique_ptr<analyze::HostPathLabels> paths_;
  std::uint64_t patch_count_ = 0;
  ApplyStats totals_;
};

/// Match `pattern` against the session's host, sharing its graph, label
/// cache and path labels. The session-aware replacement for constructing a
/// SubgraphMatcher per call; the old constructors remain as thin shims for
/// callers that have no session.
[[nodiscard]] MatchReport find_in_session(const Netlist& pattern,
                                          HostSession& session,
                                          MatchOptions options = {});

/// Fold one apply()'s stats into the eco.* counters (eco.patched_devices,
/// eco.patched_nets, eco.renames, eco.invalidated_labels, and
/// eco.compactions, which is always 0 since patches no longer retain
/// storage to compact). Null-safe, like record_cache_stats.
void record_eco_stats(obs::Metrics* metrics, const ApplyStats& stats);

}  // namespace subg
