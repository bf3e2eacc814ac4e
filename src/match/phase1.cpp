#include "match/phase1.hpp"

#include <algorithm>
#include <unordered_map>

#include "graph/shard_plan.hpp"
#include "match/host_labels.hpp"
#include "obs/metrics.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace subg {

namespace {

/// Vertex kind selector for the alternating rounds.
enum class Kind { kNet, kDevice };

struct Phase1State {
  const CircuitGraph& s;
  const CircuitGraph& g;
  HostLabelCache& cache;
  ThreadPool* pool = nullptr;
  /// Per-round scratch for the flat censuses; reserved once, reset per
  /// census, never grown mid-round.
  Arena arena;
  /// Pattern-side edge contributions computed (work counter).
  std::uint64_t relabel_ops = 0;
  HostLabelCache::RailKey rail_key;

  /// Optional host shard plan: consistency sweeps run per region, with the
  /// round-0 prefilter bulk-skip (see consistency_sharded). Byte-identical
  /// to the monolithic sweep by construction.
  const ShardPlan* shards = nullptr;
  /// Per-shard round-0 skip flags (sized to the plan), for the counters.
  std::vector<std::uint8_t> shard_skip_net;
  std::vector<std::uint8_t> shard_skip_dev;
  /// Sharded-sweep scratch (per-lane census columns and prune counts),
  /// reused across rounds.
  std::vector<std::uint64_t> shard_cnt;
  std::vector<std::size_t> shard_pruned;

  std::vector<Label> label_s;
  std::vector<Label> scratch_s;
  std::vector<bool> valid_s;  // pattern: valid (not corrupt)
  /// Host: still a possible image of a valid vertex. Bytes, not bits: the
  /// sharded sweep writes lanes in parallel, and shards own disjoint
  /// vertices — distinct bytes are race-free where vector<bool> words are
  /// not.
  std::vector<std::uint8_t> possible_g;
  /// Host vertices treated as special for THIS match: a host net is special
  /// iff the pattern declares a same-named global (paper §IV.A — special
  /// signals are matched by name). A host rail that the pattern does not
  /// name is an ordinary net here.
  std::vector<bool> special_g;
  /// Host labels after `round` relabeling steps (shared via the cache).
  const std::vector<Label>* label_g;
  std::size_t round = 0;

  explicit Phase1State(const CircuitGraph& pattern, const CircuitGraph& host,
                       HostLabelCache& host_cache, const Phase1Options& options)
      : s(pattern),
        g(host),
        cache(host_cache),
        pool(options.pool),
        shards(options.shards) {
    if (shards != nullptr) {
      shard_skip_net.assign(shards->shards().size(), 0);
      shard_skip_dev.assign(shards->shards().size(), 0);
    }
    // Worst case one census holds live at a time: the sorted label column
    // plus the unique-label column and two count columns, all bounded by
    // the pattern vertex count (plus alignment slack).
    arena.reserve(s.vertex_count() *
                      (2 * sizeof(Label) + 2 * sizeof(std::uint32_t)) +
                  4 * alignof(std::max_align_t));
    label_s.resize(s.vertex_count());
    for (Vertex v = 0; v < s.vertex_count(); ++v) label_s[v] = s.initial_label(v);
    scratch_s = label_s;

    // Resolve the pattern's rails against the host by name; they form the
    // cache key and are excluded from candidacy.
    special_g.assign(g.vertex_count(), false);
    const Netlist& pnl = s.netlist();
    const Netlist& hnl = g.netlist();
    for (Vertex v = 0; v < s.vertex_count(); ++v) {
      if (!s.is_special(v)) continue;
      auto hn = hnl.find_net(pnl.net_name(s.net_of(v)));
      if (hn.has_value()) {
        const Vertex hv = g.vertex_of(*hn);
        special_g[hv] = true;
        rail_key.emplace_back(hv, s.initial_label(v));
      }
    }
    // Sort AND deduplicate: two pattern specials resolving to the same host
    // net (aliased globals) must not leave a duplicate entry in the cache
    // key — that would miss the cache and double-apply the rail override.
    HostLabelCache::normalize(rail_key);
    label_g = &cache.labels(rail_key, 0, pool);

    valid_s.assign(s.vertex_count(), true);
    for (NetId port : pnl.ports()) {
      if (!pnl.is_global(port)) valid_s[s.vertex_of(port)] = false;
    }
    // Host: special nets are matched by name, never by candidate search.
    possible_g.assign(g.vertex_count(), 1);
    for (Vertex v = 0; v < g.vertex_count(); ++v) {
      if (special_g[v]) possible_g[v] = 0;
    }
  }

  [[nodiscard]] static bool kind_of(const CircuitGraph& graph, Vertex v,
                                    Kind kind) {
    return kind == Kind::kDevice ? graph.is_device(v) : graph.is_net(v);
  }

  /// Non-special pattern vertices still valid (both kinds) — the auditor's
  /// monotonicity census.
  [[nodiscard]] std::size_t valid_count() const {
    std::size_t n = 0;
    for (Vertex v = 0; v < s.vertex_count(); ++v) {
      if (!s.is_special(v) && valid_s[v]) ++n;
    }
    return n;
  }

  /// One synchronous relabeling round over all vertices of `kind`.
  /// Pattern vertices whose neighbor (of the other kind) is corrupt become
  /// corrupt themselves instead of being relabeled; host labels advance via
  /// the shared cache.
  void relabel_round(Kind kind) {
    std::size_t audit_valid_before = 0;
    if constexpr (kAuditEnabled) audit_valid_before = valid_count();
    std::uint64_t ops = 0;
    for (Vertex v = 0; v < s.vertex_count(); ++v) {
      if (!kind_of(s, v, kind) || s.is_special(v) || !valid_s[v]) continue;
      Label sum = 0;
      bool corrupt = false;
      const std::span<const Vertex> to = s.neighbors(v);
      const std::span<const Label> coeff = s.coefficients(v);
      for (std::size_t i = 0; i < to.size(); ++i) {
        if (!valid_s[to[i]]) {
          corrupt = true;
          break;
        }
        sum += edge_contribution(coeff[i], label_s[to[i]]);
        ++ops;
      }
      if (corrupt) {
        valid_s[v] = false;
      } else {
        scratch_s[v] = relabel(label_s[v], sum);
      }
    }
    relabel_ops += ops;
    for (Vertex v = 0; v < s.vertex_count(); ++v) {
      if (kind_of(s, v, kind) && !s.is_special(v) && valid_s[v]) {
        label_s[v] = scratch_s[v];
      }
    }
    if constexpr (kAuditEnabled) {
      // Monotonicity (paper §III): corruption only ever spreads; a round
      // never resurrects a corrupt vertex.
      SUBG_AUDIT_MSG(valid_count() <= audit_valid_before,
                     "phase1 audit: valid set grew during a relabel round");
      // Corrupt-bit propagation: a vertex of `kind` that survived this
      // round can have no corrupt neighbor (neighbors are the other kind
      // and did not change validity this round).
      for (Vertex v = 0; v < s.vertex_count(); ++v) {
        if (!kind_of(s, v, kind) || s.is_special(v) || !valid_s[v]) continue;
        for (const Vertex to : s.neighbors(v)) {
          SUBG_AUDIT_MSG(valid_s[to],
                         "phase1 audit: valid vertex kept a corrupt neighbor");
        }
      }
    }
    ++round;
    label_g = &cache.labels(rail_key, round, pool);
  }

  [[nodiscard]] bool any_valid(Kind kind) const {
    for (Vertex v = 0; v < s.vertex_count(); ++v) {
      if (kind_of(s, v, kind) && !s.is_special(v) && valid_s[v]) return true;
    }
    return false;
  }

  /// (valid vertex count, distinct label count) over valid pattern vertices
  /// of a kind — used to detect that refinement has stabilized (patterns
  /// with few or no ports may never corrupt a whole side). Counted over a
  /// sorted arena column.
  [[nodiscard]] std::pair<std::size_t, std::size_t> refinement_shape(
      Kind kind) {
    arena.reset();
    std::span<Label> labels = arena.take<Label>(s.vertex_count());
    std::size_t count = 0;
    for (Vertex v = 0; v < s.vertex_count(); ++v) {
      if (kind_of(s, v, kind) && !s.is_special(v) && valid_s[v]) {
        labels[count++] = label_s[v];
      }
    }
    std::sort(labels.begin(), labels.begin() + count);
    std::size_t distinct = 0;
    for (std::size_t i = 0; i < count; ++i) {
      if (i == 0 || labels[i] != labels[i - 1]) ++distinct;
    }
    return {count, distinct};
  }

  bool prune = true;
  /// Host vertices pruned by the consistency checks, for the metrics sink.
  std::size_t pruned = 0;

  /// Prune host vertices whose label matches no valid pattern partition;
  /// detect infeasibility when a host partition is smaller than its valid
  /// pattern twin. Returns false on infeasibility. The pattern census is a
  /// sorted arena column (run-length counted), the host sweep
  /// binary-searches it. Patterns are tiny, so the search column lives in
  /// L1 where a per-round hash map would churn the heap.
  [[nodiscard]] bool consistency(Kind kind) {
    if (!prune) return true;
    if (shards != nullptr) return consistency_sharded(kind);
    arena.reset();
    std::span<Label> labels = arena.take<Label>(s.vertex_count());
    std::size_t n = 0;
    for (Vertex v = 0; v < s.vertex_count(); ++v) {
      if (kind_of(s, v, kind) && !s.is_special(v) && valid_s[v]) {
        labels[n++] = label_s[v];
      }
    }
    std::sort(labels.begin(), labels.begin() + n);
    std::span<Label> uniq = arena.take<Label>(n);
    std::span<std::uint32_t> s_cnt = arena.take<std::uint32_t>(n);
    std::span<std::uint32_t> g_cnt = arena.take<std::uint32_t>(n);
    std::size_t u = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (u == 0 || uniq[u - 1] != labels[i]) {
        uniq[u] = labels[i];
        s_cnt[u] = 0;
        g_cnt[u] = 0;
        ++u;
      }
      ++s_cnt[u - 1];
    }
    const Label* ubegin = uniq.data();
    const Label* uend = uniq.data() + u;
    for (Vertex v = 0; v < g.vertex_count(); ++v) {
      if (!kind_of(g, v, kind) || !possible_g[v]) continue;
      const Label l = (*label_g)[v];
      const Label* it = std::lower_bound(ubegin, uend, l);
      if (it == uend || *it != l) {
        possible_g[v] = false;  // cannot be the image of any valid vertex
        ++pruned;
      } else {
        ++g_cnt[static_cast<std::size_t>(it - ubegin)];
      }
    }
    for (std::size_t i = 0; i < u; ++i) {
      if (g_cnt[i] < s_cnt[i]) return false;  // no induced subgraph can exist
    }
    return true;
  }

  /// Sharded consistency (used when a plan is wired in):
  /// the host sweep runs per region on the pool, each lane pruning its own
  /// vertices against the shared sorted pattern-label column and keeping a
  /// private census/prune count; lanes merge in shard-id order. At round 0
  /// a shard whose prefilter proves NO owned vertex of the kind carries a
  /// valid pattern label is bulk-marked impossible without per-vertex label
  /// lookups — precisely the set of vertices the monolithic sweep would
  /// prune one by one (labels at round 0 are the initial labels the plan
  /// indexed; rails are already impossible and contribute to neither path).
  /// The anchor boundary is its own lane, swept every round, never skipped.
  [[nodiscard]] bool consistency_sharded(Kind kind) {
    // Pattern census → sorted distinct labels + needed counts (a pure
    // function of the label multiset).
    std::vector<Label> sorted;
    sorted.reserve(s.vertex_count());
    for (Vertex v = 0; v < s.vertex_count(); ++v) {
      if (kind_of(s, v, kind) && !s.is_special(v) && valid_s[v]) {
        sorted.push_back(label_s[v]);
      }
    }
    std::sort(sorted.begin(), sorted.end());
    std::vector<Label> uniq;
    std::vector<std::uint64_t> s_cnt;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      if (uniq.empty() || uniq.back() != sorted[i]) {
        uniq.push_back(sorted[i]);
        s_cnt.push_back(0);
      }
      ++s_cnt.back();
    }
    const std::size_t u = uniq.size();
    const std::vector<ShardPlan::Shard>& regions = shards->shards();
    const std::size_t lanes = regions.size() + 1;  // + the anchor boundary
    const bool device_kind = kind == Kind::kDevice;
    shard_cnt.assign(lanes * u, 0);
    shard_pruned.assign(lanes, 0);

    const std::vector<Label>& lg = *label_g;
    const Label* ubegin = uniq.data();
    const Label* uend = uniq.data() + u;
    auto sweep = [&](std::span<const Vertex> verts, std::uint64_t* cnt,
                     std::size_t* pr) {
      for (Vertex v : verts) {
        if (possible_g[v] == 0) continue;
        const Label l = lg[v];
        const Label* it = std::lower_bound(ubegin, uend, l);
        if (it == uend || *it != l) {
          possible_g[v] = 0;  // cannot be the image of any valid vertex
          ++*pr;
        } else {
          ++cnt[static_cast<std::size_t>(it - ubegin)];
        }
      }
    };
    auto lane = [&](std::size_t i) {
      std::uint64_t* cnt = shard_cnt.data() + i * u;
      std::size_t* pr = &shard_pruned[i];
      if (i == regions.size()) {
        // Anchor lane: the boundary nets (devices are never anchors).
        if (!device_kind) sweep(shards->anchor_nets(), cnt, pr);
        return;
      }
      const ShardPlan::Shard& sh = regions[i];
      const std::span<const Vertex> verts =
          device_kind ? std::span<const Vertex>(sh.devices)
                      : std::span<const Vertex>(sh.nets);
      if (round == 0 && sh.rejects({ubegin, u}, device_kind)) {
        for (Vertex v : verts) {
          if (possible_g[v] != 0) {
            possible_g[v] = 0;
            ++*pr;
          }
        }
        (device_kind ? shard_skip_dev : shard_skip_net)[i] = 1;
        return;
      }
      sweep(verts, cnt, pr);
    };
    if (pool != nullptr) {
      pool->parallel_for(lanes, 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) lane(i);
      });
    } else {
      for (std::size_t i = 0; i < lanes; ++i) lane(i);
    }

    // Deterministic merge in shard-id order (sums commute; the order is
    // fixed anyway so the reduction is scheduling-independent by
    // construction, not by arithmetic accident).
    for (std::size_t i = 0; i < lanes; ++i) pruned += shard_pruned[i];
    for (std::size_t j = 0; j < u; ++j) {
      std::uint64_t have = 0;
      for (std::size_t i = 0; i < lanes; ++i) have += shard_cnt[i * u + j];
      if (have < s_cnt[j]) return false;  // no induced subgraph can exist
    }
    return true;
  }
};

}  // namespace

namespace {

/// The refinement loop proper; `st`'s prune counter survives the return so
/// the wrapper can report it to the metrics sink on every exit path.
Phase1Result run_phase1_refinement(const CircuitGraph& pattern,
                                   const CircuitGraph& host,
                                   const Phase1Options& options,
                                   Phase1State& st) {
  Phase1Result result;

  // Initial consistency pass over both sides of the bipartition (Fig 4:
  // degree-/type-infeasible host vertices are pruned before any round).
  if (!st.consistency(Kind::kNet) || !st.consistency(Kind::kDevice)) {
    result.feasible = false;
    return result;
  }

  auto prev_shape = std::make_pair(st.refinement_shape(Kind::kNet),
                                   st.refinement_shape(Kind::kDevice));
  while (result.rounds < options.max_rounds) {
    if (options.budget.interrupted(&result.outcome)) break;
    st.relabel_round(Kind::kNet);
    ++result.rounds;
    if (!st.any_valid(Kind::kNet)) break;
    if (!st.consistency(Kind::kNet)) {
      result.feasible = false;
      return result;
    }

    st.relabel_round(Kind::kDevice);
    ++result.rounds;
    if (!st.any_valid(Kind::kDevice)) break;
    if (!st.consistency(Kind::kDevice)) {
      result.feasible = false;
      return result;
    }

    // No vertex corrupted and no partition split this full cycle ⇒
    // refinement is stable and further rounds cannot sharpen the CV.
    auto shape = std::make_pair(st.refinement_shape(Kind::kNet),
                                st.refinement_shape(Kind::kDevice));
    if (shape == prev_shape) break;
    prev_shape = shape;
  }

  // Candidate-vector selection: for every label of a valid pattern vertex,
  // count eligible host vertices; pick the label with the smallest host
  // partition (least Phase II work). Ties break deterministically.
  std::unordered_map<Label, std::pair<std::size_t, Vertex>> s_parts;  // count, first
  for (Vertex v = 0; v < pattern.vertex_count(); ++v) {
    if (pattern.is_special(v) || !st.valid_s[v]) continue;
    auto [it, inserted] = s_parts.try_emplace(st.label_s[v], 1, v);
    if (!inserted) {
      ++it->second.first;
      it->second.second = std::min(it->second.second, v);
    }
  }
  SUBG_CHECK_MSG(!s_parts.empty(),
                 "phase I: no valid pattern vertices remain (pattern is all "
                 "ports/globals?)");

  const std::vector<Label>& label_g = *st.label_g;
  std::unordered_map<Label, std::size_t> g_count;
  for (Vertex v = 0; v < host.vertex_count(); ++v) {
    if (!st.possible_g[v]) continue;
    if (s_parts.contains(label_g[v])) ++g_count[label_g[v]];
  }

  bool found = false;
  Label best_label = 0;
  std::size_t best_g = 0, best_s = 0;
  for (const auto& [lbl, part] : s_parts) {
    auto it = g_count.find(lbl);
    const std::size_t have = it == g_count.end() ? 0 : it->second;
    if (have < part.first) {
      // Smaller host partition than pattern partition: infeasible.
      result.feasible = false;
      return result;
    }
    if (!found || have < best_g ||
        (have == best_g && (part.first < best_s ||
                            (part.first == best_s && lbl < best_label)))) {
      found = true;
      best_label = lbl;
      best_g = have;
      best_s = part.first;
    }
  }
  SUBG_CHECK(found);

  result.key = s_parts[best_label].second;
  result.key_is_device = pattern.is_device(result.key);
  result.candidates.reserve(best_g);
  for (Vertex v = 0; v < host.vertex_count(); ++v) {
    if (st.possible_g[v] && label_g[v] == best_label) {
      result.candidates.push_back(v);
    }
  }
  // Candidate-vector ⊆ host-partition consistency: the vector just built
  // must agree with the census taken above (two independent sweeps), be at
  // least as large as the pattern partition it images, and never contain a
  // by-name-matched special net (possible_g excludes them from round 0 and
  // is only ever cleared).
  SUBG_AUDIT_MSG(result.candidates.size() == best_g,
                 "phase1 audit: candidate vector disagrees with the host "
                 "partition census");
  SUBG_AUDIT_MSG(best_g >= best_s,
                 "phase1 audit: candidate vector smaller than its pattern "
                 "partition");
  if constexpr (kAuditEnabled) {
    for (Vertex v : result.candidates) {
      SUBG_AUDIT_MSG(!st.special_g[v],
                     "phase1 audit: special host net in the candidate vector");
    }
  }
  for (Vertex v = 0; v < pattern.vertex_count(); ++v) {
    if (!pattern.is_special(v) && st.valid_s[v]) ++result.valid_pattern_vertices;
  }
  for (Vertex v = 0; v < host.vertex_count(); ++v) {
    if (st.possible_g[v]) ++result.possible_host_vertices;
  }
  if (options.keep_labels) {
    result.pattern_labels = st.label_s;
    result.pattern_valid = st.valid_s;
    result.host_labels = *st.label_g;
  }

  SUBG_DEBUG("phase1: rounds=" << result.rounds << " cv=" << result.candidates.size()
                               << " key=" << pattern.vertex_name(result.key));
  return result;
}

}  // namespace

Phase1Result run_phase1(const CircuitGraph& pattern, const CircuitGraph& host,
                        const Phase1Options& options) {
  SUBG_FAULT_POINT("phase1");
  SUBG_CHECK_MSG(pattern.device_count() > 0, "pattern has no devices");

  // Fall back to a call-local cache when the caller does not share one.
  HostLabelCache local_cache(host);
  HostLabelCache& cache =
      options.host_cache != nullptr ? *options.host_cache : local_cache;
  SUBG_CHECK_MSG(&cache.host() == &host,
                 "host label cache was built over a different host graph");

  if (options.shards != nullptr) {
    SUBG_CHECK_MSG(&options.shards->graph() == &host,
                   "host shard plan was built over a different host graph");
  }

  Phase1State st(pattern, host, cache, options);
  st.prune = options.consistency_checks;

  Phase1Result result = run_phase1_refinement(pattern, host, options, st);
  result.relabel_ops = st.relabel_ops;
  if (st.shards != nullptr) {
    result.shards_total = st.shards->shards().size();
    for (std::size_t i = 0; i < result.shards_total; ++i) {
      const bool skip_net = st.shard_skip_net[i] != 0;
      const bool skip_dev = st.shard_skip_dev[i] != 0;
      if (skip_net || skip_dev) ++result.shards_skipped;
      if (skip_net && skip_dev) ++result.shards_prefilter_rejects;
    }
  }

  if (options.metrics != nullptr) {
    obs::Metrics& m = *options.metrics;
    m.add("phase1.runs");
    m.add("phase1.rounds", result.rounds);
    m.add("phase1.relabel_ops", result.relabel_ops);
    m.add("phase1.consistency_prunes", st.pruned);
    if (st.shards != nullptr) {
      // Recorded only for sharded runs, so an unsharded metric tree is
      // byte-identical to the pre-shard pipeline's.
      m.add("phase1.shards.total", result.shards_total);
      m.add("phase1.shards.skipped", result.shards_skipped);
      m.add("phase1.shards.prefilter_rejects", result.shards_prefilter_rejects);
      m.gauge("phase1.shards.bytes", static_cast<double>(st.shards->bytes()));
    }
    m.gauge("csr.arena_bytes",
            static_cast<double>(st.arena.high_water_bytes()));
    if (result.outcome != RunOutcome::kComplete) m.add("phase1.interrupted");
    if (!result.feasible) {
      m.add("phase1.infeasible");
    } else {
      m.add("phase1.candidates", result.candidates.size());
      // Corruption front: non-special pattern vertices reached by the
      // corruption spread from the ports when refinement stopped.
      std::size_t matchable = 0;
      for (Vertex v = 0; v < pattern.vertex_count(); ++v) {
        if (!pattern.is_special(v)) ++matchable;
      }
      m.add("phase1.corrupt_pattern_vertices",
            matchable - result.valid_pattern_vertices);
      m.gauge("phase1.max_candidates",
              static_cast<double>(result.candidates.size()));
    }
    // A caller-shared cache spans many runs; its totals are recorded once
    // by whoever owns it (see extract_gates). The local fallback cache
    // dies here, so its reuse numbers are recorded now.
    if (options.host_cache == nullptr) {
      record_cache_stats(&m, local_cache.stats());
    }
  }
  return result;
}

}  // namespace subg
