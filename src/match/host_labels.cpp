#include "match/host_labels.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

namespace subg {

namespace {
/// Vertex-parallel grain: small enough to balance, large enough that chunk
/// claiming is noise. Host sweeps are memory-bound, so finer doesn't help.
constexpr std::size_t kRelabelGrain = 4096;
}  // namespace

void HostLabelCache::normalize(RailKey& rails) {
  std::sort(rails.begin(), rails.end());
  rails.erase(std::unique(rails.begin(), rails.end()), rails.end());
}

const std::vector<Label>& HostLabelCache::labels(const RailKey& rails,
                                                 std::size_t round,
                                                 ThreadPool* pool) {
  SUBG_FAULT_POINT("cache");
  RailKey key = rails;
  normalize(key);
  if constexpr (kAuditEnabled) {
    // Cache-key stability: every lookup of the same rail set must hash to
    // the same normalized key, or concurrent jobs would fork divergent
    // label sequences for one host.
    SUBG_AUDIT_MSG(std::is_sorted(key.begin(), key.end()),
                   "label-cache audit: rail key not normalized (unsorted)");
    SUBG_AUDIT_MSG(std::adjacent_find(key.begin(), key.end()) == key.end(),
                   "label-cache audit: rail key not normalized (duplicate)");
    for (std::size_t i = 1; i < key.size(); ++i) {
      SUBG_AUDIT_MSG(key[i - 1].first != key[i].first,
                     "label-cache audit: one rail bound to two labels");
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  std::deque<std::vector<Label>>& seq = sequences_[key];
  if (seq.size() > round) {
    ++stats_.hits;
  } else {
    // One miss per round actually computed (round 0 included).
    stats_.misses += round + 1 - seq.size();
  }
  if (seq.empty()) {
    // Round 0: invariant labels, with rail overrides. Host-declared globals
    // that are NOT in the rail set get ordinary degree labels (specialness
    // is pattern-driven; see phase1.cpp).
    std::vector<Label> init(g_->vertex_count());
    for (Vertex v = 0; v < g_->vertex_count(); ++v) {
      init[v] = g_->host_base_label(v);
    }
    for (const auto& [vertex, label] : key) {
      SUBG_CHECK_MSG(vertex < g_->vertex_count(), "rail vertex out of range");
      init[vertex] = label;
    }
    seq.push_back(std::move(init));
  }
  if (seq.size() > round) return seq[round];

  // Rail bitmap and per-kind edge-visit totals, hoisted out of the round
  // loop (they depend only on the key): byte flags probe flat, and each
  // computed round's relabel_ops is the degree sum over the side it sweeps.
  std::vector<std::uint8_t> is_rail(g_->vertex_count(), 0);
  for (const auto& [vertex, label] : key) is_rail[vertex] = 1;
  std::uint64_t net_ops = 0, device_ops = 0;
  for (Vertex v = 0; v < g_->vertex_count(); ++v) {
    if (is_rail[v]) continue;
    (g_->is_net(v) ? net_ops : device_ops) += g_->degree(v);
  }

  while (seq.size() <= round) {
    const std::size_t r = seq.size();  // computing labels after round r
    const bool net_round = (r % 2) == 1;
    const std::vector<Label>& prev = seq.back();
    std::vector<Label> next = prev;

    // Two-buffer synchronous update: next[v] depends only on prev, so the
    // vertex sweep is data-parallel and scheduling-order independent.
    auto sweep_into = [&](std::vector<Label>& out, std::size_t begin,
                          std::size_t end) {
      for (Vertex v = static_cast<Vertex>(begin); v < end; ++v) {
        const bool is_net = g_->is_net(v);
        if (is_net != net_round || is_rail[v] != 0) continue;
        const std::span<const Vertex> to = g_->neighbors(v);
        const std::span<const Label> coeff = g_->coefficients(v);
        Label sum = 0;
        for (std::size_t i = 0; i < to.size(); ++i) {
          sum += edge_contribution(coeff[i], prev[to[i]]);
        }
        out[v] = relabel(prev[v], sum);
      }
    };
    if (pool != nullptr) {
      pool->parallel_for(g_->vertex_count(), kRelabelGrain,
                         [&](std::size_t begin, std::size_t end) {
                           sweep_into(next, begin, end);
                         });
      if constexpr (kAuditEnabled) {
        // Stability across jobs: the parallel sweep must produce exactly
        // the serial labels, or cached rounds would depend on --jobs.
        std::vector<Label> serial = prev;
        sweep_into(serial, 0, g_->vertex_count());
        SUBG_AUDIT_MSG(serial == next,
                       "label-cache audit: parallel relabel sweep diverged "
                       "from the serial sweep");
      }
    } else {
      sweep_into(next, 0, g_->vertex_count());
    }
    if constexpr (kAuditEnabled) {
      // Rail overrides are pinned at round 0 and skipped by every sweep;
      // their labels must never drift between rounds.
      for (const auto& [vertex, label] : key) {
        SUBG_AUDIT_MSG(next[vertex] == label,
                       "label-cache audit: rail override drifted across "
                       "rounds");
      }
    }
    // Work accounting stays out of the (possibly parallel) sweep: the edge
    // visits of a round are a closed form of the swept side's degrees.
    stats_.relabel_ops += net_round ? net_ops : device_ops;
    seq.push_back(std::move(next));
  }
  return seq[round];
}

std::unique_ptr<HostLabelCache> HostLabelCache::rebase(
    const CircuitGraph& new_host, std::span<const Vertex> old_to_new,
    std::span<const Vertex> new_to_old, std::span<const Vertex> dirty_seed,
    std::uint64_t* invalidated) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t nv = new_host.vertex_count();
  SUBG_CHECK_MSG(old_to_new.size() == g_->vertex_count() &&
                     new_to_old.size() == nv,
                 "rebase: vertex map sizes do not match the graphs");

  auto fresh = std::make_unique<HostLabelCache>(new_host);
  fresh->stats_ = stats_;

  std::size_t max_round = 0;
  for (const auto& [key, seq] : sequences_) {
    if (!seq.empty()) max_round = std::max(max_round, seq.size() - 1);
  }

  // Dirty BFS level: dist[v] = hop distance from the seed (fresh vertices
  // included), so "dirty at round r" is dist[v] <= r — the k-hop cone an
  // edit can influence after r relabeling steps. One BFS serves every key:
  // dirtiness over-approximates (rails inside the cone stay pinned anyway),
  // and recomputing an unchanged label is sound, just not free.
  constexpr std::uint32_t kUnreached = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> dist(nv, kUnreached);
  std::vector<Vertex> frontier;
  for (Vertex v : dirty_seed) {
    SUBG_CHECK_MSG(v < nv, "rebase: dirty seed vertex out of range");
    if (dist[v] != 0) {
      dist[v] = 0;
      frontier.push_back(v);
    }
  }
  for (Vertex v = 0; v < nv; ++v) {
    if (new_to_old[v] == kNoVertex && dist[v] != 0) {
      dist[v] = 0;
      frontier.push_back(v);
    }
  }
  std::vector<Vertex> next_frontier;
  for (std::uint32_t level = 1;
       level <= max_round && !frontier.empty(); ++level) {
    next_frontier.clear();
    for (Vertex v : frontier) {
      for (const Vertex to : new_host.neighbors(v)) {
        if (dist[to] > level) {
          dist[to] = level;
          next_frontier.push_back(to);
        }
      }
    }
    std::swap(frontier, next_frontier);
  }
  auto is_dirty = [&dist](Vertex v, std::size_t r) { return dist[v] <= r; };

  std::uint64_t recomputed = 0;
  std::uint64_t recompute_edge_visits = 0;
  for (const auto& [old_key, old_seq] : sequences_) {
    if (old_seq.empty()) continue;
    // Remap the rail key; a key whose rail net was removed is dropped (no
    // pattern can ask for it again without re-resolving the rail, which
    // would produce a new key).
    RailKey key;
    key.reserve(old_key.size());
    bool lost_rail = false;
    for (const auto& [v, label] : old_key) {
      const Vertex mapped = old_to_new[v];
      if (mapped == kNoVertex) {
        lost_rail = true;
        break;
      }
      key.emplace_back(mapped, label);
    }
    if (lost_rail) continue;
    normalize(key);
    std::vector<std::uint8_t> is_rail(nv, 0);
    for (const auto& [v, label] : key) is_rail[v] = 1;

    std::deque<std::vector<Label>> seq;
    std::vector<Label> init(nv);
    for (Vertex v = 0; v < nv; ++v) {
      if (is_dirty(v, 0)) {
        init[v] = new_host.host_base_label(v);
        ++recomputed;
      } else {
        init[v] = old_seq[0][new_to_old[v]];
      }
    }
    for (const auto& [v, label] : key) init[v] = label;
    seq.push_back(std::move(init));

    for (std::size_t r = 1; r < old_seq.size(); ++r) {
      const bool net_round = (r % 2) == 1;
      const std::vector<Label>& prev = seq.back();
      std::vector<Label> next = prev;
      for (Vertex v = 0; v < nv; ++v) {
        if (new_host.is_net(v) != net_round || is_rail[v] != 0) continue;
        if (is_dirty(v, r)) {
          const std::span<const Vertex> to = new_host.neighbors(v);
          const std::span<const Label> coeff = new_host.coefficients(v);
          Label sum = 0;
          for (std::size_t i = 0; i < to.size(); ++i) {
            sum += edge_contribution(coeff[i], prev[to[i]]);
          }
          next[v] = relabel(prev[v], sum);
          ++recomputed;
          recompute_edge_visits += new_host.degree(v);
        } else {
          next[v] = old_seq[r][new_to_old[v]];
        }
      }
      seq.push_back(std::move(next));
    }

    if constexpr (kAuditEnabled) {
      // A18 — cache-invalidation completeness: every rebased round must
      // equal a cold recompute over the edited host. A miss here means the
      // dirty cone was too small (an invalidation bug), not a label bug.
      HostLabelCache cold(new_host);
      for (std::size_t r = 0; r < seq.size(); ++r) {
        SUBG_AUDIT_MSG(cold.labels(key, r) == seq[r],
                       "label-cache audit (A18): rebased round diverged "
                       "from a cold recompute of the edited host");
      }
    }
    fresh->sequences_.emplace(std::move(key), std::move(seq));
  }
  fresh->stats_.relabel_ops += recompute_edge_visits;
  if (invalidated != nullptr) *invalidated += recomputed;
  return fresh;
}

HostLabelCache::CacheStats HostLabelCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t HostLabelCache::cached_rounds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& [key, seq] : sequences_) total += seq.size();
  return total;
}

void record_cache_stats(obs::Metrics* metrics,
                        const HostLabelCache::CacheStats& stats) {
  if (metrics == nullptr) return;
  metrics->add("phase1.label_cache.hits", stats.hits);
  metrics->add("phase1.label_cache.misses", stats.misses);
  metrics->add("phase1.label_cache.relabel_ops", stats.relabel_ops);
}

}  // namespace subg
