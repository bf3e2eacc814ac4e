#include "session/session.hpp"

#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"

namespace subg {

HostSession HostSession::build(Netlist netlist, SessionOptions options) {
  HostSession session;
  session.options_ = options;
  session.netlist_ = std::make_unique<Netlist>(std::move(netlist));
  session.graph_ = std::make_unique<CircuitGraph>(*session.netlist_);
  session.cache_ = std::make_unique<HostLabelCache>(*session.graph_);
  if (options.shard_target_devices > 0) {
    session.shards_ = std::make_unique<ShardPlan>(ShardPlan::build(
        *session.graph_, {.target_devices = options.shard_target_devices,
                          .anchor_fanout = options.shard_anchor_fanout}));
  }
  // Path-label memo, shared by every match (configure() wires it into
  // MatchOptions::host_path_labels); Phase II counts each anchor on its
  // first query, so a build counts nothing.
  session.paths_ = std::make_unique<analyze::HostPathLabels>(*session.graph_);
  return session;
}

ApplyStats HostSession::apply(const NetlistDelta& delta) {
  // Every fallible step runs on copies; nothing the session owns is
  // touched until the commit below, so a throw anywhere in this block —
  // including the injected "session.patch" fault — rolls back for free.
  auto new_netlist = std::make_unique<Netlist>(*netlist_);
  const DeltaEffects fx = apply_delta(*new_netlist, delta);
  if constexpr (kAuditEnabled) {
    new_netlist->validate();
  }
  auto new_graph = std::make_unique<CircuitGraph>(*new_netlist);

  // Vertex pedigree across the edit: resolve every post-edit entity back
  // to its pre-edit id by name (through the rename map), skipping fresh
  // ones. Unmatched vertices on either side map to kNoVertex.
  const Vertex kNone = HostLabelCache::kNoVertex;
  std::vector<Vertex> old_to_new(graph_->vertex_count(), kNone);
  std::vector<Vertex> new_to_old(new_graph->vertex_count(), kNone);
  for (std::uint32_t d = 0; d < new_netlist->device_count(); ++d) {
    const std::string& name = new_netlist->device_name(DeviceId(d));
    if (fx.fresh_devices.contains(name)) continue;
    const auto pre = fx.device_pre_name.find(name);
    const auto old_id = netlist_->find_device(
        pre == fx.device_pre_name.end() ? name : pre->second);
    if (!old_id) continue;
    const Vertex ov = graph_->vertex_of(*old_id);
    const Vertex nv = new_graph->vertex_of(DeviceId(d));
    old_to_new[ov] = nv;
    new_to_old[nv] = ov;
  }
  for (std::uint32_t n = 0; n < new_netlist->net_count(); ++n) {
    const std::string& name = new_netlist->net_name(NetId(n));
    if (fx.fresh_nets.contains(name)) continue;
    const auto pre = fx.net_pre_name.find(name);
    const auto old_id = netlist_->find_net(
        pre == fx.net_pre_name.end() ? name : pre->second);
    if (!old_id) continue;
    const Vertex ov = graph_->vertex_of(*old_id);
    const Vertex nv = new_graph->vertex_of(NetId(n));
    old_to_new[ov] = nv;
    new_to_old[nv] = ov;
  }

  // Dirty-cone seed, in new-graph vertices: nets whose pin set changed,
  // plus renamed entities (a renamed GLOBAL net changes its fixed label —
  // special_net_label hashes the name; renamed devices are included
  // defensively, their labels are name-independent). Fresh vertices seed
  // implicitly inside rebase (no old value to copy).
  std::vector<Vertex> dirty_seed;
  for (const std::string& name : fx.touched_nets) {
    if (const auto id = new_netlist->find_net(name)) {
      dirty_seed.push_back(new_graph->vertex_of(*id));
    }
  }
  for (const auto& [name, pre] : fx.net_pre_name) {
    if (const auto id = new_netlist->find_net(name)) {
      dirty_seed.push_back(new_graph->vertex_of(*id));
    }
  }
  for (const auto& [name, pre] : fx.device_pre_name) {
    if (const auto id = new_netlist->find_device(name)) {
      dirty_seed.push_back(new_graph->vertex_of(*id));
    }
  }

  ApplyStats stats;
  stats.patched_devices = fx.device_ops;
  stats.patched_nets = fx.net_ops;
  stats.renames = fx.rename_ops;
  auto new_cache = cache_->rebase(*new_graph, old_to_new, new_to_old,
                                  dirty_seed, &stats.invalidated_labels);
  // A path-label count depends only on the graph it belongs to, so the
  // edited graph gets a fresh, empty memo: nothing is carried over, and
  // nothing can go stale.
  auto new_paths = std::make_unique<analyze::HostPathLabels>(*new_graph);
  // The shard plan rebuilds cold over the edited graph (a pure function of
  // it, so a patched session's plan equals a cold build's by construction);
  // like every other fallible step it runs before the commit point.
  std::unique_ptr<ShardPlan> new_shards;
  if (shards_ != nullptr) {
    new_shards = std::make_unique<ShardPlan>(
        ShardPlan::build(*new_graph, shards_->options()));
  }

  SUBG_FAULT_POINT("session.patch");

  // --- commit (infallible modulo bad_alloc) ---------------------------
  netlist_ = std::move(new_netlist);
  graph_ = std::move(new_graph);
  cache_ = std::move(new_cache);
  paths_ = std::move(new_paths);
  shards_ = std::move(new_shards);
  ++patch_count_;
  totals_.patched_devices += stats.patched_devices;
  totals_.patched_nets += stats.patched_nets;
  totals_.renames += stats.renames;
  totals_.invalidated_labels += stats.invalidated_labels;
  return stats;
}

void HostSession::configure(MatchOptions& options) {
  options.phase1.host_cache = cache_.get();
  options.phase1.shards = shards_.get();
  options.host_path_labels = paths_.get();
}

MatchReport find_in_session(const Netlist& pattern, HostSession& session,
                            MatchOptions options) {
  session.configure(options);
  SubgraphMatcher matcher(pattern, session.graph(), options);
  return matcher.find_all();
}

void record_eco_stats(obs::Metrics* metrics, const ApplyStats& stats) {
  obs::count(metrics, "eco.patched_devices", stats.patched_devices);
  obs::count(metrics, "eco.patched_nets", stats.patched_nets);
  obs::count(metrics, "eco.renames", stats.renames);
  obs::count(metrics, "eco.invalidated_labels", stats.invalidated_labels);
  obs::count(metrics, "eco.compactions", 0);
}

}  // namespace subg
