#include "graph/shard_plan.hpp"

#include <algorithm>
#include <map>
#include <queue>

#include "util/check.hpp"
#include "util/timer.hpp"

namespace subg {

namespace {

/// splitmix64 finisher — spreads a label over the 256-bit bloom space so
/// the two probe indices are independent of the label's low bits (degree
/// labels share structure there).
[[nodiscard]] std::uint64_t bloom_mix(Label l) {
  std::uint64_t z = l + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void bloom_add(std::array<std::uint64_t, 4>& bits, Label l) {
  const std::uint64_t h = bloom_mix(l);
  const std::uint64_t a = h & 255;
  const std::uint64_t b = (h >> 32) & 255;
  bits[a >> 6] |= std::uint64_t{1} << (a & 63);
  bits[b >> 6] |= std::uint64_t{1} << (b & 63);
}

[[nodiscard]] bool bloom_maybe(const std::array<std::uint64_t, 4>& bits,
                               Label l) {
  const std::uint64_t h = bloom_mix(l);
  const std::uint64_t a = h & 255;
  const std::uint64_t b = (h >> 32) & 255;
  return ((bits[a >> 6] >> (a & 63)) & 1) != 0 &&
         ((bits[b >> 6] >> (b & 63)) & 1) != 0;
}

/// One anchor-free connected component, vertices in BFS discovery order
/// (the order oversized components are split along).
struct Component {
  std::vector<Vertex> order;
  std::size_t device_count = 0;
  /// Sorted distinct device type labels — the packing-bucket signature.
  std::vector<Label> signature;
};

[[nodiscard]] ShardPlan::Shard make_shard(const CircuitGraph& g,
                                          const std::vector<Vertex>& verts,
                                          const std::vector<char>& anchor) {
  ShardPlan::Shard sh;
  for (Vertex v : verts) {
    (g.is_device(v) ? sh.devices : sh.nets).push_back(v);
  }
  std::sort(sh.devices.begin(), sh.devices.end());
  std::sort(sh.nets.begin(), sh.nets.end());

  // Boundary: every anchor net an owned device touches, once, ascending.
  for (Vertex d : sh.devices) {
    for (const Vertex to : g.neighbors(d)) {
      if (anchor[to] != 0) sh.anchor_refs.push_back(to);
    }
  }
  std::sort(sh.anchor_refs.begin(), sh.anchor_refs.end());
  sh.anchor_refs.erase(
      std::unique(sh.anchor_refs.begin(), sh.anchor_refs.end()),
      sh.anchor_refs.end());

  // Device-side CSR slice over local ids [devices | nets | anchor_refs].
  const std::size_t net_base = sh.devices.size();
  const std::size_t anchor_base = net_base + sh.nets.size();
  sh.slice_begin.reserve(sh.devices.size() + 1);
  sh.slice_begin.push_back(0);
  for (Vertex d : sh.devices) {
    for (const Vertex to : g.neighbors(d)) {
      std::size_t local;
      if (anchor[to] != 0) {
        const auto it = std::lower_bound(sh.anchor_refs.begin(),
                                         sh.anchor_refs.end(), to);
        local = anchor_base +
                static_cast<std::size_t>(it - sh.anchor_refs.begin());
      } else {
        const auto it =
            std::lower_bound(sh.nets.begin(), sh.nets.end(), to);
        local = net_base + static_cast<std::size_t>(it - sh.nets.begin());
      }
      sh.slice_adj.push_back(static_cast<std::uint32_t>(local));
    }
    sh.slice_begin.push_back(sh.slice_adj.size());
  }

  // Prefilter columns + blooms + the device-type histogram.
  std::vector<Label> column;
  column.reserve(sh.devices.size());
  for (Vertex d : sh.devices) column.push_back(g.initial_label(d));
  std::sort(column.begin(), column.end());
  for (std::size_t i = 0; i < column.size(); ++i) {
    if (i == 0 || column[i] != column[i - 1]) {
      sh.device_labels.push_back(column[i]);
      sh.type_histogram.emplace_back(column[i], 0);
      bloom_add(sh.device_bloom, column[i]);
    }
    ++sh.type_histogram.back().second;
  }
  column.clear();
  for (Vertex n : sh.nets) column.push_back(g.initial_label(n));
  std::sort(column.begin(), column.end());
  for (std::size_t i = 0; i < column.size(); ++i) {
    if (i == 0 || column[i] != column[i - 1]) {
      sh.net_labels.push_back(column[i]);
      bloom_add(sh.net_bloom, column[i]);
    }
  }
  return sh;
}

[[nodiscard]] std::uint64_t vector_bytes(const auto& v) {
  return static_cast<std::uint64_t>(v.size() * sizeof(v[0]));
}

}  // namespace

Round0PatternLabels pattern_round0_labels(const CircuitGraph& pattern) {
  // Mirror of Phase1State's valid_s init: everything starts valid, then the
  // non-global ports are corrupted; specials never enter the census.
  std::vector<char> valid(pattern.vertex_count(), 1);
  const Netlist& pnl = pattern.netlist();
  for (NetId port : pnl.ports()) {
    if (!pnl.is_global(port)) valid[pattern.vertex_of(port)] = 0;
  }
  Round0PatternLabels out;
  for (Vertex v = 0; v < pattern.vertex_count(); ++v) {
    if (pattern.is_special(v) || valid[v] == 0) continue;
    (pattern.is_device(v) ? out.devices : out.nets)
        .push_back(pattern.initial_label(v));
  }
  for (auto* column : {&out.nets, &out.devices}) {
    std::sort(column->begin(), column->end());
    column->erase(std::unique(column->begin(), column->end()), column->end());
  }
  return out;
}

bool ShardPlan::Shard::rejects(std::span<const Label> sorted_labels,
                               bool device_kind) const {
  const std::vector<Label>& column = device_kind ? device_labels : net_labels;
  const std::array<std::uint64_t, 4>& bloom =
      device_kind ? device_bloom : net_bloom;
  if (column.empty()) return true;
  for (Label l : sorted_labels) {
    if (!bloom_maybe(bloom, l)) continue;  // definite miss
    if (std::binary_search(column.begin(), column.end(), l)) return false;
  }
  return true;
}

ShardPlan ShardPlan::build(const CircuitGraph& graph,
                           ShardPlanOptions options) {
  SUBG_CHECK_MSG(options.target_devices > 0,
                 "shard plan needs target_devices >= 1");
  Timer timer;
  ShardPlan plan;
  plan.graph_ = &graph;
  plan.options_ = options;

  const std::size_t nv = graph.vertex_count();
  std::vector<char> anchor(nv, 0);
  for (Vertex v = 0; v < nv; ++v) {
    if (!graph.is_net(v)) continue;
    if (graph.is_special(v) || graph.degree(v) >= options.anchor_fanout) {
      anchor[v] = 1;
      plan.anchors_.push_back(v);
    }
  }

  // Connected components of the anchor-free graph, discovered in ascending
  // seed order (BFS never crosses an anchor net, so the anchors are the
  // region boundaries).
  std::vector<char> visited(nv, 0);
  std::vector<Component> components;
  std::vector<Vertex> queue;
  for (Vertex seed = 0; seed < nv; ++seed) {
    if (visited[seed] != 0 || anchor[seed] != 0) continue;
    Component comp;
    visited[seed] = 1;
    queue.clear();
    queue.push_back(seed);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const Vertex v = queue[head];
      comp.order.push_back(v);
      if (graph.is_device(v)) {
        ++comp.device_count;
        comp.signature.push_back(graph.initial_label(v));
      }
      for (const Vertex to : graph.neighbors(v)) {
        if (anchor[to] != 0 || visited[to] != 0) continue;
        visited[to] = 1;
        queue.push_back(to);
      }
    }
    std::sort(comp.signature.begin(), comp.signature.end());
    comp.signature.erase(
        std::unique(comp.signature.begin(), comp.signature.end()),
        comp.signature.end());
    components.push_back(std::move(comp));
  }

  // Bucket components by type signature (first-appearance order — a pure
  // function of the vertex numbering), then pack each bucket greedily into
  // shards of at most target_devices owned devices. Homogeneous buckets are
  // what lets the prefilter reject whole shards: a pad-ring shard never
  // dilutes its label columns with logic-tile types.
  std::map<std::vector<Label>, std::size_t> bucket_of;
  std::vector<std::vector<std::size_t>> buckets;
  std::vector<std::size_t> bucket_order;
  for (std::size_t c = 0; c < components.size(); ++c) {
    auto [it, inserted] =
        bucket_of.try_emplace(components[c].signature, buckets.size());
    if (inserted) {
      buckets.emplace_back();
      bucket_order.push_back(it->second);
    }
    buckets[it->second].push_back(c);
  }

  std::vector<Vertex> current;
  std::size_t current_devices = 0;
  auto flush = [&] {
    if (current.empty()) return;
    plan.shards_.push_back(make_shard(graph, current, anchor));
    current.clear();
    current_devices = 0;
  };
  for (std::size_t b : bucket_order) {
    for (std::size_t c : buckets[b]) {
      const Component& comp = components[c];
      if (comp.device_count > options.target_devices) {
        // Oversized component: split along its BFS order so every chunk
        // stays within the target (owned nets follow their discovery
        // position — ownership is a partition, not a locality promise).
        flush();
        for (Vertex v : comp.order) {
          if (graph.is_device(v) && current_devices == options.target_devices) {
            flush();
          }
          current.push_back(v);
          if (graph.is_device(v)) ++current_devices;
        }
        flush();
        continue;
      }
      if (!current.empty() &&
          current_devices + comp.device_count > options.target_devices) {
        flush();
      }
      current.insert(current.end(), comp.order.begin(), comp.order.end());
      current_devices += comp.device_count;
    }
    flush();  // shards never span buckets
  }

  plan.build_seconds_ = timer.seconds();
  return plan;
}

std::uint64_t ShardPlan::bytes() const {
  std::uint64_t total = vector_bytes(anchors_);
  for (const Shard& sh : shards_) {
    total += vector_bytes(sh.devices) + vector_bytes(sh.nets) +
             vector_bytes(sh.anchor_refs) + vector_bytes(sh.slice_begin) +
             vector_bytes(sh.slice_adj) + vector_bytes(sh.device_labels) +
             vector_bytes(sh.net_labels) + vector_bytes(sh.type_histogram) +
             sizeof(sh.device_bloom) + sizeof(sh.net_bloom);
  }
  return total;
}

std::size_t ShardPlan::max_shard_devices() const {
  std::size_t most = 0;
  for (const Shard& sh : shards_) most = std::max(most, sh.devices.size());
  return most;
}

}  // namespace subg
