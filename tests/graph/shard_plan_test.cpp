// ShardPlan structural invariants (DESIGN.md §11).
//
// The sharded Phase I sweep leans on four properties of the plan, each
// pinned here against the plain CircuitGraph as ground truth:
//   1. PARTITION — every device is owned by exactly one shard; every net is
//      owned by exactly one shard XOR is a boundary anchor.
//   2. DETERMINISM — the plan is a pure function of (graph, options).
//   3. FIDELITY — the per-shard CSR slice, label columns, bloom filters,
//      and type histogram agree with the graph they summarize.
//   4. SOUNDNESS — Shard::rejects(labels, kind) is true iff NO owned vertex
//      of that kind carries a label in the set (brute force over the owned
//      lists), because that emptiness is what licenses the round-0
//      bulk-skip in match/phase1.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "gen/generators.hpp"
#include "graph/circuit_graph.hpp"
#include "graph/shard_plan.hpp"
#include "util/rng.hpp"

namespace subg {
namespace {

/// 32 tiles x 8 units on a 2-net bus with a 16-cell pad ring: each bus net
/// reaches 32/2 + 1 = 17 pins, past the 16-pin anchor threshold below, so
/// the plan has both anchor flavors (rails by is_special, bus by fanout);
/// each 48-device tile fits the 256-device target.
gen::Generated small_soc() { return gen::soc_grid(32, 8, 16, 2); }

ShardPlanOptions small_options() {
  ShardPlanOptions o;
  o.target_devices = 256;
  o.anchor_fanout = 16;
  return o;
}

TEST(ShardPlan, PartitionsDevicesAndNets) {
  gen::Generated g = small_soc();
  CircuitGraph graph(g.netlist);
  ShardPlan plan = ShardPlan::build(graph, small_options());
  ASSERT_FALSE(plan.shards().empty());

  std::vector<int> device_owner(graph.vertex_count(), 0);
  std::vector<int> net_owner(graph.vertex_count(), 0);
  for (const ShardPlan::Shard& s : plan.shards()) {
    for (Vertex v : s.devices) {
      ASSERT_TRUE(graph.is_device(v));
      ++device_owner[v];
    }
    for (Vertex v : s.nets) {
      ASSERT_TRUE(graph.is_net(v));
      ++net_owner[v];
    }
  }
  std::set<Vertex> anchors(plan.anchor_nets().begin(),
                           plan.anchor_nets().end());
  for (Vertex v = 0; v < graph.vertex_count(); ++v) {
    if (graph.is_device(v)) {
      EXPECT_EQ(device_owner[v], 1) << "device vertex " << v;
    } else if (anchors.contains(v)) {
      EXPECT_EQ(net_owner[v], 0) << "anchor net owned by a shard: " << v;
    } else {
      EXPECT_EQ(net_owner[v], 1) << "net vertex " << v;
    }
  }
}

TEST(ShardPlan, AnchorsAreTheSpecialAndHighFanoutNets) {
  gen::Generated g = small_soc();
  CircuitGraph graph(g.netlist);
  const ShardPlanOptions opts = small_options();
  ShardPlan plan = ShardPlan::build(graph, opts);
  std::set<Vertex> anchors(plan.anchor_nets().begin(),
                           plan.anchor_nets().end());
  for (Vertex v = 0; v < graph.vertex_count(); ++v) {
    if (!graph.is_net(v)) continue;
    const bool expect_anchor =
        graph.is_special(v) || graph.degree(v) >= opts.anchor_fanout;
    EXPECT_EQ(anchors.contains(v), expect_anchor)
        << "net vertex " << v << " degree " << graph.degree(v);
  }
  // Both anchor flavors must actually occur: the rails (is_special) and the
  // two 17-pin bus nets (fanout >= 16 but not special).
  std::size_t special = 0;
  std::size_t by_fanout = 0;
  for (Vertex v : plan.anchor_nets()) {
    graph.is_special(v) ? ++special : ++by_fanout;
  }
  EXPECT_GE(special, 2u);
  EXPECT_GE(by_fanout, 2u);
}

TEST(ShardPlan, BuildIsDeterministic) {
  gen::Generated g = small_soc();
  CircuitGraph graph(g.netlist);
  ShardPlan a = ShardPlan::build(graph, small_options());
  ShardPlan b = ShardPlan::build(graph, small_options());
  ASSERT_EQ(a.shards().size(), b.shards().size());
  for (std::size_t i = 0; i < a.shards().size(); ++i) {
    const ShardPlan::Shard& sa = a.shards()[i];
    const ShardPlan::Shard& sb = b.shards()[i];
    EXPECT_EQ(sa.devices, sb.devices) << "shard " << i;
    EXPECT_EQ(sa.nets, sb.nets) << "shard " << i;
    EXPECT_EQ(sa.anchor_refs, sb.anchor_refs) << "shard " << i;
    EXPECT_EQ(sa.slice_begin, sb.slice_begin) << "shard " << i;
    EXPECT_EQ(sa.slice_adj, sb.slice_adj) << "shard " << i;
    EXPECT_EQ(sa.device_labels, sb.device_labels) << "shard " << i;
    EXPECT_EQ(sa.net_labels, sb.net_labels) << "shard " << i;
    EXPECT_EQ(sa.device_bloom, sb.device_bloom) << "shard " << i;
    EXPECT_EQ(sa.net_bloom, sb.net_bloom) << "shard " << i;
    EXPECT_EQ(sa.type_histogram, sb.type_histogram) << "shard " << i;
  }
  EXPECT_EQ(std::vector<Vertex>(a.anchor_nets().begin(),
                                a.anchor_nets().end()),
            std::vector<Vertex>(b.anchor_nets().begin(),
                                b.anchor_nets().end()));
}

TEST(ShardPlan, RespectsTheDeviceTarget) {
  gen::Generated g = small_soc();
  CircuitGraph graph(g.netlist);
  const ShardPlanOptions opts = small_options();
  ShardPlan plan = ShardPlan::build(graph, opts);
  // Every component of the small soc (a 48-device tile, a pad cell, a bus
  // driver) fits under the 256-device target, so no shard may exceed it.
  EXPECT_LE(plan.max_shard_devices(), opts.target_devices);
  // 32 tiles x 48 devices pack at most 5 to a 256-device shard, plus the
  // pad bucket: at least 7 shards.
  EXPECT_GE(plan.shards().size(), 7u);
  EXPECT_GT(plan.bytes(), 0u);
}

TEST(ShardPlan, CsrSliceMatchesGraphAdjacency) {
  gen::Generated g = small_soc();
  CircuitGraph graph(g.netlist);
  ShardPlan plan = ShardPlan::build(graph, small_options());
  for (const ShardPlan::Shard& s : plan.shards()) {
    // Local id space: [devices | nets | anchor_refs].
    std::map<Vertex, std::uint32_t> local;
    std::vector<Vertex> global;
    for (Vertex v : s.devices) {
      local.emplace(v, static_cast<std::uint32_t>(global.size()));
      global.push_back(v);
    }
    for (Vertex v : s.nets) {
      local.emplace(v, static_cast<std::uint32_t>(global.size()));
      global.push_back(v);
    }
    for (Vertex v : s.anchor_refs) {
      local.emplace(v, static_cast<std::uint32_t>(global.size()));
      global.push_back(v);
    }
    ASSERT_EQ(s.slice_begin.size(), s.devices.size() + 1);
    for (std::size_t i = 0; i < s.devices.size(); ++i) {
      const Vertex d = s.devices[i];
      std::vector<std::uint32_t> expect;
      for (const Vertex to : graph.neighbors(d)) {
        auto it = local.find(to);
        ASSERT_NE(it, local.end())
            << "device " << d << " touches net " << to
            << " that is neither owned nor an anchor ref of its shard";
        expect.push_back(it->second);
      }
      const std::vector<std::uint32_t> got(
          s.slice_adj.begin() + static_cast<std::ptrdiff_t>(s.slice_begin[i]),
          s.slice_adj.begin() +
              static_cast<std::ptrdiff_t>(s.slice_begin[i + 1]));
      EXPECT_EQ(got, expect) << "device " << d;
    }
  }
}

TEST(ShardPlan, LabelColumnsBloomAndHistogramAreExact) {
  gen::Generated g = small_soc();
  CircuitGraph graph(g.netlist);
  ShardPlan plan = ShardPlan::build(graph, small_options());
  for (const ShardPlan::Shard& s : plan.shards()) {
    std::set<Label> dev_labels;
    std::map<Label, std::uint64_t> histogram;
    for (Vertex v : s.devices) {
      dev_labels.insert(graph.initial_label(v));
      ++histogram[graph.initial_label(v)];
    }
    std::set<Label> net_labels;
    for (Vertex v : s.nets) net_labels.insert(graph.initial_label(v));

    EXPECT_EQ(std::vector<Label>(dev_labels.begin(), dev_labels.end()),
              s.device_labels);
    EXPECT_EQ(std::vector<Label>(net_labels.begin(), net_labels.end()),
              s.net_labels);
    using HistogramRows = std::vector<std::pair<Label, std::uint64_t>>;
    EXPECT_EQ(HistogramRows(histogram.begin(), histogram.end()),
              s.type_histogram);
    // Bloom completeness: a label actually present must never probe
    // negative (negatives are definite; that is the whole contract).
    auto probes_positive = [](const std::array<std::uint64_t, 4>& bloom,
                              Label l) {
      const std::uint64_t h = splitmix64_mix(l);
      const std::uint32_t b1 = static_cast<std::uint32_t>(h) & 255u;
      const std::uint32_t b2 = static_cast<std::uint32_t>(h >> 32) & 255u;
      return ((bloom[b1 / 64] >> (b1 % 64)) & 1) != 0 &&
             ((bloom[b2 / 64] >> (b2 % 64)) & 1) != 0;
    };
    for (Label l : s.device_labels) {
      EXPECT_TRUE(probes_positive(s.device_bloom, l));
    }
    for (Label l : s.net_labels) {
      EXPECT_TRUE(probes_positive(s.net_bloom, l));
    }
  }
}

TEST(ShardPlan, RejectsMatchesBruteForceEmptiness) {
  gen::Generated g = small_soc();
  CircuitGraph graph(g.netlist);
  ShardPlan plan = ShardPlan::build(graph, small_options());

  // Probe sets: each shard's own columns (never rejected), other shards'
  // columns (rejected iff disjoint), the empty set (always rejected), and
  // a synthetic all-miss set.
  std::vector<std::vector<Label>> probes;
  for (const ShardPlan::Shard& s : plan.shards()) {
    probes.push_back(s.device_labels);
    probes.push_back(s.net_labels);
  }
  probes.push_back({});
  probes.push_back({Label{0xdeadbeefu}});

  for (const ShardPlan::Shard& s : plan.shards()) {
    for (const std::vector<Label>& probe : probes) {
      for (bool device_kind : {true, false}) {
        const std::vector<Vertex>& owned = device_kind ? s.devices : s.nets;
        bool any = false;
        for (Vertex v : owned) {
          if (std::binary_search(probe.begin(), probe.end(),
                                 graph.initial_label(v))) {
            any = true;
            break;
          }
        }
        EXPECT_EQ(s.rejects(probe, device_kind), !any)
            << "kind=" << device_kind << " probe size " << probe.size();
      }
    }
  }
}

TEST(ShardPlan, PatternRound0LabelsAreSortedDistinct) {
  gen::Generated g = gen::soc_grid(2, 4, 2, 1);
  CircuitGraph graph(g.netlist);
  Round0PatternLabels labels = pattern_round0_labels(graph);
  EXPECT_TRUE(std::is_sorted(labels.devices.begin(), labels.devices.end()));
  EXPECT_TRUE(std::is_sorted(labels.nets.begin(), labels.nets.end()));
  EXPECT_EQ(std::adjacent_find(labels.devices.begin(), labels.devices.end()),
            labels.devices.end());
  EXPECT_EQ(std::adjacent_find(labels.nets.begin(), labels.nets.end()),
            labels.nets.end());
  EXPECT_FALSE(labels.devices.empty());
}

}  // namespace
}  // namespace subg
