// Sharded vs monolithic equivalence — the --shard invariant (DESIGN.md §11).
//
// The contract (SessionOptions::shard_target_devices): sharding partitions
// Phase I's host-side consistency sweeps into per-region lanes with a
// round-0 bulk-skip prefilter, and changes NOTHING else. Reports —
// instances, their order, every Phase I/II statistic, the serialized JSON —
// are byte-identical to the monolithic sweep, at every jobs value, at
// every region size (including adversarially tiny ones that splinter the
// host into hundreds of shards), and through ECO patches.
// These tests pin that contract plus the prefilter's soundness: a shard
// skipped for a kind can never own the image of a match.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "cells/cells.hpp"
#include "gen/generators.hpp"
#include "graph/shard_plan.hpp"
#include "match/matcher.hpp"
#include "report/document.hpp"
#include "session/delta.hpp"
#include "session/session.hpp"

namespace subg {
namespace {

/// Serialized report with the wall-clock members zeroed: byte equality of
/// this string is the equivalence claim.
std::string report_json(MatchReport report) {
  report.phase1_seconds = 0;
  report.phase2_seconds = 0;
  return report::to_json(report).dump();
}

MatchReport run(const Netlist& pattern, const Netlist& host,
                std::size_t shard_target, std::size_t anchor_fanout,
                std::size_t jobs) {
  SessionOptions so;
  so.shard_target_devices = shard_target;
  so.shard_anchor_fanout = anchor_fanout;
  HostSession session = HostSession::build(host, so);
  MatchOptions opts;
  opts.jobs = jobs;
  return find_in_session(pattern, session, opts);
}

struct Workload {
  const char* cell;
  gen::Generated g;
};

std::vector<Workload> workloads() {
  std::vector<Workload> w;
  w.push_back({"nand2", gen::soc_grid(12, 6, 8, 2)});
  w.push_back({"nand2", gen::c17()});
  w.push_back({"fulladder", gen::ripple_carry_adder(6)});
  w.push_back({"nand2", gen::logic_soup(120, 5)});
  w.push_back({"dff", gen::register_file(2, 4)});
  w.push_back({"sram6t", gen::sram_array(4, 8)});
  return w;
}

TEST(ShardEquivalence, ShardedReportEqualsMonolithicEverywhere) {
  std::vector<Workload> ws = workloads();
  cells::CellLibrary lib;
  std::size_t instances_total = 0;
  for (const Workload& w : ws) {
    const Netlist& pattern = lib.pattern(w.cell);
    const std::string mono = report_json(
        run(pattern, w.g.netlist, 0, 64, 1));
    // Region sizes from "whole host in one shard" down to "a shard per
    // handful of devices"; anchor fanouts low enough to anchor ordinary
    // logic nets. Every combination must reproduce the monolithic bytes.
    for (const std::size_t target : {std::size_t{1} << 16, std::size_t{64},
                                     std::size_t{7}}) {
      for (const std::size_t fanout : {std::size_t{64}, std::size_t{5}}) {
        for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
          SCOPED_TRACE(std::string(w.cell) + " target=" +
                       std::to_string(target) + " fanout=" +
                       std::to_string(fanout) + " jobs=" +
                       std::to_string(jobs));
          MatchReport r =
              run(pattern, w.g.netlist, target, fanout, jobs);
          EXPECT_GT(r.phase1.shards_total, 0u);
          instances_total += r.instances.size();
          EXPECT_EQ(report_json(std::move(r)), mono);
        }
      }
    }
  }
  // Guard against vacuous equivalence: the workloads must actually match.
  EXPECT_GT(instances_total, 100u);
}

TEST(ShardEquivalence, MonolithicRunsReportZeroShardCounters) {
  cells::CellLibrary lib;
  gen::Generated g = gen::soc_grid(4, 4, 4, 1);
  MatchReport r = run(lib.pattern("nand2"), g.netlist, 0, 64, 1);
  EXPECT_EQ(r.phase1.shards_total, 0u);
  EXPECT_EQ(r.phase1.shards_skipped, 0u);
  EXPECT_EQ(r.phase1.shards_prefilter_rejects, 0u);
}

TEST(ShardEquivalence, ShardCountersAreDeterministicAcrossJobsAndCores) {
  cells::CellLibrary lib;
  gen::Generated g = gen::soc_grid(12, 6, 8, 2);
  const Netlist& pattern = lib.pattern("nand2");
  MatchReport first = run(pattern, g.netlist, 64, 5, 1);
  EXPECT_GT(first.phase1.shards_total, 0u);
  // The pad-ring shards share no round-0 label with a CMOS pattern: the
  // prefilter must fire on this workload, not just stay sound.
  EXPECT_GT(first.phase1.shards_prefilter_rejects, 0u);
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    MatchReport r = run(pattern, g.netlist, 64, 5, jobs);
    EXPECT_EQ(r.phase1.shards_total, first.phase1.shards_total);
    EXPECT_EQ(r.phase1.shards_skipped, first.phase1.shards_skipped);
    EXPECT_EQ(r.phase1.shards_prefilter_rejects,
              first.phase1.shards_prefilter_rejects);
  }
}

TEST(ShardEquivalence, SkippedShardsNeverOwnAMatchImage) {
  // Prefilter soundness, checked from the instance side: rebuild the plan
  // the session used, recompute each shard's round-0 rejection against the
  // pattern labels, and require every match image to avoid the shards that
  // rejected its kind. (Byte-identity above implies this; checking it
  // directly localizes a soundness bug to the skip rule instead of
  // surfacing as a diff between two 10k-line reports.)
  cells::CellLibrary lib;
  gen::Generated g = gen::soc_grid(12, 6, 8, 2);
  const Netlist& pattern = lib.pattern("nand2");

  SessionOptions so;
  so.shard_target_devices = 48;
  so.shard_anchor_fanout = 5;
  HostSession session = HostSession::build(g.netlist, so);
  MatchOptions opts;
  MatchReport r = find_in_session(pattern, session, opts);
  ASSERT_GT(r.instances.size(), 0u);
  ASSERT_NE(session.shards(), nullptr);
  const ShardPlan& plan = *session.shards();
  const CircuitGraph& host = session.graph();

  CircuitGraph pattern_graph(pattern);
  const Round0PatternLabels labels = pattern_round0_labels(pattern_graph);

  std::size_t rejecting_shards = 0;
  for (const ShardPlan::Shard& s : plan.shards()) {
    const bool dead_devices = s.rejects(labels.devices, true);
    const bool dead_nets = s.rejects(labels.nets, false);
    if (!dead_devices && !dead_nets) continue;
    ++rejecting_shards;
    std::set<Vertex> owned_devices(s.devices.begin(), s.devices.end());
    std::set<Vertex> owned_nets(s.nets.begin(), s.nets.end());
    for (const SubcircuitInstance& inst : r.instances) {
      if (dead_devices) {
        for (DeviceId d : inst.device_image) {
          EXPECT_FALSE(owned_devices.contains(host.vertex_of(d)))
              << "device " << g.netlist.device_name(d)
              << " matched inside a shard whose device kind was rejected";
        }
      }
      if (dead_nets) {
        for (NetId n : inst.net_image) {
          EXPECT_FALSE(owned_nets.contains(host.vertex_of(n)))
              << "net " << g.netlist.net_name(n)
              << " matched inside a shard whose net kind was rejected";
        }
      }
    }
  }
  // The pad shards must have rejected — otherwise this test proved nothing.
  EXPECT_GT(rejecting_shards, 0u);
}

TEST(ShardEquivalence, PatchedShardedSessionEqualsColdBuild) {
  // ECO through a sharded session: the plan is rebuilt cold on every patch,
  // so a patched session must stay byte-identical to a cold build of the
  // edited netlist — sharded AND monolithic views alike.
  cells::CellLibrary lib;
  gen::Generated g = gen::soc_grid(12, 6, 8, 2);
  const Netlist& pattern = lib.pattern("nand2");

  SessionOptions so;
  so.shard_target_devices = 64;
  so.shard_anchor_fanout = 5;
  MatchOptions opts;
  opts.jobs = 8;

  HostSession session = HostSession::build(g.netlist, so);
  (void)find_in_session(pattern, session, opts);  // warm the cache pre-patch

  NetlistDelta delta;
  {
    // Drop one pad resistor and add an inverter onto a tile chain: the
    // patch touches both districts, so the rebuilt plan differs from the
    // pre-patch plan in more than counts.
    DeltaOp remove;
    remove.kind = DeltaOpKind::kRemoveDevice;
    remove.name = g.netlist.device_name(DeviceId(0));
    remove.line = 1;
    const std::uint32_t fet_pins = static_cast<std::uint32_t>(
        g.netlist.catalog().type(g.netlist.catalog().require("nmos"))
            .pin_count());
    DeltaOp add_p;
    add_p.kind = DeltaOpKind::kAddDevice;
    add_p.type = "pmos";
    add_p.name = "eco_mp";
    add_p.nets = {"eco_w", "t0_c0"};
    while (add_p.nets.size() < fet_pins) add_p.nets.emplace_back("vdd");
    add_p.line = 2;
    DeltaOp add_n;
    add_n.kind = DeltaOpKind::kAddDevice;
    add_n.type = "nmos";
    add_n.name = "eco_mn";
    add_n.nets = {"eco_w", "t0_c0"};
    while (add_n.nets.size() < fet_pins) add_n.nets.emplace_back("gnd");
    add_n.line = 3;
    delta.ops = {remove, add_p, add_n};
  }
  (void)session.apply(delta);
  const MatchReport patched = find_in_session(pattern, session, opts);

  Netlist edited = g.netlist;
  apply_delta(edited, delta);
  HostSession cold = HostSession::build(std::move(edited), so);
  const MatchReport cold_report = find_in_session(pattern, cold, opts);
  EXPECT_EQ(report_json(patched), report_json(cold_report));
  EXPECT_GT(patched.phase1.shards_total, 0u);

  // And the sharded patched session must also equal the MONOLITHIC view of
  // the same edited host (the equivalence has to survive composition).
  HostSession mono = HostSession::build(cold.netlist());
  MatchReport mono_report = find_in_session(pattern, mono, opts);
  MatchReport sharded_copy = patched;
  EXPECT_EQ(report_json(std::move(sharded_copy)),
            report_json(std::move(mono_report)));
}

}  // namespace
}  // namespace subg
