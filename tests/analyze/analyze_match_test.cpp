// The analyzer as the matcher consumes it: the 12-ring-vs-6-ring decoy A/B
// (path labels refute degree-blind decoys with zero Phase II guesses), the
// fat-ring A/B (backtracking eliminated where the signature filter alone
// cannot), jobs=1/jobs=8 counter identity for every new counter,
// symmetry-aware exhaustive enumeration, infeasibility short-circuits in
// find and extract, and ECO-patched-session identity for the rebased path
// labels.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "../match/test_circuits.hpp"
#include "analyze/analyze.hpp"
#include "cells/cells.hpp"
#include "extract/extract.hpp"
#include "gen/generators.hpp"
#include "match/matcher.hpp"
#include "report/document.hpp"
#include "session/delta.hpp"
#include "session/session.hpp"

namespace subg {
namespace {

using test::Cmos3;

/// Ring of `n` pass transistors; `fat` hangs one extra device off ring
/// net 1 (invisible to the degree signature of the OTHER nets, fatal to
/// the match hypothesis — the genuine-backtracking decoy family).
void add_ring(const Cmos3& c, Netlist& nl, int n, const std::string& prefix,
              bool fat = false) {
  NetId gate = nl.add_net(prefix + "gate");
  std::vector<NetId> nodes;
  for (int i = 0; i < n; ++i) {
    nodes.push_back(nl.add_net(prefix + std::to_string(i)));
  }
  for (int i = 0; i < n; ++i) {
    nl.add_device(c.nmos, {nodes[i], gate, nodes[(i + 1) % n]});
  }
  if (fat) {
    NetId qg = nl.add_net(prefix + "qg"), qd = nl.add_net(prefix + "qd");
    nl.add_device(c.nmos, {nodes[1], qg, qd});
  }
}

Netlist ring_pattern(const Cmos3& c, int k) {
  Netlist nl = c.netlist("ring");
  add_ring(c, nl, k, "r");
  nl.mark_port(*nl.find_net("rgate"));
  return nl;
}

/// k parallel transistors, every net a port — maximally symmetric.
Netlist parallel_pattern(const Cmos3& c, int k) {
  Netlist nl = c.netlist("par");
  NetId n1 = nl.add_net("n1"), n2 = nl.add_net("n2"), g = nl.add_net("g");
  for (int i = 0; i < k; ++i) nl.add_device(c.nmos, {n1, g, n2});
  nl.mark_port(n1);
  nl.mark_port(n2);
  nl.mark_port(g);
  return nl;
}

/// `truth` 6-rings plus `decoys` 12-rings: every 12-ring net has degree 2
/// exactly like the pattern's ring nets, so the degree signature is blind
/// and only the closed-walk counts separate decoy from truth.
Netlist long_ring_host(const Cmos3& c, int truth, int decoys) {
  Netlist host = c.netlist("host");
  for (int i = 0; i < truth; ++i) {
    add_ring(c, host, 6, "t" + std::to_string(i) + "_");
  }
  for (int i = 0; i < decoys; ++i) {
    add_ring(c, host, 12, "d" + std::to_string(i) + "_");
  }
  return host;
}

Netlist fat_ring_host(const Cmos3& c, int truth, int decoys) {
  Netlist host = c.netlist("host");
  for (int i = 0; i < truth; ++i) {
    add_ring(c, host, 6, "t" + std::to_string(i) + "_");
  }
  for (int i = 0; i < decoys; ++i) {
    add_ring(c, host, 6, "d" + std::to_string(i) + "_", /*fat=*/true);
  }
  return host;
}

MatchReport run(const Netlist& pattern, const Netlist& host,
                MatchOptions options = {}) {
  return SubgraphMatcher(pattern, host, options).find_all();
}

/// Serialized report with wall-clock zeroed: the byte-identity currency.
std::string report_json(MatchReport report) {
  report.phase1_seconds = 0;
  report.phase2_seconds = 0;
  return report::to_json(report).dump();
}

/// Instance identity that ignores counters: the sorted device-image sets.
std::vector<std::vector<std::size_t>> device_sets(const MatchReport& r) {
  std::vector<std::vector<std::size_t>> sets;
  for (const SubcircuitInstance& inst : r.instances) {
    std::vector<std::size_t> devices;
    for (DeviceId d : inst.device_image) devices.push_back(d.index());
    std::sort(devices.begin(), devices.end());
    sets.push_back(std::move(devices));
  }
  std::sort(sets.begin(), sets.end());
  return sets;
}

// --- the decoy A/B the analyzer exists for ----------------------------------

TEST(AnalyzeMatch, LongRingDecoysRefutedWithoutEnteringTheCensus) {
  Cmos3 c;
  const Netlist pattern = ring_pattern(c, 6);
  const Netlist host = long_ring_host(c, /*truth=*/0, /*decoys=*/3);
  MatchOptions o;
  o.phase2_filter = Phase2Filter::kPaths;
  const MatchReport paths = run(pattern, host, o);
  o.phase2_filter = Phase2Filter::kOn;
  const MatchReport sig = run(pattern, host, o);

  // Both are sound: a decoy-only host holds nothing.
  EXPECT_EQ(paths.count(), 0u);
  EXPECT_EQ(sig.count(), 0u);
  EXPECT_TRUE(paths.status.complete());

  // The acceptance bar: path labels refute every candidate statically —
  // zero guesses AND zero relabeling work. The signature filter cannot
  // see the decoys at all (every degree multiset agrees), so it burns
  // census passes to reject each one.
  EXPECT_EQ(paths.phase2.guesses, 0u);
  EXPECT_EQ(paths.phase2.passes, 0u);
  EXPECT_EQ(paths.phase2.expansion_ops, 0u);
  EXPECT_GT(paths.phase2.path_label_prunes, 0u);
  EXPECT_EQ(sig.phase2.domain_prunes, 0u);
  EXPECT_EQ(sig.phase2.path_label_prunes, 0u);
  EXPECT_GT(sig.phase2.expansion_ops, 0u);
}

TEST(AnalyzeMatch, LongRingDecoysDoNotDisturbTrueMatches) {
  Cmos3 c;
  const Netlist pattern = ring_pattern(c, 6);
  const Netlist host = long_ring_host(c, /*truth=*/2, /*decoys=*/3);
  MatchOptions o;
  const MatchReport paths = run(pattern, host, o);
  o.phase2_filter = Phase2Filter::kOn;
  const MatchReport sig = run(pattern, host, o);

  EXPECT_EQ(paths.count(), 2u);
  EXPECT_EQ(device_sets(paths), device_sets(sig));
  // Decoy work vanishes; the surviving guesses all belong to true rings.
  EXPECT_GT(paths.phase2.path_label_prunes, 0u);
  EXPECT_LT(paths.phase2.expansion_ops, sig.phase2.expansion_ops);
  EXPECT_LE(paths.phase2.guesses, sig.phase2.guesses);
}

TEST(AnalyzeMatch, FatRingDecoysStopCausingBacktracks) {
  Cmos3 c;
  const Netlist pattern = ring_pattern(c, 6);
  const Netlist host = fat_ring_host(c, /*truth=*/2, /*decoys=*/4);
  MatchOptions o;
  const MatchReport paths = run(pattern, host, o);
  o.phase2_filter = Phase2Filter::kOn;
  const MatchReport sig = run(pattern, host, o);
  o.phase2_filter = Phase2Filter::kOff;
  const MatchReport off = run(pattern, host, o);

  // Identical answers across all three filter strengths.
  EXPECT_EQ(paths.count(), 2u);
  EXPECT_EQ(device_sets(paths), device_sets(sig));
  EXPECT_EQ(device_sets(paths), device_sets(off));

  // The fat decoys force the census (and even the signature filter) to
  // guess into the ring and fail; the path labels see the extra device in
  // the walk counts and never start those searches.
  EXPECT_EQ(paths.phase2.backtracks, 0u);
  EXPECT_GT(sig.phase2.backtracks, 0u);
  EXPECT_GE(off.phase2.backtracks, sig.phase2.backtracks);
  EXPECT_LT(paths.phase2.guesses, sig.phase2.guesses);
  EXPECT_LT(sig.phase2.guesses, off.phase2.guesses);
  EXPECT_GT(paths.phase2.path_label_prunes, 0u);
}

// --- identity contracts for the new counters --------------------------------

TEST(AnalyzeMatch, ReportsByteIdenticalAcrossJobs) {
  Cmos3 c;
  const Netlist pattern = ring_pattern(c, 6);
  // True rings, fat decoys, and long decoys at once: guesses, backtracks,
  // path prunes, and census passes all nonzero in one workload.
  Netlist host = fat_ring_host(c, 2, 3);
  add_ring(c, host, 12, "l0_");
  add_ring(c, host, 12, "l1_");
  MatchOptions o;
  o.jobs = 1;
  const std::string serial = report_json(run(pattern, host, o));
  o.jobs = 8;
  const std::string parallel = report_json(run(pattern, host, o));
  EXPECT_EQ(serial, parallel);

  MatchReport check = run(pattern, host, o);
  EXPECT_EQ(check.count(), 2u);
  EXPECT_GT(check.phase2.path_label_prunes, 0u);
}

// --- symmetry-aware exhaustive enumeration ----------------------------------

TEST(AnalyzeMatch, SymmetrySkipsFoldAutomorphicCompletions) {
  Cmos3 c;
  const Netlist pattern = parallel_pattern(c, 3);
  // Two bundles of 4 parallel devices: each bundle holds C(4,3) = 4
  // distinct device sets, every one reachable 3! ways.
  Netlist host = c.netlist("host");
  for (int gi = 0; gi < 2; ++gi) {
    const std::string p = "h" + std::to_string(gi);
    NetId n1 = host.add_net(p + "a"), n2 = host.add_net(p + "b");
    NetId g = host.add_net(p + "g");
    for (int i = 0; i < 4; ++i) host.add_device(c.nmos, {n1, g, n2});
  }
  MatchOptions o;
  o.exhaustive = true;
  const MatchReport with = run(pattern, host, o);
  o.analyze = false;
  const MatchReport without = run(pattern, host, o);

  EXPECT_EQ(with.count(), 8u);
  EXPECT_EQ(device_sets(with), device_sets(without));
  EXPECT_GT(with.phase2.symmetry_skips, 0u);
  EXPECT_EQ(without.phase2.symmetry_skips, 0u);
}

TEST(AnalyzeMatch, SymmetrySuppressionYieldsToABindingMatchLimit) {
  Cmos3 c;
  const Netlist pattern = parallel_pattern(c, 3);
  Netlist host = c.netlist("host");
  NetId n1 = host.add_net("a"), n2 = host.add_net("b"), g = host.add_net("g");
  for (int i = 0; i < 4; ++i) host.add_device(c.nmos, {n1, g, n2});
  MatchOptions o;
  o.exhaustive = true;
  o.max_matches = 3;
  const MatchReport report = run(pattern, host, o);
  // A binding limit changes which completions are "already recorded", so
  // suppression is disabled rather than risk skipping a would-be result.
  EXPECT_EQ(report.phase2.symmetry_skips, 0u);
  EXPECT_LE(report.count(), 3u);
}

// --- infeasibility short-circuits -------------------------------------------

TEST(AnalyzeMatch, CertificateShortCircuitsFind) {
  Cmos3 c;
  const Netlist pattern = c.inv_pattern(/*global_rails=*/false);
  Netlist host = c.netlist("host");
  add_ring(c, host, 6, "r");  // nmos only: no pmos for the inverter's pullup
  const MatchReport report = run(pattern, host);

  EXPECT_EQ(report.count(), 0u);
  EXPECT_EQ(report.infeasible_shortcuts, 1u);
  ASSERT_TRUE(report.infeasibility.has_value());
  EXPECT_EQ(report.infeasibility->rule, "device_type_deficit");
  EXPECT_EQ(report.infeasibility->subject, "pmos");
  // The shortcut skipped the search entirely, and the empty answer is
  // exact, not truncated.
  EXPECT_TRUE(report.status.complete());
  EXPECT_EQ(report.phase2.candidates_tried, 0u);

  MatchOptions o;
  o.analyze = false;
  const MatchReport slow = run(pattern, host, o);
  EXPECT_EQ(slow.count(), 0u);
  EXPECT_EQ(slow.infeasible_shortcuts, 0u);
  EXPECT_FALSE(slow.infeasibility.has_value());
}

TEST(AnalyzeMatch, ExtractFlagsInfeasibleCellsAndKeepsGoing) {
  Cmos3 c;
  // Host: two nmos in series — a "pair" instance, nothing for an inverter.
  Netlist host = c.netlist("host");
  NetId a = host.add_net("a"), mid = host.add_net("mid"), b = host.add_net("b");
  NetId g1 = host.add_net("g1"), g2 = host.add_net("g2");
  host.add_device(c.nmos, {a, g1, mid});
  host.add_device(c.nmos, {mid, g2, b});

  Netlist pair = c.netlist("pair");
  NetId pa = pair.add_net("a"), pm = pair.add_net("mid"), pb = pair.add_net("b");
  NetId pg1 = pair.add_net("g1"), pg2 = pair.add_net("g2");
  pair.add_device(c.nmos, {pa, pg1, pm});
  pair.add_device(c.nmos, {pm, pg2, pb});
  for (NetId n : {pa, pb, pg1, pg2}) pair.mark_port(n);

  const std::vector<extract::LibraryCell> cells = {
      {"inv", c.inv_pattern(/*global_rails=*/false)},
      {"pair", pair},
  };
  const extract::ExtractResult result = extract::extract_gates(host, cells);

  EXPECT_EQ(result.report.infeasible_shortcuts, 1u);
  ASSERT_EQ(result.report.cells.size(), 2u);
  for (const auto& cell : result.report.cells) {
    if (cell.cell == "inv") {
      EXPECT_TRUE(cell.infeasible);
      EXPECT_EQ(cell.instances, 0u);
    } else {
      EXPECT_EQ(cell.cell, "pair");
      EXPECT_FALSE(cell.infeasible);
      EXPECT_EQ(cell.instances, 1u);
      EXPECT_EQ(cell.devices_replaced, 2u);
    }
  }
  EXPECT_EQ(result.report.devices_after, 1u);
}

// --- ECO-patched sessions ----------------------------------------------------

/// A nand2 delta: one more gate (4 devices) wired off existing soup nets.
const char* kNandDelta =
    "{\"op\":\"add_device\",\"type\":\"pmos\",\"name\":\"eco_p0\","
    "\"nets\":[\"eco_z\",\"pi0\",\"vdd\",\"vdd\"]}\n"
    "{\"op\":\"add_device\",\"type\":\"pmos\",\"name\":\"eco_p1\","
    "\"nets\":[\"eco_z\",\"pi1\",\"vdd\",\"vdd\"]}\n"
    "{\"op\":\"add_device\",\"type\":\"nmos\",\"name\":\"eco_n0\","
    "\"nets\":[\"eco_z\",\"pi0\",\"eco_x\",\"gnd\"]}\n"
    "{\"op\":\"add_device\",\"type\":\"nmos\",\"name\":\"eco_n1\","
    "\"nets\":[\"eco_x\",\"pi1\",\"gnd\",\"gnd\"]}\n";

TEST(AnalyzeMatch, PatchedSessionLabelsAndReportsMatchColdBuild) {
  gen::Generated g = gen::logic_soup(60, 99);
  cells::CellLibrary lib;
  const Netlist pattern = lib.pattern("nand2");

  HostSession session = HostSession::build(g.netlist);
  (void)find_in_session(pattern, session);  // counts anchors before the patch
  (void)session.apply(parse_delta(kNandDelta));

  // The patch starts an empty memo over the edited graph; every count it
  // fills equals a cold eager build over the patched netlist, vertex by
  // vertex.
  const analyze::HostPathLabels& memo = session.path_labels();
  EXPECT_EQ(&memo.graph(), &session.graph());
  EXPECT_EQ(memo.filled_count(), 0u);
  const CircuitGraph cold_graph(session.netlist());
  const analyze::PathLabels cold_labels = analyze::build_path_labels(
      cold_graph, session.netlist(), analyze::Side::kHost);
  ASSERT_EQ(memo.vertex_count(), cold_graph.vertex_count());
  analyze::WalkScratch scratch;
  for (Vertex v = 0; v < cold_graph.vertex_count(); ++v) {
    const analyze::HostPathLabels::Counts counts = memo.counts(v, scratch);
    for (std::size_t c = 0; c < counts.size(); ++c) {
      ASSERT_EQ(counts[c], cold_labels.count(v, c))
          << cold_graph.vertex_name(v) << " class " << c;
    }
  }
  HostSession cold = HostSession::build(session.netlist());

  // ... and so must everything a find reports, new counters included
  // (kPaths and the certificate check are the defaults here).
  EXPECT_EQ(report_json(find_in_session(pattern, session)),
            report_json(find_in_session(pattern, cold)));
}

}  // namespace
}  // namespace subg
