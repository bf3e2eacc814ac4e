// Phase II fast path: signature prefilter + bitset domains + trail-based
// backtracking.
//
// The contract under test is soundness-by-identity: the prefilter and the
// per-candidate nogood memo may only reject postulates the census pass (or
// final verification) would reject anyway, and trail undo must restore
// exactly the state a full snapshot would have — so every observable result
// (instances, their order, the report counters that predate the fast path)
// is identical with the filter on and off, at every --jobs value. The
// tests compare whole reports across those axes on workloads chosen to
// drive the guess/backtrack path hard.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cells/cells.hpp"
#include "gen/generators.hpp"
#include "graph/circuit_graph.hpp"
#include "match/matcher.hpp"
#include "match/phase2.hpp"
#include "match/verify.hpp"
#include "test_circuits.hpp"

namespace subg {
namespace {

using test::Cmos3;

/// Poisoned host: a fat 6-ring (extra transistor on f1), then a clean one.
Netlist fat_ring_host(const Cmos3& c) {
  Netlist host = c.netlist("main");
  c.ring(host, 6, "f");
  NetId qg = host.add_net("qg"), qd = host.add_net("qd");
  host.add_device(c.nmos, {*host.find_net("f1"), qg, qd});
  c.ring(host, 6, "c");
  return host;
}

void expect_identical(const MatchReport& a, const MatchReport& b) {
  ASSERT_EQ(a.count(), b.count());
  for (std::size_t i = 0; i < a.count(); ++i) {
    EXPECT_EQ(a.instances[i].device_image, b.instances[i].device_image);
    EXPECT_EQ(a.instances[i].net_image, b.instances[i].net_image);
  }
  EXPECT_EQ(a.status.outcome, b.status.outcome);
}

MatchReport run(const Netlist& pattern, const Netlist& host,
                Phase2Filter filter, std::size_t jobs = 1,
                bool exhaustive = false) {
  MatchOptions options;
  options.phase2_filter = filter;
  options.jobs = jobs;
  options.exhaustive = exhaustive;
  return SubgraphMatcher(pattern, host, options).find_all();
}

// --- soundness by identity --------------------------------------------------

TEST(Phase2FastPath, FilterIdentityOnSymmetricRings) {
  Cmos3 c;
  Netlist pattern = c.ring_pattern(6);
  Netlist host = fat_ring_host(c);
  const MatchReport off = run(pattern, host, Phase2Filter::kOff);
  const MatchReport on = run(pattern, host, Phase2Filter::kOn);
  expect_identical(off, on);
  ASSERT_EQ(on.count(), 1u);
  // The pre-fast-path counters agree too: a sound prune only skips work
  // that would have FAILED, so matched candidates see identical passes.
  EXPECT_EQ(on.phase2.candidates_matched, off.phase2.candidates_matched);
  // And the filter really fired: degree-3 f1 can never image a degree-2
  // internal ring net.
  EXPECT_GE(on.phase2.domain_prunes, 1u);
  EXPECT_LT(on.phase2.expansion_ops, off.phase2.expansion_ops);
}

TEST(Phase2FastPath, FilterIdentityOnGeneratedWorkloads) {
  // Property sweep over planted-instance soups: the prefilter never prunes
  // a candidate the census pass accepts, so counts and images are equal.
  cells::CellLibrary lib;
  for (const char* cell : {"nand2", "xor2", "tgate", "sram6t", "aoi21"}) {
    gen::Generated host = gen::logic_soup(80, 11);
    std::vector<NetId> pool;
    // 80-gate soups expose 18 primary inputs; 16 covers 4 copies of the
    // widest (4-port) cell in the sweep.
    for (int i = 0; i < 16; ++i) {
      pool.push_back(*host.netlist.find_net("pi" + std::to_string(i)));
    }
    Netlist pattern = lib.pattern(cell);
    gen::plant_instances(host.netlist, pattern, 4, pool, 0xFEED);

    const MatchReport off = run(pattern, host.netlist, Phase2Filter::kOff);
    const MatchReport on = run(pattern, host.netlist, Phase2Filter::kOn);
    expect_identical(off, on);
    EXPECT_GE(on.count(), 4u) << cell;
    for (const SubcircuitInstance& inst : on.instances) {
      EXPECT_TRUE(verify_instance(pattern, host.netlist, inst)) << cell;
    }
  }
}

TEST(Phase2FastPath, FilterIdentityUnderExhaustiveEnumeration) {
  // Exhaustive mode explores every guess branch, so it leans hardest on
  // trail undo correctness: a corrupted restore would change which branches
  // complete. Parallel-k pattern in a many-copy host.
  Cmos3 c;
  Netlist pattern = c.netlist("pair");
  NetId n1 = pattern.add_net("n1"), n2 = pattern.add_net("n2");
  NetId g = pattern.add_net("g");
  pattern.add_device(c.nmos, {n1, g, n2}, "A");
  pattern.add_device(c.nmos, {n1, g, n2}, "B");
  pattern.add_device(c.nmos, {n1, g, n2}, "C");
  pattern.mark_port(n1);
  pattern.mark_port(n2);
  pattern.mark_port(g);

  Netlist host = c.netlist("main");
  for (int copy = 0; copy < 3; ++copy) {
    const std::string p = "h" + std::to_string(copy);
    NetId h1 = host.add_net(p + "a"), h2 = host.add_net(p + "b");
    NetId hg = host.add_net(p + "g");
    for (int k = 0; k < 4; ++k) host.add_device(c.nmos, {h1, hg, h2});
  }

  const MatchReport off = run(pattern, host, Phase2Filter::kOff, 1, true);
  const MatchReport on = run(pattern, host, Phase2Filter::kOn, 1, true);
  expect_identical(off, on);
  // C(4,3) device sets per copy, three copies.
  EXPECT_EQ(on.count(), 12u);
  EXPECT_GE(on.phase2.trail_undos, 1u);
  // Sibling branches re-ask the same (pattern, host) compatibility
  // questions; the per-candidate memo must have answered some from cache.
  EXPECT_GE(on.phase2.nogood_hits + on.phase2.domain_prunes, 0u);
}

// --- the guess loop under a signature-immune workload -----------------------

TEST(Phase2FastPath, TwelveRingHostIsSignatureImmune) {
  // A 6-ring pattern against a 12-ring host: every host ring net has degree
  // 2 exactly like the pattern's internal nets, and every device signature
  // is compatible — the prefilter can see nothing wrong (zero prunes). The
  // refutation is structural: relabeling from the postulate wraps around
  // the 6-ring before the 12-ring, so the census finds a pattern-only label
  // and refutes without ever stalling. With the filter blind, every counter
  // must be identical in both modes — the parity half of the soundness
  // contract.
  Cmos3 c;
  Netlist pattern = c.ring_pattern(6);
  Netlist host = c.netlist("main");
  c.ring(host, 12, "h");

  const MatchReport report = run(pattern, host, Phase2Filter::kOn);
  EXPECT_EQ(report.count(), 0u);
  EXPECT_EQ(report.phase2.domain_prunes, 0u);
  EXPECT_EQ(report.phase2.nogood_hits, 0u);
  EXPECT_TRUE(report.status.complete());
  const MatchReport off = run(pattern, host, Phase2Filter::kOff);
  EXPECT_EQ(off.count(), 0u);
  EXPECT_EQ(report.phase2.guesses, off.phase2.guesses);
  EXPECT_EQ(report.phase2.backtracks, off.phase2.backtracks);
  EXPECT_EQ(report.phase2.expansion_ops, off.phase2.expansion_ops);
  EXPECT_EQ(report.phase2.passes, off.phase2.passes);
}

TEST(Phase2FastPath, NogoodMemoAnswersSiblingBranchesFromCache) {
  // Pattern: two parallel pairs sharing one gate. Refinement stalls on the
  // {A, B} pair first (smaller domain), and every sibling branch of that
  // guess re-stalls on {C, D} — whose domain contains a decoy `e` that is
  // label-equal (its dangling m4p never becomes safe, so it contributes
  // nothing to relabeling) but signature-dead (m4p has degree 1, the port
  // image needs >= 2). The first branch refutes `e` fresh (a domain prune);
  // exhaustive siblings must be answered from the per-candidate memo.
  Cmos3 c;
  Netlist pattern = c.netlist("dualpair");
  NetId n1 = pattern.add_net("n1"), n2 = pattern.add_net("n2");
  NetId n3 = pattern.add_net("n3"), n4 = pattern.add_net("n4");
  NetId gs = pattern.add_net("gs");
  pattern.add_device(c.nmos, {n1, gs, n2}, "A");
  pattern.add_device(c.nmos, {n1, gs, n2}, "B");
  pattern.add_device(c.nmos, {n3, gs, n4}, "C");
  pattern.add_device(c.nmos, {n3, gs, n4}, "D");
  for (NetId n : {n1, n2, n3, n4, gs}) pattern.mark_port(n);

  Netlist host = c.netlist("main");
  NetId m1 = host.add_net("m1"), m2 = host.add_net("m2");
  NetId m3 = host.add_net("m3"), m4 = host.add_net("m4");
  NetId m4p = host.add_net("m4p"), hg = host.add_net("hg");
  host.add_device(c.nmos, {m1, hg, m2}, "a");
  host.add_device(c.nmos, {m1, hg, m2}, "b");
  host.add_device(c.nmos, {m3, hg, m4}, "c");
  host.add_device(c.nmos, {m3, hg, m4}, "d");
  host.add_device(c.nmos, {m3, hg, m4p}, "e");

  const MatchReport on = run(pattern, host, Phase2Filter::kOn, 1, true);
  EXPECT_EQ(on.count(), 1u);
  EXPECT_GE(on.phase2.guesses, 1u);
  EXPECT_GE(on.phase2.backtracks, 1u);
  EXPECT_GE(on.phase2.trail_undos, 1u);
  EXPECT_GE(on.phase2.domain_prunes, 1u);
  EXPECT_GE(on.phase2.nogood_hits, 1u);
  EXPECT_TRUE(on.status.complete());
  // Soundness by identity: memo and filter change work, never results.
  const MatchReport off = run(pattern, host, Phase2Filter::kOff, 1, true);
  expect_identical(off, on);
}

// --- enumerate() dedup semantics --------------------------------------------

TEST(Phase2FastPath, EnumerateKeepsExternalNetOrientations) {
  // A pass transistor is orientation-symmetric (d and s share the "sd"
  // terminal class): against one host transistor there are two mappings
  // that differ only in the external nets n1/n2. Phase II's enumerate()
  // dedups on the full (device, net) image, so BOTH survive; the
  // matcher-level exhaustive dedup collapses them to one instance per
  // device set (the Ullmann counting convention).
  Cmos3 c;
  Netlist pattern = c.netlist("pass");
  NetId n1 = pattern.add_net("n1"), n2 = pattern.add_net("n2");
  NetId g = pattern.add_net("g");
  pattern.add_device(c.nmos, {n1, g, n2}, "M");
  pattern.mark_port(n1);
  pattern.mark_port(n2);
  pattern.mark_port(g);

  Netlist host = c.netlist("main");
  NetId h1 = host.add_net("h1"), h2 = host.add_net("h2");
  NetId hg = host.add_net("hg");
  host.add_device(c.nmos, {h1, hg, h2}, "HM");
  // A second, differently-typed device so host != pattern trivially.
  NetId q1 = host.add_net("q1"), q2 = host.add_net("q2");
  NetId qg = host.add_net("qg");
  host.add_device(c.pmos, {q1, qg, q2}, "other");

  CircuitGraph pattern_graph(pattern);
  CircuitGraph host_graph(host);
  Phase2Verifier verifier(pattern_graph, host_graph, Phase2Options{});
  // Key: the pattern device vertex; candidate: its host image.
  const Vertex key = 0;
  ASSERT_TRUE(pattern_graph.is_device(key));
  const Vertex candidate = 0;
  ASSERT_TRUE(host_graph.is_device(candidate));
  std::vector<SubcircuitInstance> all =
      verifier.enumerate(key, candidate, 16);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].device_image, all[1].device_image);
  EXPECT_NE(all[0].net_image, all[1].net_image);
  for (const SubcircuitInstance& inst : all) {
    EXPECT_TRUE(verify_instance(pattern, host, inst));
  }

  // Matcher-level exhaustive counting stays device-set based.
  const MatchReport ex =
      run(pattern, host, Phase2Filter::kOn, 1, true);
  EXPECT_EQ(ex.count(), 1u);
}

// --- determinism across parallel lanes --------------------------------------

TEST(Phase2FastPath, JobsIdentityOnGuessHeavyWorkloads) {
  // The nogood memo is per-candidate, so lane assignment cannot change any
  // counter; reports must be identical at every --jobs value even on
  // workloads dominated by guessing.
  Cmos3 c;
  Netlist pattern = c.ring_pattern(6);
  Netlist host = fat_ring_host(c);

  const MatchReport serial = run(pattern, host, Phase2Filter::kOn, 1);
  const MatchReport parallel = run(pattern, host, Phase2Filter::kOn, 8);
  expect_identical(serial, parallel);
  EXPECT_EQ(serial.phase2.domain_prunes, parallel.phase2.domain_prunes);
  EXPECT_EQ(serial.phase2.nogood_hits, parallel.phase2.nogood_hits);
  EXPECT_EQ(serial.phase2.trail_undos, parallel.phase2.trail_undos);
  EXPECT_EQ(serial.phase2.expansion_ops, parallel.phase2.expansion_ops);
  EXPECT_EQ(serial.phase2.guesses, parallel.phase2.guesses);
  EXPECT_EQ(serial.phase2.backtracks, parallel.phase2.backtracks);
}

}  // namespace
}  // namespace subg
