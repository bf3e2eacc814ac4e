// Invariant-auditor exercise paths (ctest label: audit).
//
// The SUBG_AUDIT assertions in phase1/phase2/host_labels/matcher are
// compiled in only under -DSUBG_AUDIT=ON; this suite drives every
// instrumented code path so the audit build actually evaluates them:
// partition-refinement monotonicity and corrupt-neighbor propagation
// (phase1), candidate-vector/host-partition consistency (phase1),
// postulate/bind discipline and final-map injectivity (phase2), the
// replay of every settled forced-pin walk through the relabel search
// (phase2, A20), parallel vs serial label-sweep equivalence and rail-key
// stability (host_labels), and instance-shape/limit postconditions
// (matcher). In a normal build the macros are no-ops and this is an
// ordinary smoke suite — it must pass identically either way.
#include <gtest/gtest.h>

#include <string>

#include "cells/cells.hpp"
#include "gen/generators.hpp"
#include "match/matcher.hpp"
#include "test_circuits.hpp"
#include "util/check.hpp"

namespace subg {
namespace {

TEST(Audit, ModeIsReported) {
  // Not an assertion on the mode itself (both builds run this suite);
  // the record makes "which build ran?" visible in ctest logs.
  RecordProperty("audit_enabled", kAuditEnabled ? "true" : "false");
  SUCCEED();
}

// Every cell in the library against a soup host: covers phase1 refinement
// rounds (monotone valid set, corrupt-neighbor spread), candidate-vector
// selection, and phase2's full postulate/pass/guess/backtrack cycle.
class AuditCellSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(AuditCellSweep, MatchRunsCleanUnderAudit) {
  gen::Generated host = gen::logic_soup(60, /*seed=*/0x5eed);
  cells::CellLibrary lib;
  Netlist pattern = lib.pattern(GetParam());
  SubgraphMatcher matcher(pattern, host.netlist);
  MatchReport report = matcher.find_all();
  EXPECT_GE(report.count(), host.placed_count(GetParam()));
  for (const SubcircuitInstance& inst : report.instances) {
    EXPECT_EQ(inst.device_image.size(), pattern.device_count());
    EXPECT_EQ(inst.net_image.size(), pattern.net_count());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, AuditCellSweep,
    ::testing::ValuesIn(cells::CellLibrary::all_cells()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      return param_info.param;
    });

TEST(Audit, SettledWalksReplayThroughTheRelabelSearch) {
  // nand2 and fulladder are settled by the forced-pin walk; under audit
  // every verdict, in verify() and in enumerate(), is replayed through
  // the relabel search (A20). The replay must leave the counters alone.
  gen::Generated host = gen::logic_soup(60, /*seed=*/0x5eed);
  gen::Generated adder = gen::ripple_carry_adder(3);
  cells::CellLibrary lib;
  for (const bool exhaustive : {false, true}) {
    MatchOptions options;
    options.exhaustive = exhaustive;
    const MatchReport nand2 =
        SubgraphMatcher(lib.pattern("nand2"), host.netlist, options).find_all();
    EXPECT_GE(nand2.count(), host.placed_count("nand2"));
    EXPECT_GT(nand2.phase2.walk_settled, 0u);
    EXPECT_EQ(nand2.phase2.passes, 0u);
    const MatchReport fa =
        SubgraphMatcher(lib.pattern("fulladder"), adder.netlist, options)
            .find_all();
    EXPECT_EQ(fa.count(), adder.placed_count("fulladder"));
    EXPECT_GT(fa.phase2.walk_settled, 0u);
  }
}

TEST(Audit, ParallelJobsMatchSerial) {
  // jobs>1 routes host relabeling through ThreadPool::parallel_for; under
  // audit every parallel sweep is re-run serially and compared
  // (host_labels.cpp), making this the label-cache stability proof.
  gen::Generated host = gen::logic_soup(120, /*seed=*/0xA0D17);
  cells::CellLibrary lib;
  Netlist pattern = lib.pattern("nand2");

  MatchOptions serial;
  SubgraphMatcher m1(pattern, host.netlist, serial);
  MatchReport r1 = m1.find_all();

  MatchOptions parallel;
  parallel.jobs = 4;
  SubgraphMatcher m2(pattern, host.netlist, parallel);
  MatchReport r2 = m2.find_all();

  ASSERT_EQ(r1.count(), r2.count());
  for (std::size_t i = 0; i < r1.count(); ++i) {
    EXPECT_EQ(r1.instances[i].device_image, r2.instances[i].device_image);
  }
}

TEST(Audit, PlantedInstancesSurviveAudit) {
  // Dense hit path: many overlapping-candidate postulations and
  // backtracks, the heaviest load on the phase2 bind/release assertions.
  gen::Generated host = gen::logic_soup(80, /*seed=*/0xBEEF);
  std::vector<NetId> pool;
  for (int i = 0; i < 12; ++i) {
    pool.push_back(*host.netlist.find_net("pi" + std::to_string(i)));
  }
  cells::CellLibrary lib;
  Netlist pattern = lib.pattern("inv");
  const std::size_t planted =
      gen::plant_instances(host.netlist, pattern, 6, pool, 0xF00D);
  SubgraphMatcher matcher(pattern, host.netlist);
  EXPECT_GE(matcher.find_all().count(), planted + host.placed_count("inv"));
}

TEST(Audit, TrailUndoRestoresStateAcrossGuessBranches) {
  // A workload whose guess branches genuinely fail, so under SUBG_AUDIT=ON
  // every branch exit runs the trail-undo-vs-snapshot state comparison and
  // the live-bitset/slot-flag consistency sweep. A 6-ring pattern against a
  // host with a poisoned fat ring (extra transistor on one ring net) and a
  // clean one: fat-ring candidates far from the poison pass the signature
  // prefilter, stall on the ring's mirror symmetry, and both orientations
  // fail only after the guess — real backtracks. The filter is pinned to
  // kOn: the default path-label refuter would reject the fat ring before
  // the first guess, and this test exists to drive the trail machinery.
  test::Cmos3 c;
  Netlist pattern = c.netlist("ring_p");
  NetId gate = pattern.add_net("rgate");
  std::vector<NetId> nodes;
  for (int i = 0; i < 6; ++i) {
    nodes.push_back(pattern.add_net("r" + std::to_string(i)));
  }
  for (int i = 0; i < 6; ++i) {
    pattern.add_device(c.nmos, {nodes[i], gate, nodes[(i + 1) % 6]});
  }
  pattern.mark_port(gate);

  Netlist host = c.netlist("main");
  NetId hgate = host.add_net("fgate");
  std::vector<NetId> hnodes;
  for (int i = 0; i < 6; ++i) {
    hnodes.push_back(host.add_net("f" + std::to_string(i)));
  }
  for (int i = 0; i < 6; ++i) {
    host.add_device(c.nmos, {hnodes[i], hgate, hnodes[(i + 1) % 6]});
  }
  NetId qg = host.add_net("qg"), qd = host.add_net("qd");
  host.add_device(c.nmos, {hnodes[1], qg, qd});
  NetId cgate = host.add_net("cgate");
  std::vector<NetId> cnodes;
  for (int i = 0; i < 6; ++i) {
    cnodes.push_back(host.add_net("c" + std::to_string(i)));
  }
  for (int i = 0; i < 6; ++i) {
    host.add_device(c.nmos, {cnodes[i], cgate, cnodes[(i + 1) % 6]});
  }

  MatchOptions options;
  options.phase2_filter = Phase2Filter::kOn;
  SubgraphMatcher matcher(pattern, host, options);
  MatchReport report = matcher.find_all();
  EXPECT_EQ(report.count(), 1u);
  EXPECT_GE(report.phase2.backtracks, 1u);
  EXPECT_GE(report.phase2.trail_undos, 1u);
}

TEST(Audit, MatchLimitPostcondition) {
  // Exercises the matcher-level "sweep exceeded the match limit" audit.
  gen::Generated host = gen::logic_soup(60, /*seed=*/0xCAFE);
  cells::CellLibrary lib;
  Netlist pattern = lib.pattern("inv");
  MatchOptions opts;
  opts.max_matches = 1;
  SubgraphMatcher matcher(pattern, host.netlist, opts);
  EXPECT_LE(matcher.find_all().count(), 1u);
}

}  // namespace
}  // namespace subg
