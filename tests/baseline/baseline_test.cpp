#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "baseline/baseline.hpp"
#include "cells/cells.hpp"
#include "gen/generators.hpp"
#include "match/matcher.hpp"
#include "match/verify.hpp"

namespace subg {
namespace {

using cells::CellLibrary;

TEST(Baseline, UllmannFindsXorInFullAdder) {
  CellLibrary lib;
  Netlist pattern = lib.pattern("xor2");
  Netlist host = lib.pattern("fulladder");
  BaselineResult r = match_ullmann(pattern, host);
  EXPECT_EQ(r.count(), 2u);
  EXPECT_FALSE(r.budget_exhausted);
}

TEST(Baseline, Vf2FindsXorInFullAdder) {
  CellLibrary lib;
  Netlist pattern = lib.pattern("xor2");
  Netlist host = lib.pattern("fulladder");
  BaselineResult r = match_vf2(pattern, host);
  EXPECT_EQ(r.count(), 2u);
}

TEST(Baseline, BothRespectInducedSemantics) {
  // nand2 inside nand3? The nand2's internal stack node would need degree 2
  // but sits inside a 3-stack — not an induced instance. Both baselines
  // must reject it.
  CellLibrary lib;
  Netlist pattern = lib.pattern("nand2");
  Netlist host = lib.pattern("nand3");
  EXPECT_EQ(match_ullmann(pattern, host).count(), 0u);
  EXPECT_EQ(match_vf2(pattern, host).count(), 0u);
}

TEST(Baseline, GlobalsBindByName) {
  CellLibrary lib;
  Netlist pattern = lib.pattern("inv");

  Design& d = lib.design();
  ModuleId inv = lib.module("inv");
  ModuleId top = d.add_module("top2", {"a", "y"});
  Module& m = d.module(top);
  NetId mid = m.add_net("mid");
  m.add_instance(inv, {*m.find_net("a"), mid});
  m.add_instance(inv, {mid, *m.find_net("y")});
  Netlist host = d.flatten("top2");

  EXPECT_EQ(match_ullmann(pattern, host).count(), 2u);
  EXPECT_EQ(match_vf2(pattern, host).count(), 2u);
}

TEST(Baseline, NodeBudgetAborts) {
  gen::Generated host = gen::logic_soup(120, 5);
  CellLibrary lib;
  Netlist pattern = lib.pattern("nand2");
  BaselineOptions opts;
  opts.node_budget = 10;
  BaselineResult r = match_vf2(pattern, host.netlist, opts);
  EXPECT_TRUE(r.budget_exhausted);
}

TEST(Baseline, MaxMatchesStopsEarly) {
  gen::Generated host = gen::ripple_carry_adder(4);
  CellLibrary lib;
  Netlist pattern = lib.pattern("nand2");
  BaselineOptions opts;
  opts.max_matches = 3;
  EXPECT_EQ(match_ullmann(pattern, host.netlist, opts).count(), 3u);
  EXPECT_EQ(match_vf2(pattern, host.netlist, opts).count(), 3u);
}

TEST(Baseline, EveryReportedInstanceVerifies) {
  gen::Generated host = gen::c17();
  CellLibrary lib;
  Netlist pattern = lib.pattern("nand2");
  for (auto* fn : {&match_ullmann, &match_vf2}) {
    BaselineResult r = (*fn)(pattern, host.netlist, BaselineOptions{});
    EXPECT_EQ(r.count(), 6u);
    for (const auto& inst : r.instances) {
      EXPECT_TRUE(verify_instance(pattern, host.netlist, inst));
    }
  }
}

TEST(Baseline, ExhaustiveModeMatchesUllmannOnOverlappingInstances) {
  // Pattern: two parallel nmos. Host: THREE parallel nmos — the three
  // 2-subsets are distinct overlapping instances sharing key images.
  // Default (per-key-image) semantics finds fewer; exhaustive mode must
  // agree with full enumeration.
  auto cat = DeviceCatalog::cmos3();
  DeviceTypeId nmos = cat->require("nmos");
  Netlist pattern(cat, "pair");
  NetId n1 = pattern.add_net("n1"), n2 = pattern.add_net("n2"),
        g = pattern.add_net("g");
  pattern.add_device(nmos, {n1, g, n2});
  pattern.add_device(nmos, {n1, g, n2});
  for (NetId p : {n1, n2, g}) pattern.mark_port(p);

  Netlist host(cat, "triple");
  NetId h1 = host.add_net("h1"), h2 = host.add_net("h2"), hg = host.add_net("hg");
  for (int i = 0; i < 3; ++i) host.add_device(nmos, {h1, hg, h2});

  const std::size_t ull = match_ullmann(pattern, host).count();
  EXPECT_EQ(ull, 3u);  // {0,1}, {0,2}, {1,2}

  MatchOptions exhaustive;
  exhaustive.exhaustive = true;
  SubgraphMatcher ex(pattern, host, exhaustive);
  EXPECT_EQ(ex.find_all().count(), ull);

  SubgraphMatcher plain(pattern, host);
  EXPECT_LE(plain.find_all().count(), ull);  // per-key-image semantics
}

TEST(Baseline, ExhaustiveEqualsPlainWhenInstancesAreDisjoint) {
  gen::Generated host = gen::ripple_carry_adder(3);
  CellLibrary lib;
  Netlist pattern = lib.pattern("xor2");
  MatchOptions exhaustive;
  exhaustive.exhaustive = true;
  SubgraphMatcher ex(pattern, host.netlist, exhaustive);
  SubgraphMatcher plain(pattern, host.netlist);
  EXPECT_EQ(ex.find_all().count(), plain.find_all().count());
  EXPECT_EQ(ex.find_all().count(), 6u);
}

// std::string, not const char*: gtest prints a char pointer parameter's
// address into the test name, which would differ on every run.
class CrossValidation
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(CrossValidation, AllThreeMatchersAgree) {
  // Property: on generated workloads, SubGemini, Ullmann and VF2 report the
  // same instance count (instances here are non-overlapping, so the
  // one-per-key-image semantics coincides with full enumeration), and
  // SubGemini finds at least the construction-placed count.
  const auto& [cell, which] = GetParam();
  gen::Generated host = which == 0   ? gen::ripple_carry_adder(3)
                        : which == 1 ? gen::sram_array(4, 4)
                                     : gen::logic_soup(60, 11);
  CellLibrary lib;
  Netlist pattern = lib.pattern(cell);

  SubgraphMatcher matcher(pattern, host.netlist);
  const std::size_t sub = matcher.find_all().count();
  BaselineOptions bopts;
  bopts.node_budget = 20'000'000;
  const BaselineResult ull = match_ullmann(pattern, host.netlist, bopts);
  const BaselineResult vf2 = match_vf2(pattern, host.netlist, bopts);
  // Ullmann's refinement keeps its search tree small on circuit graphs.
  ASSERT_FALSE(ull.budget_exhausted) << cell;
  // The VF2-style DFS is the paper's strawman: on large symmetric patterns
  // (fulladder: two identical xor cells) it can blow through any budget —
  // only compare counts when it finished.
  if (!vf2.budget_exhausted) {
    EXPECT_EQ(ull.count(), vf2.count()) << cell;
  }
  EXPECT_GE(sub, host.placed_count(cell)) << cell;
  if (which == 2) {
    // Random wiring can create overlapping instances sharing a key image;
    // SubGemini reports one per key image, full enumeration may see more —
    // unless exhaustive mode is on, which must agree exactly.
    EXPECT_LE(sub, ull.count()) << cell;
    MatchOptions exhaustive;
    exhaustive.exhaustive = true;
    SubgraphMatcher ex(pattern, host.netlist, exhaustive);
    EXPECT_EQ(ex.find_all().count(), ull.count()) << cell;
  } else {
    EXPECT_EQ(sub, ull.count()) << cell;
  }
}

INSTANTIATE_TEST_SUITE_P(
    CellsByWorkload, CrossValidation,
    ::testing::Combine(::testing::Values("inv", "nand2", "nor2", "xor2",
                                         "sram6t", "fulladder"),
                       ::testing::Values(0, 1, 2)),
    [](const auto& param_info) {
      return std::get<0>(param_info.param) + "_w" +
             std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace subg
