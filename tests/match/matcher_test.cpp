// SubgraphMatcher end-to-end behaviour on hand-built and cell-library
// circuits.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "cells/cells.hpp"
#include "match/matcher.hpp"
#include "test_circuits.hpp"
#include "util/check.hpp"

namespace subg {
namespace {

using test::Cmos3;

TEST(Matcher, CountsNandChain) {
  // A chain of k NAND2 gates (output feeding one input of the next) must
  // contain exactly k NAND2 instances.
  Cmos3 c;
  constexpr int kGates = 8;
  Netlist host = c.netlist("chain");
  NetId vdd = host.add_net("vdd"), gnd = host.add_net("gnd");
  host.mark_global(vdd);
  host.mark_global(gnd);
  NetId prev = host.add_net("pi");
  for (int i = 0; i < kGates; ++i) {
    NetId other = host.add_net("b" + std::to_string(i));
    NetId y = host.add_net("y" + std::to_string(i));
    c.nand2(host, prev, other, y, vdd, gnd);
    prev = y;
  }
  Netlist pattern = c.nand2_pattern(/*global_rails=*/true);
  SubgraphMatcher matcher(pattern, host);
  MatchReport report = matcher.find_all();
  EXPECT_EQ(report.count(), static_cast<std::size_t>(kGates));
}

TEST(Matcher, InstancesAreDisjointAndValid) {
  Cmos3 c;
  Netlist host = c.netlist("two");
  NetId vdd = host.add_net("vdd"), gnd = host.add_net("gnd");
  host.mark_global(vdd);
  host.mark_global(gnd);
  NetId a1 = host.add_net("a1"), b1 = host.add_net("b1"), y1 = host.add_net("y1");
  NetId a2 = host.add_net("a2"), b2 = host.add_net("b2"), y2 = host.add_net("y2");
  c.nand2(host, a1, b1, y1, vdd, gnd);
  c.nand2(host, a2, b2, y2, vdd, gnd);

  Netlist pattern = c.nand2_pattern(true);
  SubgraphMatcher matcher(pattern, host);
  MatchReport report = matcher.find_all();
  ASSERT_EQ(report.count(), 2u);
  std::set<std::uint32_t> all_devices;
  for (const auto& inst : report.instances) {
    ASSERT_EQ(inst.device_image.size(), pattern.device_count());
    ASSERT_EQ(inst.net_image.size(), pattern.net_count());
    for (DeviceId d : inst.device_image) {
      EXPECT_TRUE(all_devices.insert(d.value).second)
          << "instances overlap on device " << d.value;
    }
  }
}

TEST(Matcher, MaxMatchesStopsEarly) {
  Cmos3 c;
  Netlist host = c.netlist();
  NetId vdd = host.add_net("vdd"), gnd = host.add_net("gnd");
  host.mark_global(vdd);
  host.mark_global(gnd);
  for (int i = 0; i < 5; ++i) {
    c.inv(host, host.add_net("a" + std::to_string(i)),
          host.add_net("y" + std::to_string(i)), vdd, gnd);
  }
  MatchOptions opts;
  opts.max_matches = 2;
  Netlist pattern = c.inv_pattern(true);
  SubgraphMatcher matcher(pattern, host, opts);
  EXPECT_EQ(matcher.find_all().count(), 2u);
}

TEST(Matcher, FindFirst) {
  Cmos3 c;
  Netlist host = c.netlist();
  NetId vdd = host.add_net("vdd"), gnd = host.add_net("gnd");
  host.mark_global(vdd);
  host.mark_global(gnd);
  c.inv(host, host.add_net("a"), host.add_net("y"), vdd, gnd);
  Netlist pattern = c.inv_pattern(true);
  SubgraphMatcher matcher(pattern, host);
  auto inst = matcher.find_first();
  ASSERT_TRUE(inst.has_value());
  EXPECT_EQ(inst->device_image.size(), 2u);

  Netlist empty_host = c.netlist();
  NetId v2 = empty_host.add_net("vdd"), g2 = empty_host.add_net("gnd");
  empty_host.mark_global(v2);
  empty_host.mark_global(g2);
  NetId x = empty_host.add_net("x"), q = empty_host.add_net("q");
  empty_host.add_device(c.nmos, {x, q, g2});
  Netlist pattern2 = c.inv_pattern(true);
  SubgraphMatcher matcher2(pattern2, empty_host);
  EXPECT_FALSE(matcher2.find_first().has_value());
}

TEST(Matcher, PatternLargerThanHostInfeasible) {
  Cmos3 c;
  Netlist host = c.netlist();
  NetId vdd = host.add_net("vdd"), gnd = host.add_net("gnd");
  host.mark_global(vdd);
  host.mark_global(gnd);
  c.inv(host, host.add_net("a"), host.add_net("y"), vdd, gnd);
  Netlist pattern = c.nand2_pattern(true);
  // Under the default options the pre-search analyzer refutes this with a
  // device-type-deficit certificate before Phase I ever runs.
  SubgraphMatcher matcher(pattern, host);
  MatchReport report = matcher.find_all();
  EXPECT_EQ(report.infeasible_shortcuts, 1u);
  ASSERT_TRUE(report.infeasibility.has_value());
  EXPECT_EQ(report.infeasibility->rule, "device_type_deficit");
  EXPECT_EQ(report.count(), 0u);
  // With the analyzer off, Phase I's own partition-size check must reach
  // the same conclusion on its own.
  MatchOptions no_analyze;
  no_analyze.analyze = false;
  MatchReport raw = SubgraphMatcher(pattern, host, no_analyze).find_all();
  EXPECT_FALSE(raw.phase1.feasible);
  EXPECT_EQ(raw.count(), 0u);
}

TEST(Matcher, EmptyPatternThrows) {
  Cmos3 c;
  Netlist pattern = c.netlist();
  Netlist host = c.netlist();
  NetId a = host.add_net("a"), y = host.add_net("y"), g = host.add_net("g");
  host.add_device(c.nmos, {y, a, g});
  EXPECT_THROW(SubgraphMatcher(pattern, host), Error);
}

TEST(Matcher, DisconnectedPatternThrows) {
  Cmos3 c;
  Netlist pattern = c.netlist();
  NetId a = pattern.add_net("a"), y = pattern.add_net("y"),
        g = pattern.add_net("g");
  NetId p = pattern.add_net("p"), q = pattern.add_net("q"),
        r = pattern.add_net("r");
  pattern.add_device(c.nmos, {y, a, g});
  pattern.add_device(c.nmos, {q, p, r});  // island
  for (NetId port : {a, y, g, p, q, r}) pattern.mark_port(port);
  Netlist host = c.netlist();
  NetId ha = host.add_net("a"), hy = host.add_net("y"), hg = host.add_net("g");
  host.add_device(c.nmos, {hy, ha, hg});
  EXPECT_THROW(SubgraphMatcher(pattern, host), Error);
}

/// The message of the subg::Error `make` throws, or "" when it throws none.
template <typename F>
std::string error_of(F make) {
  try {
    make();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

/// Two inverters in a row on global rails.
Netlist inverter_pair(const Cmos3& c) {
  Netlist host = c.netlist("host");
  NetId vdd = host.add_net("vdd"), gnd = host.add_net("gnd");
  host.mark_global(vdd);
  host.mark_global(gnd);
  NetId a = host.add_net("a"), m = host.add_net("m"), y = host.add_net("y");
  c.inv(host, a, m, vdd, gnd);
  c.inv(host, m, y, vdd, gnd);
  return host;
}

TEST(Matcher, PatternPortWithNoPinThrowsNamingTheNet) {
  // `.subckt cell a y unused` over an inverter: no device touches the port
  // `unused`, so no instance could bind it. The pattern is refused at load
  // instead of finding nothing in a run that claims to be complete.
  Cmos3 c;
  const Netlist host = inverter_pair(c);
  Netlist pattern = c.inv_pattern(/*global_rails=*/true);
  pattern.mark_port(pattern.add_net("unused"));
  const std::string what =
      error_of([&] { SubgraphMatcher matcher(pattern, host); });
  EXPECT_NE(what.find("pattern net 'unused'"), std::string::npos) << what;

  // A declared but unused global rail stays harmless: rails bind by name.
  Netlist rails = c.inv_pattern(/*global_rails=*/true);
  rails.mark_global(rails.add_net("vbias"));
  EXPECT_EQ(SubgraphMatcher(rails, host).find_all().count(), 2u);
}

TEST(Matcher, FlatDeckWithPinlessInternalNetThrowsNamingTheNet) {
  // A flattened deck with an internal net that lost its pins would find
  // nothing in itself; it is refused, naming the net.
  Cmos3 c;
  Netlist deck = inverter_pair(c);
  deck.add_net("orphan");
  const std::string what =
      error_of([&] { SubgraphMatcher matcher(deck, deck); });
  EXPECT_NE(what.find("pattern net 'orphan'"), std::string::npos) << what;
}

TEST(Matcher, IncompatibleCatalogsThrow) {
  auto cat_a = std::make_shared<DeviceCatalog>();
  cat_a->add_type("nmos", {{"d", "sd"}, {"g", "gate"}, {"s", "sd"}});
  auto cat_b = std::make_shared<DeviceCatalog>();
  // Same name, different pin structure: all pins interchangeable.
  cat_b->add_type("nmos", {{"d", "t"}, {"g", "t"}, {"s", "t"}});

  Netlist pattern(cat_a);
  NetId a = pattern.add_net("a"), y = pattern.add_net("y"),
        g = pattern.add_net("g");
  pattern.add_device(cat_a->require("nmos"), {y, a, g});
  for (NetId port : {a, y, g}) pattern.mark_port(port);

  Netlist host(cat_b);
  NetId ha = host.add_net("a"), hy = host.add_net("y"), hg = host.add_net("g");
  host.add_device(cat_b->require("nmos"), {hy, ha, hg});
  EXPECT_THROW(SubgraphMatcher(pattern, host), Error);
}

TEST(Matcher, MissingHostGlobalYieldsNoMatches) {
  Cmos3 c;
  Netlist pattern = c.inv_pattern(/*global_rails=*/true);
  Netlist host = c.netlist();
  // Host has the structure but no global rails at all.
  NetId vdd = host.add_net("power"), gnd = host.add_net("ground");
  c.inv(host, host.add_net("a"), host.add_net("y"), vdd, gnd);
  SubgraphMatcher matcher(pattern, host);
  EXPECT_EQ(matcher.find_all().count(), 0u);
}

TEST(Matcher, FourPinCellsMatchThroughBulk) {
  // The 4-pin cell library: bulk pins tie to the rails, and matching still
  // works (bulk edges participate in labeling like any other pin class).
  cells::CellLibrary lib;
  Netlist pattern = lib.pattern("nand2");

  Design& d = lib.design();
  ModuleId nand2 = lib.module("nand2");
  ModuleId top = d.add_module("top", {"a", "b", "c", "y"});
  Module& m = d.module(top);
  NetId mid = m.add_net("mid");
  m.add_instance(nand2, {*m.find_net("a"), *m.find_net("b"), mid}, "g0");
  m.add_instance(nand2, {mid, *m.find_net("c"), *m.find_net("y")}, "g1");
  Netlist host = d.flatten("top");

  SubgraphMatcher matcher(pattern, host);
  EXPECT_EQ(matcher.find_all().count(), 2u);
}

TEST(Matcher, XorInsideFullAdder) {
  cells::CellLibrary lib;
  Netlist pattern = lib.pattern("xor2");
  Netlist host = lib.pattern("fulladder");
  SubgraphMatcher matcher(pattern, host);
  // The full adder composes exactly two xor2 cells.
  EXPECT_EQ(matcher.find_all().count(), 2u);
}

TEST(Matcher, SelfMatchIsIdentityModuloSymmetry) {
  cells::CellLibrary lib;
  Netlist pattern = lib.pattern("aoi21");
  Netlist host = lib.pattern("aoi21");
  SubgraphMatcher matcher(pattern, host);
  MatchReport report = matcher.find_all();
  ASSERT_EQ(report.count(), 1u);
  // All devices covered exactly once.
  std::set<std::uint32_t> devs;
  for (DeviceId d : report.instances[0].device_image) devs.insert(d.value);
  EXPECT_EQ(devs.size(), host.device_count());
}

}  // namespace
}  // namespace subg
