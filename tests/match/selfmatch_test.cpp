// Self-match sweep: every library cell, used both as pattern and host, is
// found exactly once, covering every device — across the whole cell
// library (parameterized). A basic completeness/soundness floor for the
// matcher on every structure we ship (series stacks, parallel networks,
// pass gates, cross-coupled feedback loops, composed cells).
#include <gtest/gtest.h>

#include <set>

#include "baseline/baseline.hpp"
#include "cells/cells.hpp"
#include "match/matcher.hpp"
#include "match/verify.hpp"

namespace subg {
namespace {

class SelfMatch : public ::testing::TestWithParam<std::string> {};

TEST_P(SelfMatch, CellFoundExactlyOnceInItself) {
  cells::CellLibrary lib;
  Netlist pattern = lib.pattern(GetParam());
  Netlist host = lib.pattern(GetParam());

  SubgraphMatcher matcher(pattern, host);
  MatchReport report = matcher.find_all();
  ASSERT_EQ(report.count(), 1u) << GetParam();

  std::set<std::uint32_t> devices;
  for (DeviceId d : report.instances.front().device_image) {
    devices.insert(d.value);
  }
  EXPECT_EQ(devices.size(), host.device_count()) << GetParam();
  // Sound by construction, but double-check with the independent verifier.
  EXPECT_TRUE(verify_instance(pattern, host, report.instances.front()));
}

TEST_P(SelfMatch, UllmannAgrees) {
  cells::CellLibrary lib;
  Netlist pattern = lib.pattern(GetParam());
  Netlist host = lib.pattern(GetParam());
  BaselineResult r = match_ullmann(pattern, host);
  EXPECT_EQ(r.count(), 1u) << GetParam();
}

TEST_P(SelfMatch, TwoDisjointCopiesFoundTwice) {
  cells::CellLibrary lib;
  Netlist pattern = lib.pattern(GetParam());

  // Host: two copies side by side (fresh nets per copy, shared rails).
  Netlist host(pattern.catalog_ptr(), "two");
  for (int copy = 0; copy < 2; ++copy) {
    const std::string prefix = "c" + std::to_string(copy) + "_";
    std::vector<NetId> remap(pattern.net_count());
    for (std::uint32_t n = 0; n < pattern.net_count(); ++n) {
      const NetId id(n);
      if (pattern.is_global(id)) {
        remap[n] = host.ensure_net(pattern.net_name(id));
        host.mark_global(remap[n]);
      } else {
        remap[n] = host.add_net(prefix + pattern.net_name(id));
      }
    }
    std::vector<NetId> pins;
    for (std::uint32_t d = 0; d < pattern.device_count(); ++d) {
      const DeviceId id(d);
      pins.clear();
      for (NetId pn : pattern.device_pins(id)) pins.push_back(remap[pn.index()]);
      host.add_device(pattern.device_type(id), pins);
    }
  }

  SubgraphMatcher matcher(pattern, host);
  EXPECT_EQ(matcher.find_all().count(), 2u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, SelfMatch,
    ::testing::ValuesIn(cells::CellLibrary::all_cells()),
    [](const auto& param_info) { return param_info.param; });

}  // namespace
}  // namespace subg
