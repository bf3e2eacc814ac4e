// Property-based matcher tests: plant known instances into random hosts and
// check completeness, soundness, and determinism (parameterized sweep).
#include <gtest/gtest.h>

#include "cells/cells.hpp"
#include "gen/generators.hpp"
#include "match/matcher.hpp"
#include "match/verify.hpp"

namespace subg {
namespace {

struct Params {
  const char* cell;
  std::size_t planted;
  std::uint64_t seed;
};

/// Printed into the test name (gtest would dump the struct's raw bytes,
/// pointer included, which differ on every run).
void PrintTo(const Params& p, std::ostream* os) {
  *os << p.cell << " x" << p.planted << " seed " << p.seed;
}

class PlantedInstances : public ::testing::TestWithParam<Params> {};

TEST_P(PlantedInstances, AllPlantedInstancesAreFound) {
  const Params p = GetParam();
  gen::Generated host = gen::logic_soup(80, p.seed);
  // Plant targets: primary inputs plus inter-gate wires (both are port
  // images of soup cells, so extra connections cannot break anything).
  std::vector<NetId> pool;
  for (int i = 0; i < 18; ++i) {
    pool.push_back(*host.netlist.find_net("pi" + std::to_string(i)));
  }
  for (int i = 0; i < 12; ++i) {
    pool.push_back(*host.netlist.find_net("w" + std::to_string(i)));
  }
  cells::CellLibrary lib;
  Netlist pattern = lib.pattern(p.cell);
  gen::plant_instances(host.netlist, pattern, p.planted, pool, p.seed ^ 0xABCDEF);

  SubgraphMatcher matcher(pattern, host.netlist);
  MatchReport report = matcher.find_all();

  // Completeness: at least the planted copies plus whatever the soup
  // already contained.
  EXPECT_GE(report.count(), p.planted + host.placed_count(p.cell));

  // Soundness: every reported instance passes independent verification.
  for (const SubcircuitInstance& inst : report.instances) {
    EXPECT_TRUE(verify_instance(pattern, host.netlist, inst));
  }

  // Determinism: a second run reproduces the same result.
  SubgraphMatcher matcher2(pattern, host.netlist);
  MatchReport report2 = matcher2.find_all();
  ASSERT_EQ(report.count(), report2.count());
  for (std::size_t i = 0; i < report.count(); ++i) {
    EXPECT_EQ(report.instances[i].device_image,
              report2.instances[i].device_image);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlantedInstances,
    ::testing::Values(Params{"inv", 4, 1}, Params{"inv", 9, 2},
                      Params{"nand2", 5, 3}, Params{"nand3", 4, 4},
                      Params{"nor2", 6, 5}, Params{"aoi21", 3, 6},
                      Params{"xor2", 4, 7}, Params{"mux2", 3, 8},
                      Params{"dlatch", 3, 9}, Params{"dff", 2, 10},
                      Params{"fulladder", 2, 11}, Params{"sram6t", 8, 12},
                      Params{"tgate", 5, 13}, Params{"oai21", 4, 14},
                      Params{"xnor2", 3, 15}, Params{"aoi22", 3, 16},
                      Params{"nand4", 3, 17}, Params{"nor3", 4, 18}),
    [](const auto& param_info) {
      return std::string(param_info.param.cell) + "_x" +
             std::to_string(param_info.param.planted);
    });

TEST(MatcherInvariants, Phase1CandidateCountBoundsPhase2Work) {
  gen::Generated host = gen::ripple_carry_adder(6);
  cells::CellLibrary lib;
  Netlist pattern = lib.pattern("fulladder");
  SubgraphMatcher matcher(pattern, host.netlist);
  MatchReport report = matcher.find_all();
  EXPECT_EQ(report.count(), 6u);
  // One Phase II attempt per candidate, nothing more.
  EXPECT_EQ(report.phase2.candidates_tried, report.phase1.candidates.size());
  EXPECT_GE(report.phase1.candidates.size(), report.count());
}

TEST(MatcherInvariants, HostUntouchedByMatching) {
  gen::Generated host = gen::c17();
  const std::size_t devices = host.netlist.device_count();
  const std::size_t nets = host.netlist.net_count();
  cells::CellLibrary lib;
  Netlist pattern = lib.pattern("nand2");
  SubgraphMatcher matcher(pattern, host.netlist);
  (void)matcher.find_all();
  EXPECT_EQ(host.netlist.device_count(), devices);
  EXPECT_EQ(host.netlist.net_count(), nets);
  EXPECT_NO_THROW(host.netlist.validate());
}

}  // namespace
}  // namespace subg
