// Forced-pin walk ≡ relabel search.
//
// Phase II settles a candidate in the forced-pin walk only when the verdict
// is exact: a completed walk is the one mapping with K↦c, an empty domain
// proves there is none. So every instance list must be identical with the
// walk on (the default filter) and off (Phase2Filter::kOff, the paper's
// pure census search), under find_all and exhaustive enumeration, at one
// lane and at eight. The workloads cover patterns the walk settles (the
// single-stage CMOS cells, sram6t, fulladder) and patterns whose
// self-walk gets stuck, so that the walk must stay out of the way (the
// Fig 5 parallel banks and rings, the pass transistor's two orientations).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cells/cells.hpp"
#include "gen/generators.hpp"
#include "match/matcher.hpp"
#include "test_circuits.hpp"

namespace subg {
namespace {

using test::Cmos3;

MatchReport run(const Netlist& pattern, const Netlist& host,
                Phase2Filter filter, std::size_t jobs, bool exhaustive) {
  MatchOptions options;
  options.phase2_filter = filter;
  options.jobs = jobs;
  options.exhaustive = exhaustive;
  return SubgraphMatcher(pattern, host, options).find_all();
}

/// Walk on vs off, find_all and exhaustive, at `jobs`: identical complete
/// instance lists. Returns the walk-on find_all report for counter checks.
MatchReport expect_walk_equivalent(const Netlist& pattern, const Netlist& host,
                                   std::size_t jobs, const std::string& what) {
  MatchReport first;
  for (const bool exhaustive : {false, true}) {
    const std::string mode = what + (exhaustive ? " exhaustive" : " find_all") +
                             " jobs=" + std::to_string(jobs);
    MatchReport on = run(pattern, host, Phase2Filter::kPaths, jobs, exhaustive);
    const MatchReport off =
        run(pattern, host, Phase2Filter::kOff, jobs, exhaustive);
    EXPECT_TRUE(on.status.complete()) << mode;
    EXPECT_TRUE(off.status.complete()) << mode;
    EXPECT_EQ(on.count(), off.count()) << mode;
    if (on.count() == off.count()) {
      for (std::size_t i = 0; i < on.count(); ++i) {
        EXPECT_EQ(on.instances[i].device_image, off.instances[i].device_image)
            << mode << " instance " << i;
        EXPECT_EQ(on.instances[i].net_image, off.instances[i].net_image)
            << mode << " instance " << i;
      }
    }
    if (!exhaustive) first = std::move(on);
  }
  return first;
}

class WalkEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WalkEquivalence, CmosCellsOnSoups) {
  // The soup's nine single-stage static CMOS cells. Eight of them are
  // settled by the walk; aoi22's key sits between two symmetric pMOS pairs,
  // its self-walk gets stuck, and the walk never runs for it.
  cells::CellLibrary lib;
  for (const std::uint64_t seed : {3u, 8u}) {
    const gen::Generated soup = gen::logic_soup(300, seed);
    for (const char* cell : {"inv", "nand2", "nand3", "nand4", "nor2", "nor3",
                             "aoi21", "oai21", "aoi22"}) {
      const std::string what = std::string(cell) + " seed " +
                               std::to_string(seed);
      const MatchReport on = expect_walk_equivalent(
          lib.pattern(cell), soup.netlist, GetParam(), what);
      EXPECT_GT(on.count(), 0u) << what;
      if (std::string(cell) == "aoi22") {
        EXPECT_EQ(on.phase2.walk_settled, 0u) << what;
        EXPECT_EQ(on.phase2.walk_fallbacks, 0u) << what;
      } else {
        EXPECT_GT(on.phase2.walk_settled, 0u) << what;
        EXPECT_EQ(on.phase2.passes, 0u) << what;
      }
    }
  }
}

TEST_P(WalkEquivalence, Fig5ParallelBanksAndRings) {
  Cmos3 c;
  for (const int k : {2, 3, 4, 6}) {
    Netlist host = c.netlist("host");
    for (int gi = 0; gi < 4; ++gi) {
      NetId n1 = host.add_net("a" + std::to_string(gi));
      NetId n2 = host.add_net("b" + std::to_string(gi));
      NetId g = host.add_net("g" + std::to_string(gi));
      for (int i = 0; i < k; ++i) host.add_device(c.nmos, {n1, g, n2});
    }
    expect_walk_equivalent(c.parallel_bank(static_cast<std::size_t>(k), "par", true), host, GetParam(),
                           "par" + std::to_string(k));
  }
  for (const int k : {4, 6}) {
    Netlist host = c.netlist("host");
    for (int gi = 0; gi < 4; ++gi) {
      c.ring(host, k, "t" + std::to_string(gi) + "_");
    }
    for (int gi = 0; gi < 2; ++gi) {
      c.ring(host, k, "d" + std::to_string(gi) + "_", true);
    }
    expect_walk_equivalent(c.ring_pattern(k), host, GetParam(),
                           "fat ring" + std::to_string(k));
  }
}

TEST_P(WalkEquivalence, RingDecoys) {
  // True 6-rings beside 12-ring decoys whose nets all have the pattern's
  // degree, so only the ring length tells them apart.
  Cmos3 c;
  Netlist host = c.netlist("host");
  for (int gi = 0; gi < 2; ++gi) {
    c.ring(host, 6, "t" + std::to_string(gi) + "_");
  }
  for (int gi = 0; gi < 3; ++gi) {
    c.ring(host, 12, "d" + std::to_string(gi) + "_");
  }
  const MatchReport on =
      expect_walk_equivalent(c.ring_pattern(6), host, GetParam(), "decoys");
  EXPECT_EQ(on.count(), 2u);
}

TEST_P(WalkEquivalence, PassTransistorOrientations) {
  // A tgate's two sd nets swap under the pin-class symmetry, so no sd
  // domain is ever a singleton: both orientations stay with the relabel
  // search, which exhaustive mode enumerates.
  cells::CellLibrary lib;
  gen::Generated soup = gen::logic_soup(80, 11);
  std::vector<NetId> pool;
  for (int i = 0; i < 16; ++i) {
    pool.push_back(*soup.netlist.find_net("pi" + std::to_string(i)));
  }
  const Netlist& tgate = lib.pattern("tgate");
  gen::plant_instances(soup.netlist, tgate, 4, pool, 0xFEED);
  const MatchReport on =
      expect_walk_equivalent(tgate, soup.netlist, GetParam(), "tgate");
  EXPECT_GE(on.count(), 4u);
  EXPECT_EQ(on.phase2.walk_settled, 0u);
}

TEST_P(WalkEquivalence, SramAndFullAdder) {
  cells::CellLibrary lib;
  const gen::Generated sram = gen::sram_array(4, 4);
  const MatchReport cells = expect_walk_equivalent(
      lib.pattern("sram6t"), sram.netlist, GetParam(), "sram6t");
  EXPECT_EQ(cells.count(), sram.placed_count("sram6t"));
  for (const gen::Generated& adder :
       {gen::ripple_carry_adder(4), gen::array_multiplier(4)}) {
    const MatchReport on = expect_walk_equivalent(
        lib.pattern("fulladder"), adder.netlist, GetParam(), "fulladder");
    EXPECT_EQ(on.count(), adder.placed_count("fulladder"));
  }
}

INSTANTIATE_TEST_SUITE_P(Jobs, WalkEquivalence, ::testing::Values(1u, 8u),
                         [](const ::testing::TestParamInfo<std::size_t>& p) {
                           return "jobs" + std::to_string(p.param);
                         });

}  // namespace
}  // namespace subg
