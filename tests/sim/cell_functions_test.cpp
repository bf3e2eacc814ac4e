// Every combinational cell's transistor-level pattern must compute exactly
// its advertised truth function — checked by exhaustive switch-level vs
// gate-level equivalence. This pins down the cell library (and the
// simulator) functionally, so structural tests elsewhere rest on correct
// cells.
#include <gtest/gtest.h>

#include <set>

#include "cells/cells.hpp"
#include "extract/extract.hpp"
#include "gen/generators.hpp"
#include "sim/sim.hpp"
#include "util/rng.hpp"

namespace subg::sim {
namespace {

/// Combinational cells with a single-gate functional model.
const std::vector<const char*>& functional_cells() {
  static const std::vector<const char*> kCells = {
      "inv",   "buf",  "nand2", "nand3", "nand4", "nor2",      "nor3",
      "nor4",  "and2", "and3",  "and4",  "or2",   "or3",       "or4",
      "aoi21", "aoi22", "oai21", "xor2",  "xnor2", "mux2",
      "halfadder", "fulladder"};
  return kCells;
}

class CellFunction : public ::testing::TestWithParam<const char*> {};

TEST_P(CellFunction, TransistorsMatchTruthFunction) {
  const std::string cell = GetParam();
  cells::CellLibrary lib;
  Netlist transistors = lib.pattern(cell);

  // One-gate netlist of the same cell type, wired to same-named nets.
  std::vector<extract::LibraryCell> cells;
  cells.push_back(extract::LibraryCell{cell, lib.pattern(cell)});
  auto cat = extract::extended_catalog(*DeviceCatalog::cmos(), cells);
  Netlist gate(cat, cell + "_gate");
  // Output pin names per cell (everything else is an input).
  std::set<std::string> output_names = {"y"};
  if (cell == "halfadder") output_names = {"s", "c"};
  if (cell == "fulladder") output_names = {"s", "cout"};

  std::vector<NetId> pins;
  std::vector<std::string> inputs, outputs;
  for (NetId port : transistors.ports()) {
    const std::string& name = transistors.net_name(port);
    pins.push_back(gate.add_net(name));
    if (output_names.contains(name)) {
      outputs.push_back(name);
    } else {
      inputs.push_back(name);
    }
  }
  gate.add_device(cat->require(cell), pins);

  ASSERT_FALSE(inputs.empty());
  ASSERT_FALSE(outputs.empty());
  EquivalenceResult r = check_equivalence(transistors, gate, inputs, outputs);
  EXPECT_TRUE(r.equivalent) << cell << ": " << r.counterexample;
  EXPECT_EQ(r.inconclusive, 0u) << cell;
  EXPECT_EQ(r.vectors_checked, std::size_t{1} << inputs.size()) << cell;
}

INSTANTIATE_TEST_SUITE_P(AllCombinational, CellFunction,
                         ::testing::ValuesIn(functional_cells()),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

TEST(CellFunction, GeneratedAddersAddAcrossWidths) {
  for (int bits : {2, 3, 5}) {
    gen::Generated rca = gen::ripple_carry_adder(bits);
    Simulator s(rca.netlist);
    Xoshiro256 rng(bits);
    for (int trial = 0; trial < 16; ++trial) {
      const std::uint32_t a =
          static_cast<std::uint32_t>(rng.below(1u << bits));
      const std::uint32_t b =
          static_cast<std::uint32_t>(rng.below(1u << bits));
      const std::uint32_t cin = static_cast<std::uint32_t>(rng.below(2));
      std::map<std::string, V> in;
      for (int i = 0; i < bits; ++i) {
        in["a" + std::to_string(i)] = ((a >> i) & 1) ? V::k1 : V::k0;
        in["b" + std::to_string(i)] = ((b >> i) & 1) ? V::k1 : V::k0;
      }
      in["cin"] = cin ? V::k1 : V::k0;
      SolveResult r = s.solve(in);
      ASSERT_TRUE(r.converged);
      std::uint32_t got = 0;
      for (int i = 0; i < bits; ++i) {
        if (r.value(*rca.netlist.find_net("s" + std::to_string(i))) == V::k1) {
          got |= 1u << i;
        }
      }
      if (r.value(*rca.netlist.find_net("cout")) == V::k1) got |= 1u << bits;
      EXPECT_EQ(got, a + b + cin) << bits << ": " << a << "+" << b << "+" << cin;
    }
  }
}

TEST(CellFunction, KoggeStoneAddsCorrectly) {
  gen::Generated ks = gen::kogge_stone_adder(6);
  Simulator s(ks.netlist);
  Xoshiro256 rng(99);
  for (int trial = 0; trial < 24; ++trial) {
    const std::uint32_t a = static_cast<std::uint32_t>(rng.below(64));
    const std::uint32_t b = static_cast<std::uint32_t>(rng.below(64));
    std::map<std::string, V> in;
    for (int i = 0; i < 6; ++i) {
      in["a" + std::to_string(i)] = ((a >> i) & 1) ? V::k1 : V::k0;
      in["b" + std::to_string(i)] = ((b >> i) & 1) ? V::k1 : V::k0;
    }
    SolveResult r = s.solve(in);
    ASSERT_TRUE(r.converged);
    std::uint32_t got = 0;
    for (int i = 0; i < 6; ++i) {
      V v = r.value(*ks.netlist.find_net("s" + std::to_string(i)));
      ASSERT_TRUE(v == V::k0 || v == V::k1) << "s" << i;
      if (v == V::k1) got |= 1u << i;
    }
    EXPECT_EQ(got, (a + b) & 63u) << a << "+" << b;
  }
}

TEST(CellFunction, ParityTreeComputesParity) {
  gen::Generated tree = gen::parity_tree(9);
  Simulator s(tree.netlist);
  Xoshiro256 rng(5);
  // The tree output is the last xor's output net.
  const std::string out = "x7";  // 8 xor2s, serial 0..7; root is x7
  for (int trial = 0; trial < 20; ++trial) {
    std::uint32_t bits = static_cast<std::uint32_t>(rng.below(512));
    std::map<std::string, V> in;
    int ones = 0;
    for (int i = 0; i < 9; ++i) {
      const bool one = (bits >> i) & 1;
      ones += one;
      in["in" + std::to_string(i)] = one ? V::k1 : V::k0;
    }
    SolveResult r = s.solve(in);
    ASSERT_TRUE(r.converged);
    EXPECT_EQ(r.value(*tree.netlist.find_net(out)),
              (ones & 1) ? V::k1 : V::k0);
  }
}

}  // namespace
}  // namespace subg::sim
