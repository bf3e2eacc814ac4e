#include <gtest/gtest.h>

#include "cells/cells.hpp"
#include "extract/extract.hpp"
#include "gemini/gemini.hpp"
#include "gen/generators.hpp"

namespace subg::extract {
namespace {

using cells::CellLibrary;

std::vector<LibraryCell> make_library(std::initializer_list<const char*> names) {
  CellLibrary lib;
  std::vector<LibraryCell> cells;
  for (const char* name : names) {
    cells.push_back(LibraryCell{name, lib.pattern(name)});
  }
  return cells;
}

TEST(Extract, ExtendedCatalogAddsCellTypes) {
  auto cells = make_library({"inv", "nand2"});
  auto cat = extended_catalog(*DeviceCatalog::cmos(), cells);
  ASSERT_TRUE(cat->find("nand2").has_value());
  const DeviceTypeInfo& t = cat->type(cat->require("nand2"));
  EXPECT_EQ(t.pin_count(), 3u);  // a0, a1, y
  EXPECT_EQ(t.pins[2].name, "y");
  // Base types survive.
  EXPECT_TRUE(cat->find("nmos").has_value());
}

TEST(Extract, PortEquivalenceClasses) {
  CellLibrary lib;
  // nand2: the inputs are FUNCTIONALLY commutative but STRUCTURALLY
  // ordered — a0 always gates the top of the series stack — so no
  // automorphism exchanges them. (Extraction canonicalizes: a matched
  // instance always reports the top gate as a0, which is why gate-level
  // matching still works; see GateLevelMatchingToleratesSwappedInputs.)
  {
    Netlist p = lib.pattern("nand2");
    auto classes = port_equivalence_classes(p);
    ASSERT_EQ(classes.size(), 3u);
    EXPECT_NE(classes[0], classes[1]);
    EXPECT_NE(classes[0], classes[2]);
  }
  // mux2: a/b NOT interchangeable (swapping them inverts the select sense).
  {
    Netlist p = lib.pattern("mux2");
    auto classes = port_equivalence_classes(p);
    ASSERT_EQ(classes.size(), 4u);
    EXPECT_NE(classes[0], classes[1]);
  }
  // tgate: x/y genuinely interchangeable (source/drain symmetry); en/enb
  // not (they gate different device types).
  {
    Netlist p = lib.pattern("tgate");
    auto classes = port_equivalence_classes(p);
    ASSERT_EQ(classes.size(), 4u);
    EXPECT_EQ(classes[0], classes[1]);
    EXPECT_NE(classes[2], classes[3]);
  }
  // sram6t: bl/blb are exchanged by the cell's mirror automorphism
  // (t <-> tb), wl is fixed.
  {
    Netlist p = lib.pattern("sram6t");
    auto classes = port_equivalence_classes(p);
    ASSERT_EQ(classes.size(), 3u);
    EXPECT_EQ(classes[0], classes[1]);
    EXPECT_NE(classes[0], classes[2]);
  }
}

TEST(Extract, ExtendedCatalogMergesSymmetricPins) {
  auto cells = make_library({"tgate"});
  auto cat = extended_catalog(*DeviceCatalog::cmos(), cells);
  const DeviceTypeInfo& t = cat->type(cat->require("tgate"));
  EXPECT_EQ(t.class_count, 3u);               // {x,y}, {en}, {enb}
  EXPECT_EQ(t.pin_class[0], t.pin_class[1]);  // x/y share a class
}

TEST(Extract, GateLevelMatchingToleratesSwappedInputs) {
  // Two circuits whose NAND actuals are given in opposite order extract to
  // isomorphic gate-level netlists: the matcher binds a0 to whichever net
  // gates the top of the stack, canonicalizing pin order structurally.
  CellLibrary lib;
  auto cells = make_library({"nand2"});

  auto build = [&](bool swapped) {
    CellLibrary l2;
    Design& d = l2.design();
    ModuleId nand2 = l2.module("nand2");
    ModuleId top = d.add_module("top", {"p", "q", "r", "y"});
    Module& m = d.module(top);
    NetId mid = m.add_net("mid");
    if (swapped) {
      m.add_instance(nand2, {*m.find_net("q"), *m.find_net("p"), mid});
    } else {
      m.add_instance(nand2, {*m.find_net("p"), *m.find_net("q"), mid});
    }
    m.add_instance(nand2, {mid, *m.find_net("r"), *m.find_net("y")});
    return d.flatten("top");
  };

  ExtractResult a = extract_gates(build(false), cells);
  ExtractResult b = extract_gates(build(true), cells);
  ASSERT_EQ(a.report.unextracted_primitives, 0u);
  ASSERT_EQ(b.report.unextracted_primitives, 0u);
  // The two gate-level netlists are isomorphic despite the swapped wiring.
  CompareResult cmp = compare_netlists(a.netlist, b.netlist);
  EXPECT_TRUE(cmp.isomorphic) << cmp.reason;
}

TEST(Extract, CloneNetlistPreservesEverything) {
  gen::Generated g = gen::c17();
  auto cells = make_library({"inv"});
  auto cat = extended_catalog(g.netlist.catalog(), cells);
  Netlist clone = clone_netlist(g.netlist, cat);
  clone.validate();
  CompareResult r = compare_netlists(g.netlist, clone);
  EXPECT_TRUE(r.isomorphic) << r.reason;
}

TEST(Extract, C17BecomesSixNandGates) {
  gen::Generated g = gen::c17();
  auto cells = make_library({"nand2", "inv"});
  ExtractResult result = extract_gates(g.netlist, cells);
  EXPECT_EQ(result.report.devices_before, 24u);
  EXPECT_EQ(result.report.devices_after, 6u);
  EXPECT_EQ(result.report.unextracted_primitives, 0u);
  result.netlist.validate();
  // All six devices are nand2 gates.
  for (std::uint32_t d = 0; d < result.netlist.device_count(); ++d) {
    EXPECT_EQ(result.netlist.device_type_info(DeviceId(d)).name, "nand2");
  }
}

TEST(Extract, AdderExtractsCompletely) {
  gen::Generated g = gen::ripple_carry_adder(4);
  auto cells = make_library({"xor2", "nand2"});
  ExtractResult result = extract_gates(g.netlist, cells);
  // Each fulladder = 2 xor2 + 3 nand2.
  std::size_t xor_count = 0, nand_count = 0;
  for (const auto& per : result.report.cells) {
    if (per.cell == "xor2") xor_count = per.instances;
    if (per.cell == "nand2") nand_count = per.instances;
  }
  EXPECT_EQ(xor_count, 8u);
  EXPECT_EQ(nand_count, 12u);
  EXPECT_EQ(result.report.unextracted_primitives, 0u);
  EXPECT_EQ(result.netlist.device_count(), 20u);
}

TEST(Extract, RoundTripIsIsomorphic) {
  gen::Generated g = gen::ripple_carry_adder(3);
  auto cells = make_library({"xor2", "nand2"});
  ExtractResult result = extract_gates(g.netlist, cells);
  ASSERT_EQ(result.report.unextracted_primitives, 0u);
  Netlist expanded = expand_gates(result.netlist, cells, g.netlist.catalog_ptr());
  expanded.validate();
  CompareResult r = compare_netlists(g.netlist, expanded);
  EXPECT_TRUE(r.isomorphic) << r.reason;
}

TEST(Extract, LargestFirstPreventsInverterTheft) {
  // With xor2 disabled and only {inv, nand2} in the library, a full adder's
  // xor cells contain real inverters; nand gates must still not lose their
  // pullups to the inverter pattern. With largest_first the nand2 runs
  // first and claims its transistors; the inverter then extracts the xor
  // input inverters only.
  gen::Generated g = gen::ripple_carry_adder(2);
  auto cells = make_library({"inv", "nand2"});

  ExtractResult ordered = extract_gates(g.netlist, cells);
  std::size_t nands = 0, invs = 0;
  for (const auto& per : ordered.report.cells) {
    if (per.cell == "nand2") nands = per.instances;
    if (per.cell == "inv") invs = per.instances;
  }
  // 3 nand2 per fulladder; 2 inverters per xor2, 2 xor2 per fulladder.
  EXPECT_EQ(nands, 6u);
  EXPECT_EQ(invs, 8u);
}

TEST(Extract, ReportTimesAndCounts) {
  gen::Generated g = gen::c17();
  auto cells = make_library({"nand2"});
  ExtractResult result = extract_gates(g.netlist, cells);
  ASSERT_EQ(result.report.cells.size(), 1u);
  EXPECT_EQ(result.report.cells[0].instances, 6u);
  EXPECT_EQ(result.report.cells[0].devices_replaced, 24u);
  EXPECT_GE(result.report.cells[0].seconds, 0.0);
}

TEST(Extract, UnmatchedPrimitivesSurvive) {
  // A lone pass transistor next to an inverter: the inverter extracts, the
  // pass device stays as a primitive.
  CellLibrary lib;
  Netlist host(DeviceCatalog::cmos(), "mix");
  NetId vdd = host.add_net("vdd"), gnd = host.add_net("gnd");
  host.mark_global(vdd);
  host.mark_global(gnd);
  NetId a = host.add_net("a"), y = host.add_net("y");
  DeviceTypeId nmos = host.catalog().require("nmos");
  DeviceTypeId pmos = host.catalog().require("pmos");
  host.add_device(pmos, {y, a, vdd, vdd});
  host.add_device(nmos, {y, a, gnd, gnd});
  NetId p = host.add_net("p"), q = host.add_net("q"), en = host.add_net("en");
  host.add_device(nmos, {p, en, q, gnd}, "pass1");

  std::vector<LibraryCell> cells;
  cells.push_back(LibraryCell{"inv", lib.pattern("inv")});
  ExtractResult result = extract_gates(host, cells);
  EXPECT_EQ(result.report.devices_after, 2u);  // 1 inv gate + 1 pass nmos
  EXPECT_EQ(result.report.unextracted_primitives, 1u);
  EXPECT_TRUE(result.netlist.find_device("pass1").has_value());
}

TEST(Extract, CellWithPinlessPortFailsNamingTheCell) {
  // An inverter cell with an extra port no device touches could never be
  // placed; the sweep refuses the library up front, at every --jobs.
  CellLibrary lib;
  std::vector<LibraryCell> cells = make_library({"nand2"});
  Netlist odd = lib.pattern("inv");
  odd.mark_port(odd.add_net("unused"));
  cells.push_back(LibraryCell{"inv_unused", odd});
  const gen::Generated host = gen::logic_soup(40, 2);
  for (const std::size_t jobs : {1u, 4u}) {
    ExtractOptions options;
    options.match.jobs = jobs;
    std::string what;
    try {
      (void)extract_gates(host.netlist, cells, options);
    } catch (const Error& e) {
      what = e.what();
    }
    EXPECT_NE(what.find("library cell 'inv_unused'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("pattern net 'unused'"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace subg::extract
