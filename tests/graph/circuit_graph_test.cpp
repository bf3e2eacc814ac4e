#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cells/cells.hpp"
#include "gen/generators.hpp"
#include "graph/circuit_graph.hpp"
#include "util/check.hpp"

namespace subg {
namespace {

class CircuitGraphTest : public ::testing::Test {
 protected:
  std::shared_ptr<const DeviceCatalog> cat = DeviceCatalog::cmos3();
  DeviceTypeId nmos = cat->require("nmos");
  DeviceTypeId pmos = cat->require("pmos");
};

TEST_F(CircuitGraphTest, BipartiteLayout) {
  Netlist nl(cat);
  NetId a = nl.add_net("a"), y = nl.add_net("y"), g = nl.add_net("gnd");
  DeviceId d = nl.add_device(nmos, {y, a, g});
  CircuitGraph graph(nl);
  EXPECT_EQ(graph.device_count(), 1u);
  EXPECT_EQ(graph.net_count(), 3u);
  EXPECT_EQ(graph.vertex_count(), 4u);
  Vertex dv = graph.vertex_of(d);
  EXPECT_TRUE(graph.is_device(dv));
  EXPECT_FALSE(graph.is_net(dv));
  Vertex av = graph.vertex_of(a);
  EXPECT_TRUE(graph.is_net(av));
  EXPECT_EQ(graph.device_of(dv), d);
  EXPECT_EQ(graph.net_of(av), a);
}

TEST_F(CircuitGraphTest, EdgesMirroredWithCoefficients) {
  Netlist nl(cat);
  NetId a = nl.add_net("a"), y = nl.add_net("y"), g = nl.add_net("gnd");
  DeviceId d = nl.add_device(nmos, {y, a, g});
  CircuitGraph graph(nl);
  Vertex dv = graph.vertex_of(d);
  auto dc = graph.coefficients(dv);
  ASSERT_EQ(dc.size(), 3u);
  ASSERT_EQ(graph.neighbors(dv).size(), 3u);
  // Pin 0 (d) and pin 2 (s) share the sd class coefficient; pin 1 (g)
  // differs.
  EXPECT_EQ(dc[0], dc[2]);
  EXPECT_NE(dc[0], dc[1]);
  // Net side sees the same coefficient back.
  const Vertex av = graph.vertex_of(a);
  ASSERT_EQ(graph.neighbors(av).size(), 1u);
  EXPECT_EQ(graph.neighbors(av)[0], dv);
  EXPECT_EQ(graph.coefficients(av)[0], dc[1]);
}

TEST_F(CircuitGraphTest, InitialLabels) {
  Netlist nl(cat);
  NetId a = nl.add_net("a"), y = nl.add_net("y"), v = nl.add_net("vdd"),
        g = nl.add_net("gnd");
  nl.mark_global(v);
  DeviceId mp = nl.add_device(pmos, {y, a, v});
  DeviceId mn = nl.add_device(nmos, {y, a, g});
  CircuitGraph graph(nl);
  // Devices: type hash.
  EXPECT_EQ(graph.initial_label(graph.vertex_of(mp)), hash_string("pmos"));
  EXPECT_EQ(graph.initial_label(graph.vertex_of(mn)), hash_string("nmos"));
  // Nets: degree hash; a and y both have degree 2.
  EXPECT_EQ(graph.initial_label(graph.vertex_of(a)), degree_label(2));
  EXPECT_EQ(graph.initial_label(graph.vertex_of(a)),
            graph.initial_label(graph.vertex_of(y)));
  EXPECT_EQ(graph.initial_label(graph.vertex_of(g)), degree_label(1));
  // Special nets: fixed name-derived label, independent of degree.
  EXPECT_TRUE(graph.is_special(graph.vertex_of(v)));
  EXPECT_EQ(graph.initial_label(graph.vertex_of(v)),
            CircuitGraph::special_net_label("vdd"));
}

TEST_F(CircuitGraphTest, DegreeMatchesNetlist) {
  cells::CellLibrary lib;
  Netlist nand3 = lib.pattern("nand3");
  CircuitGraph graph(nand3);
  for (std::uint32_t n = 0; n < nand3.net_count(); ++n) {
    NetId net(n);
    EXPECT_EQ(graph.degree(graph.vertex_of(net)), nand3.net_degree(net));
  }
  std::size_t edge_total = 0;
  for (Vertex v = 0; v < graph.vertex_count(); ++v) {
    edge_total += graph.degree(v);
  }
  // Each pin contributes one edge seen from both endpoints.
  EXPECT_EQ(edge_total, 2 * nand3.stats().pin_count);
}

TEST_F(CircuitGraphTest, VertexNames) {
  Netlist nl(cat);
  NetId a = nl.add_net("a"), y = nl.add_net("y"), g = nl.add_net("gnd");
  DeviceId d = nl.add_device(nmos, {y, a, g}, "m1");
  CircuitGraph graph(nl);
  EXPECT_EQ(graph.vertex_name(graph.vertex_of(d)), "dev:m1");
  EXPECT_EQ(graph.vertex_name(graph.vertex_of(a)), "net:a");
}

// --- structural mirror -----------------------------------------------------
// The columns must mirror the netlist exactly — same vertices, the same
// edge ORDER (a device lists its pins in pin order, a net lists its pins in
// (device id, pin) order; every relabel sum walks it), the same labels and
// rail flags, the sorted neighbor-degree column on device ranges, and a
// footprint that accounts for every column.

void expect_mirrors_netlist(const Netlist& nl, const CircuitGraph& graph) {
  ASSERT_EQ(graph.vertex_count(), nl.device_count() + nl.net_count());
  // Reference adjacency rebuilt from the netlist, in the documented order.
  std::vector<std::vector<std::pair<Vertex, Label>>> want(
      graph.vertex_count());
  for (std::uint32_t d = 0; d < nl.device_count(); ++d) {
    const DeviceTypeInfo& info = nl.device_type_info(DeviceId(d));
    const auto pins = nl.device_pins(DeviceId(d));
    for (std::uint32_t p = 0; p < pins.size(); ++p) {
      const Label coeff = info.class_coefficient[info.pin_class[p]];
      const Vertex nv = graph.vertex_of(pins[p]);
      want[d].emplace_back(nv, coeff);
      want[nv].emplace_back(d, coeff);
    }
  }
  std::size_t slots = 0;
  for (Vertex v = 0; v < graph.vertex_count(); ++v) {
    SCOPED_TRACE(v);
    const auto nbrs = graph.neighbors(v);
    const auto coeffs = graph.coefficients(v);
    ASSERT_EQ(nbrs.size(), want[v].size());
    ASSERT_EQ(coeffs.size(), want[v].size());
    EXPECT_EQ(graph.degree(v), want[v].size());
    slots += nbrs.size();
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      EXPECT_EQ(nbrs[k], want[v][k].first) << "edge " << k;
      EXPECT_EQ(coeffs[k], want[v][k].second) << "edge " << k;
    }
    if (graph.is_device(v)) {
      const DeviceId d = graph.device_of(v);
      EXPECT_FALSE(graph.is_special(v));
      EXPECT_EQ(graph.initial_label(v), nl.device_type_info(d).type_label);
      EXPECT_EQ(graph.host_base_label(v), graph.initial_label(v));
      std::vector<std::uint32_t> degrees;
      for (const Vertex to : nbrs) {
        degrees.push_back(static_cast<std::uint32_t>(graph.degree(to)));
      }
      std::sort(degrees.begin(), degrees.end());
      const auto column = graph.sorted_neighbor_degrees(v);
      EXPECT_EQ(std::vector<std::uint32_t>(column.begin(), column.end()),
                degrees);
    } else {
      const NetId n = graph.net_of(v);
      EXPECT_EQ(graph.is_special(v), nl.is_global(n));
      EXPECT_EQ(graph.initial_label(v),
                nl.is_global(n)
                    ? CircuitGraph::special_net_label(nl.net_name(n))
                    : degree_label(nl.net_degree(n)));
      // Round-0 host labels: the pure degree label for every net (rail
      // overrides are applied by the label cache, not baked in).
      EXPECT_EQ(graph.host_base_label(v), degree_label(nl.net_degree(n)));
      EXPECT_TRUE(graph.sorted_neighbor_degrees(v).empty());
    }
  }
  EXPECT_EQ(slots, 2 * nl.stats().pin_count);
  EXPECT_EQ(graph.edge_count(), slots);
}

TEST(CircuitGraphMirror, PatternGraphs) {
  cells::CellLibrary lib;
  for (const char* cell : {"inv", "nand2", "fulladder", "dff", "sram6t"}) {
    SCOPED_TRACE(cell);
    Netlist pattern = lib.pattern(cell);
    CircuitGraph graph(pattern);
    expect_mirrors_netlist(pattern, graph);
  }
}

TEST(CircuitGraphMirror, GeneratedHosts) {
  for (const gen::Generated& g :
       {gen::c17(), gen::ripple_carry_adder(8), gen::register_file(2, 4),
        gen::logic_soup(100, 42)}) {
    SCOPED_TRACE(g.netlist.device_count());
    CircuitGraph graph(g.netlist);
    expect_mirrors_netlist(g.netlist, graph);
  }
}

TEST(CircuitGraphMirror, FootprintAccounting) {
  gen::Generated g = gen::ripple_carry_adder(8);
  CircuitGraph graph(g.netlist);
  // bytes() is the heap footprint of the columns: at least the offsets,
  // the neighbor and coefficient columns, the per-vertex label and flag
  // columns, and the degree column over the device edge ranges.
  const std::size_t nv = graph.vertex_count();
  const std::size_t slots = graph.edge_count();
  EXPECT_GE(graph.bytes(), (nv + 1) * sizeof(CsrOffset) +
                               slots * (sizeof(Vertex) + sizeof(Label)) +
                               nv * (sizeof(Label) + sizeof(std::uint8_t)) +
                               (slots / 2) * sizeof(std::uint32_t));
  EXPECT_GE(graph.build_seconds(), 0.0);
}

// --- CSR offset width ------------------------------------------------------
// Edge offsets are CsrOffset (uint32 unless built with SUBG_CSR_OFFSET64), so
// a graph past the limit must be refused BEFORE construction with a
// structured load error, never built into silently wrapped offsets. A real
// four-billion-slot host does not fit a unit test; the width policy is a
// template, so a narrow width shows the same refusal on a small graph.

TEST(CsrOffsetLimits, AtBothWidths) {
  using L32 = CsrOffsetLimits<std::uint32_t>;
  using L64 = CsrOffsetLimits<std::uint64_t>;
  EXPECT_EQ(L32::max_edges, std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(L64::max_edges, std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(L32::fits(0));
  EXPECT_TRUE(L32::fits(L32::max_edges));
  EXPECT_FALSE(L32::fits(L32::max_edges + 1));
  EXPECT_FALSE(L32::fits(std::numeric_limits<std::uint64_t>::max()));
  EXPECT_TRUE(L64::fits(0));
  EXPECT_TRUE(L64::fits(L32::max_edges + 1));
  EXPECT_TRUE(L64::fits(std::numeric_limits<std::uint64_t>::max()));
}

TEST(CsrOffsetLimits, ConfiguredWidthBoundary) {
  // The limit IS the configured offset range (DESIGN.md §11).
  using L = CsrOffsetLimits<CsrOffset>;
  EXPECT_EQ(L::max_edges, std::numeric_limits<CsrOffset>::max());
  EXPECT_TRUE(L::fits(L::max_edges - 1));
  EXPECT_TRUE(L::fits(L::max_edges));
  EXPECT_NO_THROW(L::require(L::max_edges));
  if (L::max_edges < std::numeric_limits<std::uint64_t>::max()) {
    // Only meaningful at the 32-bit width: at 64 bits no representable
    // count overflows it.
    EXPECT_FALSE(L::fits(L::max_edges + 1));
    EXPECT_THROW(L::require(L::max_edges + 1), Error);
  }
}

TEST(CsrOffsetLimits, GraphPastTheLimitIsALoadError) {
  // A 2-bit adder has more edge slots than 8-bit offsets can address: the
  // same check the constructor runs at CsrOffset throws the load error.
  gen::Generated g = gen::ripple_carry_adder(2);
  const CircuitGraph graph(g.netlist);
  const std::uint64_t slots = graph.edge_count();
  ASSERT_EQ(slots, 2 * g.netlist.stats().pin_count);
  ASSERT_GT(slots, CsrOffsetLimits<std::uint8_t>::max_edges);
  EXPECT_NO_THROW(CsrOffsetLimits<std::uint16_t>::require(slots));
  try {
    CsrOffsetLimits<std::uint8_t>::require(slots);
    FAIL() << "an overflowing graph must be refused";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::to_string(slots)), std::string::npos) << what;
    EXPECT_NE(what.find("255"), std::string::npos) << what;
    EXPECT_NE(what.find("-DSUBG_CSR_OFFSET64=ON"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace subg
