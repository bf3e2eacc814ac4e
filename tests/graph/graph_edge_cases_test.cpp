// CircuitGraph edge cases: multi-edges, self-referential connections,
// degree-0 nets, big fanout, and label stability guarantees.
#include <gtest/gtest.h>

#include "graph/circuit_graph.hpp"

namespace subg {
namespace {

class GraphEdgeCases : public ::testing::Test {
 protected:
  std::shared_ptr<const DeviceCatalog> cat = DeviceCatalog::cmos3();
  DeviceTypeId nmos = cat->require("nmos");
  DeviceTypeId res = cat->require("res");
};

TEST_F(GraphEdgeCases, DeviceWithTwoPinsOnOneNet) {
  // Diode-connected transistor: d and g on the same net → two parallel
  // edges with different coefficients.
  Netlist nl(cat);
  NetId a = nl.add_net("a"), s = nl.add_net("s");
  DeviceId d = nl.add_device(nmos, {a, a, s});
  CircuitGraph g(nl);
  const Vertex dv = g.vertex_of(d);
  const Vertex av = g.vertex_of(a);
  EXPECT_EQ(g.degree(dv), 3u);
  EXPECT_EQ(g.degree(av), 2u);
  // The two a-edges carry different class coefficients (sd vs gate).
  auto to = g.neighbors(av);
  auto coeff = g.coefficients(av);
  EXPECT_NE(coeff[0], coeff[1]);
  EXPECT_EQ(to[0], dv);
  EXPECT_EQ(to[1], dv);
}

TEST_F(GraphEdgeCases, ResistorLoopBothPinsOneNet) {
  Netlist nl(cat);
  NetId a = nl.add_net("a");
  DeviceId d = nl.add_device(res, {a, a});
  CircuitGraph g(nl);
  EXPECT_EQ(g.degree(g.vertex_of(a)), 2u);
  auto coeff = g.coefficients(g.vertex_of(a));
  // Same class → same coefficient on both parallel edges.
  EXPECT_EQ(coeff[0], coeff[1]);
  EXPECT_EQ(g.degree(g.vertex_of(d)), 2u);
}

TEST_F(GraphEdgeCases, IsolatedNetHasNoEdges) {
  Netlist nl(cat);
  NetId lonely = nl.add_net("lonely");
  NetId a = nl.add_net("a"), b = nl.add_net("b"), c = nl.add_net("c");
  nl.add_device(nmos, {a, b, c});
  CircuitGraph g(nl);
  EXPECT_EQ(g.degree(g.vertex_of(lonely)), 0u);
  EXPECT_EQ(g.initial_label(g.vertex_of(lonely)), degree_label(0));
}

TEST_F(GraphEdgeCases, HighFanoutNetDegreeAndLabel) {
  Netlist nl(cat);
  NetId hub = nl.add_net("hub");
  for (int i = 0; i < 1000; ++i) {
    NetId x = nl.add_net("x" + std::to_string(i));
    NetId y = nl.add_net("y" + std::to_string(i));
    nl.add_device(nmos, {x, hub, y});
  }
  CircuitGraph g(nl);
  EXPECT_EQ(g.degree(g.vertex_of(hub)), 1000u);
  EXPECT_EQ(g.initial_label(g.vertex_of(hub)), degree_label(1000));
}

TEST_F(GraphEdgeCases, InitialLabelsStableAcrossRebuilds) {
  Netlist nl(cat);
  NetId a = nl.add_net("a"), b = nl.add_net("b"), c = nl.add_net("c");
  nl.add_device(nmos, {a, b, c});
  CircuitGraph g1(nl);
  CircuitGraph g2(nl);
  for (Vertex v = 0; v < g1.vertex_count(); ++v) {
    EXPECT_EQ(g1.initial_label(v), g2.initial_label(v));
  }
}

TEST_F(GraphEdgeCases, SpecialLabelIndependentOfDegree) {
  auto make = [&](int fanout) {
    Netlist nl(cat);
    NetId rail = nl.add_net("vdd");
    nl.mark_global(rail);
    for (int i = 0; i < fanout; ++i) {
      NetId x = nl.add_net("x" + std::to_string(i));
      NetId gnet = nl.add_net("g" + std::to_string(i));
      nl.add_device(nmos, {x, gnet, rail});
    }
    CircuitGraph g(nl);
    return g.initial_label(g.vertex_of(rail));
  };
  EXPECT_EQ(make(1), make(500));
  EXPECT_EQ(make(1), CircuitGraph::special_net_label("vdd"));
}

}  // namespace
}  // namespace subg
