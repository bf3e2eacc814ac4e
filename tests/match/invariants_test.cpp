// Direct checks of the paper's two label invariants on real matches:
//
//   (1) Phase I:  if g = image(s) and s is valid (not corrupt), then
//                 label(g) == label(s)                            (§III)
//   (2) Phase II: if g = image(s) then label(g) == label(s) at every pass,
//                 and g and s are both safe or both suspect        (§IV)
#include <gtest/gtest.h>

#include <map>

#include "cells/cells.hpp"
#include "gen/generators.hpp"
#include "match/matcher.hpp"
#include "match/phase1.hpp"

namespace subg {
namespace {

struct Workload {
  const char* cell;
  int which;  // 0 = adder, 1 = sram, 2 = soup
};

/// Printed into the test name (gtest would dump the struct's raw bytes,
/// pointer included, which differ on every run).
void PrintTo(const Workload& w, std::ostream* os) {
  *os << w.cell << " w" << w.which;
}

class LabelInvariant1 : public ::testing::TestWithParam<Workload> {};

TEST_P(LabelInvariant1, ValidPatternVerticesShareLabelsWithImages) {
  const auto [cell, which] = GetParam();
  gen::Generated host = which == 0   ? gen::ripple_carry_adder(4)
                        : which == 1 ? gen::sram_array(4, 6)
                                     : gen::logic_soup(120, 31);
  cells::CellLibrary lib;
  Netlist pattern = lib.pattern(cell);

  MatchOptions opts;
  opts.phase1.keep_labels = true;
  SubgraphMatcher matcher(pattern, host.netlist, opts);
  MatchReport report = matcher.find_all();
  ASSERT_TRUE(report.phase1.feasible);
  ASSERT_FALSE(report.instances.empty());
  const CircuitGraph& sg = matcher.pattern_graph();
  const CircuitGraph& gg = matcher.host_graph();

  for (const SubcircuitInstance& inst : report.instances) {
    for (Vertex v = 0; v < sg.vertex_count(); ++v) {
      if (sg.is_special(v) || !report.phase1.pattern_valid[v]) continue;
      Vertex image;
      if (sg.is_device(v)) {
        image = gg.vertex_of(inst.device_image[sg.device_of(v).index()]);
      } else {
        image = gg.vertex_of(inst.net_image[sg.net_of(v).index()]);
      }
      EXPECT_EQ(report.phase1.pattern_labels[v],
                report.phase1.host_labels[image])
          << "invariant (1) broken at " << sg.vertex_name(v);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, LabelInvariant1,
    ::testing::Values(Workload{"fulladder", 0}, Workload{"xor2", 0},
                      Workload{"nand2", 0}, Workload{"sram6t", 1},
                      Workload{"inv", 1}, Workload{"aoi21", 2},
                      Workload{"mux2", 2}, Workload{"dff", 2}),
    [](const auto& param_info) {
      return std::string(param_info.param.cell) + "_w" +
             std::to_string(param_info.param.which);
    });

TEST(LabelInvariant2, ImagesShareLabelsAndSafetyEveryPass) {
  // Run the paper's worked-example-sized problem with a trace and check
  // that, for the successful candidate, every traced pass gives equal
  // labels and equal safety to each matched (s, image) pair.
  gen::Generated host = gen::ripple_carry_adder(2);
  cells::CellLibrary lib;
  Netlist pattern = lib.pattern("xor2");

  Phase2Trace trace;
  MatchOptions opts;
  opts.trace = &trace;
  SubgraphMatcher matcher(pattern, host.netlist, opts);
  MatchReport report = matcher.find_all();
  ASSERT_GE(report.count(), 1u);
  const CircuitGraph& sg = matcher.pattern_graph();
  const CircuitGraph& gg = matcher.host_graph();

  // Map pattern vertex -> host vertex for the first instance.
  const SubcircuitInstance& inst = report.instances.front();
  std::map<Vertex, Vertex> image;
  for (Vertex v = 0; v < sg.vertex_count(); ++v) {
    if (sg.is_special(v)) continue;
    image[v] = sg.is_device(v)
                   ? gg.vertex_of(inst.device_image[sg.device_of(v).index()])
                   : gg.vertex_of(inst.net_image[sg.net_of(v).index()]);
  }

  // Collect per (candidate, pass): vertex -> (label, safe) on both sides.
  struct Snap {
    std::map<Vertex, std::pair<Label, bool>> s, g;
  };
  std::map<std::pair<std::size_t, std::size_t>, Snap> snaps;
  for (const auto& e : trace.entries) {
    Snap& snap = snaps[{e.candidate, e.pass}];
    auto& side = e.host ? snap.g : snap.s;
    side[e.vertex] = {e.label, e.safe || e.matched};
  }

  // Find candidates whose FINAL pass fully matches our instance's key
  // mapping; check invariant (2) on all of that candidate's passes.
  std::size_t checked = 0;
  for (const auto& [key, snap] : snaps) {
    // Candidate attempt matches if every traced s-vertex's image is traced
    // with the same label.
    bool belongs = true;
    for (const auto& [sv, info] : snap.s) {
      auto it = image.find(sv);
      if (it == image.end()) continue;
      auto git = snap.g.find(it->second);
      if (git == snap.g.end()) {
        belongs = false;
        break;
      }
    }
    if (!belongs) continue;
    // Tentatively treat this snapshot as "on the successful path" only if
    // labels agree for every traced pair — which is exactly invariant (2).
    // To avoid assuming what we test, anchor on the key vertex instead:
    Vertex key_vertex = report.phase1.key;
    auto sit = snap.s.find(key_vertex);
    auto git = snap.g.find(image[key_vertex]);
    if (sit == snap.s.end() || git == snap.g.end()) continue;
    if (sit->second.first != git->second.first) continue;  // other candidate
    for (const auto& [sv, info] : snap.s) {
      auto img = image.find(sv);
      if (img == image.end()) continue;
      auto g2 = snap.g.find(img->second);
      if (g2 == snap.g.end()) continue;  // image not yet considered
      EXPECT_EQ(info.first, g2->second.first)
          << "labels diverge at " << sg.vertex_name(sv) << " pass "
          << key.second;
      EXPECT_EQ(info.second, g2->second.second)
          << "safety diverges at " << sg.vertex_name(sv) << " pass "
          << key.second;
      ++checked;
    }
  }
  EXPECT_GT(checked, 20u);  // the invariant was actually exercised
}

}  // namespace
}  // namespace subg
