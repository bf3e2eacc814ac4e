// Shared hand-built circuits for the matcher tests.
//
// Gates here use the 3-pin MOS catalog (d,g,s — no bulk), matching the
// paper's figures: with 4-pin transistors the bulk rail connection already
// disambiguates Vdd/GND and the Fig 7 inverter-in-NAND phenomenon cannot
// occur.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace subg::test {

struct Cmos3 {
  std::shared_ptr<const DeviceCatalog> cat = DeviceCatalog::cmos3();
  DeviceTypeId nmos = cat->require("nmos");
  DeviceTypeId pmos = cat->require("pmos");

  [[nodiscard]] Netlist netlist(std::string name = "") const {
    return Netlist(cat, std::move(name));
  }

  void inv(Netlist& nl, NetId a, NetId y, NetId vdd, NetId gnd) const {
    nl.add_device(pmos, {y, a, vdd});
    nl.add_device(nmos, {y, a, gnd});
  }

  void nand2(Netlist& nl, NetId a, NetId b, NetId y, NetId vdd,
             NetId gnd) const {
    nl.add_device(pmos, {y, a, vdd});
    nl.add_device(pmos, {y, b, vdd});
    NetId x = nl.add_net();
    nl.add_device(nmos, {y, a, x});
    nl.add_device(nmos, {x, b, gnd});
  }

  void nor2(Netlist& nl, NetId a, NetId b, NetId y, NetId vdd,
            NetId gnd) const {
    NetId u = nl.add_net();
    nl.add_device(pmos, {u, a, vdd});
    nl.add_device(pmos, {y, b, u});
    nl.add_device(nmos, {y, a, gnd});
    nl.add_device(nmos, {y, b, gnd});
  }

  /// Inverter pattern; rails global when `global_rails`.
  [[nodiscard]] Netlist inv_pattern(bool global_rails) const {
    Netlist nl = netlist("inv");
    NetId a = nl.add_net("a"), y = nl.add_net("y");
    NetId vdd = nl.add_net("vdd"), gnd = nl.add_net("gnd");
    inv(nl, a, y, vdd, gnd);
    nl.mark_port(a);
    nl.mark_port(y);
    if (global_rails) {
      nl.mark_global(vdd);
      nl.mark_global(gnd);
    } else {
      nl.mark_port(vdd);
      nl.mark_port(gnd);
    }
    return nl;
  }

  /// `devices` parallel nmos between the same nets n1, g, n2 (Fig 5):
  /// maximally symmetric, so exhaustive Phase II has a factorial guess
  /// space. `ports` marks all three nets external.
  [[nodiscard]] Netlist parallel_bank(std::size_t devices,
                                      const std::string& name,
                                      bool ports) const {
    Netlist nl = netlist(name);
    NetId n1 = nl.add_net("n1"), n2 = nl.add_net("n2"), g = nl.add_net("g");
    for (std::size_t i = 0; i < devices; ++i) nl.add_device(nmos, {n1, g, n2});
    if (ports) {
      for (NetId p : {n1, n2, g}) nl.mark_port(p);
    }
    return nl;
  }

  /// Ring of `n` identical pass transistors sharing the gate net
  /// prefix+"gate"; ring nets named prefix+i. Fully symmetric, so
  /// refinement alone can never finish. `fat` hangs one extra device off
  /// ring net 1: a decoy the match hypothesis fails only after a full
  /// refinement.
  void ring(Netlist& nl, int n, const std::string& prefix,
            bool fat = false) const {
    NetId gate = nl.add_net(prefix + "gate");
    std::vector<NetId> nodes;
    for (int i = 0; i < n; ++i) {
      nodes.push_back(nl.add_net(prefix + std::to_string(i)));
    }
    for (int i = 0; i < n; ++i) {
      nl.add_device(nmos, {nodes[i], gate, nodes[(i + 1) % n]});
    }
    if (fat) {
      NetId qg = nl.add_net(prefix + "qg"), qd = nl.add_net(prefix + "qd");
      nl.add_device(nmos, {nodes[1], qg, qd});
    }
  }

  /// Closed ring pattern: every ring net internal, only the gate external.
  [[nodiscard]] Netlist ring_pattern(int n) const {
    Netlist nl = netlist("ring_p");
    ring(nl, n, "r");
    nl.mark_port(*nl.find_net("rgate"));
    return nl;
  }

  /// NAND2 pattern — the paper's Fig 1 subgraph S when `global_rails` is
  /// false (vdd/gnd are plain external nets there).
  [[nodiscard]] Netlist nand2_pattern(bool global_rails) const {
    Netlist nl = netlist("nand2");
    NetId a = nl.add_net("a"), b = nl.add_net("b"), y = nl.add_net("y");
    NetId vdd = nl.add_net("vdd"), gnd = nl.add_net("gnd");
    nand2(nl, a, b, y, vdd, gnd);
    nl.mark_port(a);
    nl.mark_port(b);
    nl.mark_port(y);
    if (global_rails) {
      nl.mark_global(vdd);
      nl.mark_global(gnd);
    } else {
      nl.mark_port(vdd);
      nl.mark_port(gnd);
    }
    return nl;
  }
};

}  // namespace subg::test
