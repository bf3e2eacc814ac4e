// Worked ECO example: patch a loaded host in place instead of reloading.
//
// An engineering change order arrives as a small edit script against a
// host you have already searched. The naive flow reparses the netlist,
// reflattens the graph, and relabels every vertex from scratch; the
// HostSession flow applies the delta in place and recomputes only the
// labels inside the edit's dirty cone while producing byte-identical
// match reports. (On small hosts the cone of one edit can already reach
// the whole host; bench_eco measures a patch against a cold rebuild.)
//
//   1. build a HostSession over the host netlist;
//   2. search it (this also warms the session's label cache);
//   3. apply a parsed NetlistDelta — atomically: an inapplicable script
//      leaves the session exactly as it was;
//   4. search again; only the patched region is relabeled.
#include <cstdio>

#include "cells/cells.hpp"
#include "session/delta.hpp"
#include "session/session.hpp"
#include "spice/spice.hpp"
#include "util/check.hpp"

int main() {
  using namespace subg;

  // The host: two NAND2 gates and an inverter sharing the rails.
  const char* deck = R"(
* two nands feeding an inverter
.global vdd gnd
.subckt nand2 a b y
mp0 y a vdd vdd pmos
mp1 y b vdd vdd pmos
mn0 y a x  gnd nmos
mn1 x b gnd gnd nmos
.ends

x0 in0 in1 n0 nand2
x1 n0 in2 n1 nand2
mp2 out n1 vdd vdd pmos
mn2 out n1 gnd gnd nmos
.end
)";

  // 1. One session owns everything repeated searches share: the circuit
  //    graph, the Phase I label cache, and the host path-label memo.
  HostSession session = HostSession::build(spice::read_flat(deck));
  std::printf("host: %zu devices, %zu nets\n",
              session.netlist().device_count(), session.netlist().net_count());

  // 2. First search — also warms the session's label cache.
  cells::CellLibrary lib;
  Netlist pattern = lib.pattern("nand2");
  MatchReport before = find_in_session(pattern, session);
  std::printf("before the ECO: %zu nand2 instance(s)\n", before.count());

  // 3. The ECO, in the JSON-lines delta grammar: one more nand2 gate off
  //    the inverter output, and a rename for the revised net. The same
  //    text works as a --delta=FILE script or a serve `patch` request.
  const char* eco = R"(
# rev B: nand the inverter output against in0
{"op": "add_device", "type": "pmos", "name": "rp0", "nets": ["rev", "out", "vdd", "vdd"]}
{"op": "add_device", "type": "pmos", "name": "rp1", "nets": ["rev", "in0", "vdd", "vdd"]}
{"op": "add_device", "type": "nmos", "name": "rn0", "nets": ["rev", "out", "rx", "gnd"]}
{"op": "add_device", "type": "nmos", "name": "rn1", "nets": ["rx", "in0", "gnd", "gnd"]}
{"op": "rename_net", "from": "n1", "to": "n1_revb"}
)";
  ApplyStats stats = session.apply(parse_delta(eco));
  // invalidated_labels counts cache entries across all Phase I rounds, so
  // it can exceed the vertex count — the point is it scales with the EDIT.
  std::printf("patch: %llu device ops, %llu renames; "
              "%llu cached labels recomputed (host has %zu vertices), "
              "patch #%llu\n",
              static_cast<unsigned long long>(stats.patched_devices),
              static_cast<unsigned long long>(stats.renames),
              static_cast<unsigned long long>(stats.invalidated_labels),
              session.graph().vertex_count(),
              static_cast<unsigned long long>(session.patch_count()));

  // 4. The next search sees the patched host — identical, byte for byte,
  //    to a cold rebuild over the edited netlist.
  MatchReport after = find_in_session(pattern, session);
  std::printf("after the ECO: %zu nand2 instance(s)\n", after.count());

  // Atomicity: an inapplicable script (net "out" still has pins) changes
  // nothing — not even the ops that preceded the failing line.
  try {
    (void)session.apply(parse_delta(
        "{\"op\": \"add_net\", \"name\": \"tmp\"}\n"
        "{\"op\": \"remove_net\", \"name\": \"out\"}\n"));
  } catch (const Error& e) {
    std::printf("rejected ECO rolls back: %s\n", e.what());
  }
  SUBG_CHECK(!session.netlist().find_net("tmp").has_value());
  std::printf("session still at patch #%llu, %zu devices\n",
              static_cast<unsigned long long>(session.patch_count()),
              session.netlist().device_count());
  return 0;
}
