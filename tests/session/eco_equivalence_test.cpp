// Patched-session vs cold-rebuild equivalence — the HostSession invariant.
//
// The contract (session/session.hpp): after apply(), a session is
// indistinguishable from HostSession::build over the edited netlist. Not
// "same matches" — byte-identical serialized reports, at every jobs
// value, no matter how the label cache was warmed before the patch. These
// tests drive that claim with 100+ seeded random delta scripts over the
// Fig-5-shaped generator workloads; the eco-gate CI leg runs them under
// ASan/UBSan (ctest -L eco) and the TSan leg picks them up through the
// concurrency label (jobs=8 finds against the shared rebased cache).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "cells/cells.hpp"
#include "gen/generators.hpp"
#include "match/matcher.hpp"
#include "report/document.hpp"
#include "session/delta.hpp"
#include "session/session.hpp"

namespace subg {
namespace {

/// Serialized report with the wall-clock members zeroed: byte equality of
/// this string is the equivalence claim.
std::string report_json(MatchReport report) {
  report.phase1_seconds = 0;
  report.phase2_seconds = 0;
  return report::to_json(report).dump();
}

/// A seeded random delta of ~`edits` ops against `base`, applicable by
/// construction: every candidate op is validated against a working copy
/// before it is emitted, so the generator can mix inserts, removals,
/// renames, and scratch nets freely without ever producing a delta the
/// session would reject. mt19937_64 + modulo keeps the scripts identical
/// on every platform (std distributions are not portable).
NetlistDelta random_delta(const Netlist& base, std::uint64_t seed,
                          std::size_t edits) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  Netlist work = base;
  NetlistDelta delta;
  auto emit = [&](DeltaOp op) {
    op.line = delta.ops.size() + 1;
    NetlistDelta one;
    one.ops.push_back(op);
    apply_delta(work, one);
    delta.ops.push_back(std::move(op));
  };
  const std::uint32_t fet_pins =
      work.catalog().type(work.catalog().require("nmos")).pin_count();
  auto random_net = [&] {
    return work.net_name(
        NetId(static_cast<std::uint32_t>(rng() % work.net_count())));
  };
  std::size_t counter = 0;
  const std::string tag = "eco" + std::to_string(seed) + "_";
  for (std::size_t k = 0; k < edits; ++k) {
    const std::uint64_t pick = rng() % 8;
    if (pick < 3) {
      // Insert an inverter driven by a random existing net.
      const std::string in = random_net();
      const std::string out = tag + "w" + std::to_string(counter++);
      for (const char* type : {"pmos", "nmos"}) {
        DeltaOp op;
        op.kind = DeltaOpKind::kAddDevice;
        op.type = type;
        op.name = tag + "m" + std::to_string(counter++);
        op.nets = {out, in};
        while (op.nets.size() < fet_pins) {
          op.nets.emplace_back(type[0] == 'p' ? "vdd" : "gnd");
        }
        emit(std::move(op));
      }
    } else if (pick == 3 && work.device_count() > 8) {
      DeltaOp op;
      op.kind = DeltaOpKind::kRemoveDevice;
      op.name = work.device_name(
          DeviceId(static_cast<std::uint32_t>(rng() % work.device_count())));
      emit(std::move(op));
    } else if (pick == 4) {
      // Rename a non-global net (renaming a rail is legal but would hash a
      // new special label and zero out the workload's matches).
      for (int tries = 0; tries < 8; ++tries) {
        const NetId n(static_cast<std::uint32_t>(rng() % work.net_count()));
        if (work.is_global(n)) continue;
        DeltaOp op;
        op.kind = DeltaOpKind::kRenameNet;
        op.from = work.net_name(n);
        op.to = tag + "rn" + std::to_string(counter++);
        emit(std::move(op));
        break;
      }
    } else if (pick == 5) {
      DeltaOp op;
      op.kind = DeltaOpKind::kRenameDevice;
      op.from = work.device_name(
          DeviceId(static_cast<std::uint32_t>(rng() % work.device_count())));
      op.to = tag + "rd" + std::to_string(counter++);
      emit(std::move(op));
    } else if (pick == 6) {
      DeltaOp op;
      op.kind = DeltaOpKind::kAddNet;
      op.name = tag + "s" + std::to_string(counter++);
      op.port = (rng() & 1) != 0;
      emit(std::move(op));
    } else {
      // Add-then-remove inside one delta: the net must leave no trace.
      const std::string scratch = tag + "x" + std::to_string(counter++);
      DeltaOp add;
      add.kind = DeltaOpKind::kAddNet;
      add.name = scratch;
      emit(std::move(add));
      DeltaOp remove;
      remove.kind = DeltaOpKind::kRemoveNet;
      remove.name = scratch;
      emit(std::move(remove));
    }
  }
  return delta;
}

struct Workload {
  const char* cell;
  gen::Generated g;
};

std::vector<Workload> fig5_workloads() {
  std::vector<Workload> w;
  w.push_back({"nand2", gen::c17()});
  w.push_back({"fulladder", gen::ripple_carry_adder(6)});
  w.push_back({"nand2", gen::logic_soup(120, 5)});
  w.push_back({"dff", gen::register_file(2, 4)});
  return w;
}

TEST(EcoEquivalence, PatchedEqualsColdOver104SeededScripts) {
  std::vector<Workload> workloads = fig5_workloads();
  cells::CellLibrary lib;
  std::vector<Netlist> patterns;
  for (const Workload& w : workloads) patterns.push_back(lib.pattern(w.cell));

  std::size_t instances_total = 0;
  for (std::uint64_t seed = 0; seed < 104; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Workload& w = workloads[seed % workloads.size()];
    const Netlist& pattern = patterns[seed % workloads.size()];
    const NetlistDelta delta = random_delta(w.g.netlist, seed, 1 + seed % 5);

    MatchOptions opts;
    opts.jobs = (seed % 4) == 2 ? 8 : 1;

    Netlist edited = w.g.netlist;
    apply_delta(edited, delta);
    HostSession cold = HostSession::build(std::move(edited));
    const MatchReport cold_report = find_in_session(pattern, cold, opts);

    HostSession patched = HostSession::build(w.g.netlist);
    // Warm the cache against the BASE host first — the rebase then has
    // rounds to patch, which is exactly the state cold never sees.
    (void)find_in_session(pattern, patched, opts);
    (void)patched.apply(delta);
    const MatchReport patched_report = find_in_session(pattern, patched, opts);

    EXPECT_EQ(report_json(patched_report), report_json(cold_report));
    instances_total += cold_report.instances.size();
  }
  // Guard against vacuous equivalence: the workloads must actually match.
  EXPECT_GT(instances_total, 100u);
}

TEST(EcoEquivalence, SequentialPatchesTrackColdRebuilds) {
  // One long-lived session, ten successive deltas — after every apply the
  // session must equal a cold build of its CURRENT netlist (errors that
  // compound across patches cannot hide behind a single-edit test).
  gen::Generated g = gen::logic_soup(100, 17);
  cells::CellLibrary lib;
  const Netlist& pattern = lib.pattern("nand2");
  MatchOptions opts;
  opts.jobs = 8;

  HostSession session = HostSession::build(g.netlist);
  (void)find_in_session(pattern, session, opts);
  for (std::uint64_t round = 0; round < 10; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const NetlistDelta delta =
        random_delta(session.netlist(), 1000 + round, 2);
    (void)session.apply(delta);
    HostSession cold = HostSession::build(session.netlist());
    EXPECT_EQ(report_json(find_in_session(pattern, session, opts)),
              report_json(find_in_session(pattern, cold, opts)));
  }
  EXPECT_EQ(session.patch_count(), 10u);
}

TEST(EcoEquivalence, PatchedSessionIsJobsInvariant) {
  // The --jobs contract extended to the rebased cache: parallel lanes over
  // a patched session must reproduce the serial report byte for byte.
  gen::Generated g = gen::logic_soup(140, 23);
  cells::CellLibrary lib;
  const Netlist& pattern = lib.pattern("nor2");
  const NetlistDelta delta = random_delta(g.netlist, 77, 4);

  HostSession session = HostSession::build(g.netlist);
  MatchOptions opts;
  (void)find_in_session(pattern, session, opts);
  (void)session.apply(delta);
  opts.jobs = 1;
  const std::string serial =
      report_json(find_in_session(pattern, session, opts));
  opts.jobs = 8;
  const std::string parallel =
      report_json(find_in_session(pattern, session, opts));
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace subg
