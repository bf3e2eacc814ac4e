// HostSession lifecycle: build, configure, apply (atomic or not at all),
// and the cumulative session generation counters behind serve `status` and
// the eco.* metrics.
#include <gtest/gtest.h>

#include <string>

#include "cells/cells.hpp"
#include "gen/generators.hpp"
#include "match/matcher.hpp"
#include "obs/metrics.hpp"
#include "report/document.hpp"
#include "session/delta.hpp"
#include "session/session.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"

namespace subg {
namespace {

/// Serialized report with wall-clock zeroed: the byte-identity currency.
std::string report_json(MatchReport report) {
  report.phase1_seconds = 0;
  report.phase2_seconds = 0;
  return report::to_json(report).dump();
}

/// A nand2 delta: one more gate (4 devices) wired off existing soup nets.
const char* kNandDelta =
    "{\"op\":\"add_device\",\"type\":\"pmos\",\"name\":\"eco_p0\","
    "\"nets\":[\"eco_z\",\"pi0\",\"vdd\",\"vdd\"]}\n"
    "{\"op\":\"add_device\",\"type\":\"pmos\",\"name\":\"eco_p1\","
    "\"nets\":[\"eco_z\",\"pi1\",\"vdd\",\"vdd\"]}\n"
    "{\"op\":\"add_device\",\"type\":\"nmos\",\"name\":\"eco_n0\","
    "\"nets\":[\"eco_z\",\"pi0\",\"eco_x\",\"gnd\"]}\n"
    "{\"op\":\"add_device\",\"type\":\"nmos\",\"name\":\"eco_n1\","
    "\"nets\":[\"eco_x\",\"pi1\",\"gnd\",\"gnd\"]}\n";

class SessionTest : public ::testing::Test {
 protected:
  gen::Generated g = gen::logic_soup(60, 99);
  cells::CellLibrary lib;
  Netlist pattern = lib.pattern("nand2");
};

TEST_F(SessionTest, BuildOwnsTheWholeBundle) {
  HostSession session = HostSession::build(g.netlist);
  EXPECT_EQ(session.netlist().device_count(), g.netlist.device_count());
  EXPECT_EQ(&session.graph().netlist(), &session.netlist());
  EXPECT_EQ(&session.cache().host(), &session.graph());
  // The path-label memo covers the session's graph and counts nothing
  // until a match asks; what it counts equals a cold eager build.
  const analyze::HostPathLabels& memo = session.path_labels();
  EXPECT_EQ(&memo.graph(), &session.graph());
  EXPECT_EQ(memo.filled_count(), 0u);
  const analyze::PathLabels eager = analyze::build_path_labels(
      session.graph(), session.netlist(), analyze::Side::kHost);
  analyze::WalkScratch scratch;
  for (Vertex v = 0; v < session.graph().vertex_count(); ++v) {
    const analyze::HostPathLabels::Counts counts = memo.counts(v, scratch);
    for (std::size_t c = 0; c < counts.size(); ++c) {
      ASSERT_EQ(counts[c], eager.count(v, c)) << "vertex " << v;
    }
  }
  EXPECT_EQ(session.shards(), nullptr);
  EXPECT_EQ(session.patch_count(), 0u);
  EXPECT_EQ(session.totals().patched_devices, 0u);
}

TEST_F(SessionTest, ConfigureWiresTheSharedStructures) {
  HostSession session = HostSession::build(g.netlist);
  MatchOptions opts;
  session.configure(opts);
  EXPECT_EQ(opts.phase1.host_cache, &session.cache());
  EXPECT_EQ(opts.phase1.shards, session.shards());
  EXPECT_EQ(opts.host_path_labels, &session.path_labels());
  // A session-backed find reports byte-identically to a one-shot matcher
  // that builds its own graph, cache and path labels.
  EXPECT_EQ(report_json(find_in_session(pattern, session)),
            report_json(SubgraphMatcher(pattern, g.netlist).find_all()));
}

TEST_F(SessionTest, ApplyPatchesAndTheNextFindSeesIt) {
  HostSession session = HostSession::build(g.netlist);
  const std::size_t before = find_in_session(pattern, session).instances.size();
  const NetlistDelta delta = parse_delta(kNandDelta);
  const ApplyStats stats = session.apply(delta);
  EXPECT_EQ(stats.patched_devices, 4u);
  EXPECT_EQ(stats.patched_nets, 0u);  // implicit nets are not net ops
  EXPECT_EQ(stats.renames, 0u);
  EXPECT_GT(stats.invalidated_labels, 0u);
  EXPECT_EQ(session.patch_count(), 1u);
  EXPECT_EQ(session.netlist().device_count(), g.netlist.device_count() + 4);
  EXPECT_EQ(find_in_session(pattern, session).instances.size(), before + 1);

  // Second patch: rename the gate's output; totals accumulate.
  (void)session.apply(parse_delta(
      "{\"op\":\"rename_net\",\"from\":\"eco_z\",\"to\":\"eco_z2\"}"));
  EXPECT_EQ(session.patch_count(), 2u);
  EXPECT_EQ(session.totals().patched_devices, 4u);
  EXPECT_EQ(session.totals().renames, 1u);
  EXPECT_GE(session.totals().invalidated_labels, stats.invalidated_labels);
}

TEST_F(SessionTest, ApplyIsAtomicOnInapplicableDeltas) {
  HostSession session = HostSession::build(g.netlist);
  const std::string before = report_json(find_in_session(pattern, session));
  // Line 1 applies cleanly; line 2 is inapplicable — the session must not
  // keep line 1's net.
  try {
    (void)session.apply(parse_delta(
        "{\"op\":\"add_net\",\"name\":\"half\"}\n"
        "{\"op\":\"remove_net\",\"name\":\"ghost\"}\n"));
    FAIL() << "expected the delta to be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("delta line 2"), std::string::npos);
  }
  EXPECT_FALSE(session.netlist().find_net("half").has_value());
  EXPECT_EQ(session.patch_count(), 0u);
  EXPECT_EQ(session.totals().patched_nets, 0u);
  EXPECT_EQ(report_json(find_in_session(pattern, session)), before);
}

TEST_F(SessionTest, InjectedPatchFaultRollsBack) {
  if (!fault::kFaultsEnabled) {
    GTEST_SKIP() << "needs -DSUBG_FAULTS=ON";
  }
  HostSession session = HostSession::build(g.netlist);
  const std::string before = report_json(find_in_session(pattern, session));
  const NetlistDelta delta = parse_delta(kNandDelta);
  ASSERT_TRUE(fault::arm("session.patch", 1));
  EXPECT_THROW((void)session.apply(delta), fault::InjectedFault);
  fault::disarm();
  // Byte-identical to before the faulted attempt...
  EXPECT_EQ(session.patch_count(), 0u);
  EXPECT_EQ(session.netlist().device_count(), g.netlist.device_count());
  EXPECT_EQ(report_json(find_in_session(pattern, session)), before);
  // ...and the SAME delta applies cleanly afterwards — which it could not
  // if the faulted attempt had left 'eco_p0' and friends behind.
  const ApplyStats stats = session.apply(delta);
  EXPECT_EQ(stats.patched_devices, 4u);
  EXPECT_EQ(session.patch_count(), 1u);
}

TEST_F(SessionTest, RecordEcoStatsFeedsTheCounters) {
  ApplyStats stats;
  stats.patched_devices = 4;
  stats.patched_nets = 2;
  stats.renames = 1;
  stats.invalidated_labels = 17;
  obs::Metrics metrics;
  record_eco_stats(&metrics, stats);
  record_eco_stats(nullptr, stats);  // null-safe
  const obs::Snapshot snap = metrics.collect();
  EXPECT_EQ(snap.counter("eco.patched_devices"), 4u);
  EXPECT_EQ(snap.counter("eco.patched_nets"), 2u);
  EXPECT_EQ(snap.counter("eco.renames"), 1u);
  EXPECT_EQ(snap.counter("eco.invalidated_labels"), 17u);
  // Patches retain no storage, so nothing is ever compacted; the counter
  // stays in the tree for schema v1 consumers.
  EXPECT_EQ(snap.counter("eco.compactions"), 0u);
  EXPECT_EQ(snap.counters.count("eco.compactions"), 1u);
}

}  // namespace
}  // namespace subg
