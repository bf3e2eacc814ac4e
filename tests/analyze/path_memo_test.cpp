// The host path-label memo (analyze::HostPathLabels).
//
// Lazy ≡ eager: every anchor the memo counts on demand, in any query order
// and from any number of threads, equals the eager build_path_labels count
// over the same host — on generated soups, the Fig 5 parallel banks and
// rings, and the ring decoys only the path labels can refute. Sessions
// count nothing when they are built. And finds that share one session's
// memo from several threads, racing an extract at --jobs=8 whose lanes
// share each tier's memo, report byte-identically to their --jobs=1 runs.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "../match/test_circuits.hpp"
#include "analyze/analyze.hpp"
#include "cells/cells.hpp"
#include "extract/extract.hpp"
#include "gen/generators.hpp"
#include "report/document.hpp"
#include "session/session.hpp"

namespace subg {
namespace {

using test::Cmos3;

/// Host closed walks of `steps` steps from `anchor` through nets of degree
/// `d`, by the plain forward DP over the whole walk on host-sized arrays:
/// an independent check of the half-length form the analyzer uses.
std::uint64_t reference_walks(const CircuitGraph& g, Vertex anchor,
                              std::uint32_t d, std::size_t steps) {
  const auto allowed = [&](Vertex v) {
    return g.is_device(v) || g.degree(v) == d;
  };
  if (!allowed(anchor)) return 0;
  std::vector<std::uint64_t> cur(g.vertex_count(), 0);
  cur[anchor] = 1;
  for (std::size_t step = 0; step < steps; ++step) {
    std::vector<std::uint64_t> next(g.vertex_count(), 0);
    for (Vertex v = 0; v < g.vertex_count(); ++v) {
      if (cur[v] == 0) continue;
      for (const Vertex w : g.neighbors(v)) {
        if (allowed(w)) next[w] += cur[v];
      }
    }
    cur.swap(next);
  }
  return cur[anchor];
}

/// Every vertex's memo counts equal the eager host build, and on small
/// hosts the reference DP too. Anchors are queried back to front and then
/// again, so both the counting and the published read are checked, in an
/// order unlike the eager loop's.
void expect_memo_matches_eager(const Netlist& host, const std::string& what,
                               bool reference = true) {
  const CircuitGraph graph(host);
  const analyze::PathLabels eager =
      analyze::build_path_labels(graph, host, analyze::Side::kHost);
  const analyze::HostPathLabels memo(graph);
  EXPECT_EQ(memo.filled_count(), 0u) << what;
  analyze::WalkScratch scratch;
  const auto& degrees = analyze::PathLabels::kTrackedDegrees;
  for (int round = 0; round < 2; ++round) {
    for (Vertex v = static_cast<Vertex>(graph.vertex_count()); v-- > 0;) {
      const analyze::HostPathLabels::Counts counts = memo.counts(v, scratch);
      for (std::size_t c = 0; c < degrees.size(); ++c) {
        ASSERT_EQ(counts[c], eager.count(v, c))
            << what << " vertex " << graph.vertex_name(v) << " class " << c;
        if (reference && round == 0) {
          ASSERT_EQ(counts[c], reference_walks(graph, v, degrees[c],
                                               eager.walk_steps))
              << what << " vertex " << graph.vertex_name(v) << " class " << c;
        }
      }
    }
  }
  EXPECT_EQ(memo.filled_count(), graph.vertex_count()) << what;
}

TEST(HostPathMemo, LazyEqualsEagerOnSoups) {
  for (const std::uint64_t seed : {3u, 8u, 99u}) {
    expect_memo_matches_eager(gen::logic_soup(300, seed).netlist,
                              "soup " + std::to_string(seed),
                              /*reference=*/false);
  }
  expect_memo_matches_eager(gen::logic_soup(40, 1).netlist, "small soup");
}

TEST(HostPathMemo, LazyEqualsEagerOnFig5BanksAndRings) {
  Cmos3 c;
  for (const int k : {2, 3, 4, 6}) {
    Netlist host = c.netlist("host");
    for (int gi = 0; gi < 4; ++gi) {
      NetId n1 = host.add_net("a" + std::to_string(gi));
      NetId n2 = host.add_net("b" + std::to_string(gi));
      NetId g = host.add_net("g" + std::to_string(gi));
      for (int i = 0; i < k; ++i) host.add_device(c.nmos, {n1, g, n2});
    }
    expect_memo_matches_eager(host, "bank" + std::to_string(k));
  }
  for (const int k : {4, 6}) {
    Netlist host = c.netlist("host");
    for (int gi = 0; gi < 4; ++gi) c.ring(host, k, "t" + std::to_string(gi) + "_");
    for (int gi = 0; gi < 2; ++gi) {
      c.ring(host, k, "d" + std::to_string(gi) + "_", true);
    }
    expect_memo_matches_eager(host, "fat ring" + std::to_string(k));
  }
}

TEST(HostPathMemo, LazyEqualsEagerOnRingDecoys) {
  Cmos3 c;
  Netlist host = c.netlist("host");
  for (int gi = 0; gi < 2; ++gi) c.ring(host, 6, "t" + std::to_string(gi) + "_");
  for (int gi = 0; gi < 3; ++gi) c.ring(host, 12, "d" + std::to_string(gi) + "_");
  expect_memo_matches_eager(host, "decoys");
}

TEST(HostPathMemo, ThreadsFillingOneMemoAgreeWithEager) {
  // Every thread queries every anchor, so most anchors are counted by two
  // or more threads at once: only one publishes, all must agree.
  const Netlist host = gen::logic_soup(300, 5).netlist;
  const CircuitGraph graph(host);
  const analyze::PathLabels eager =
      analyze::build_path_labels(graph, host, analyze::Side::kHost);
  const analyze::HostPathLabels memo(graph);
  std::vector<std::vector<analyze::HostPathLabels::Counts>> seen(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&, t] {
      analyze::WalkScratch scratch;
      for (Vertex v = 0; v < graph.vertex_count(); ++v) {
        seen[t].push_back(memo.counts(v, scratch));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& counts : seen) {
    ASSERT_EQ(counts.size(), graph.vertex_count());
    for (Vertex v = 0; v < graph.vertex_count(); ++v) {
      for (std::size_t c = 0; c < counts[v].size(); ++c) {
        ASSERT_EQ(counts[v][c], eager.count(v, c)) << "vertex " << v;
      }
    }
  }
  EXPECT_EQ(memo.filled_count(), graph.vertex_count());
}

TEST(HostPathMemo, ZeroPatternCountsNeverReadTheHost) {
  // inv has no internal net, so no admissible pattern walk: a whole find
  // refutes nothing by path labels and counts no host anchor.
  cells::CellLibrary lib;
  HostSession session = HostSession::build(gen::logic_soup(120, 4).netlist);
  const MatchReport report = find_in_session(lib.pattern("inv"), session);
  EXPECT_GT(report.count(), 0u);
  EXPECT_EQ(session.path_labels().filled_count(), 0u);
}

/// Serialized report with wall-clock zeroed: the byte-identity currency.
std::string report_json(MatchReport report) {
  report.phase1_seconds = 0;
  report.phase2_seconds = 0;
  return report::to_json(report).dump();
}

/// The extract report (wall clock zeroed) and the gate netlist, device by
/// device, as one string.
std::string extract_text(extract::ExtractResult result) {
  for (auto& cell : result.report.cells) cell.seconds = 0;
  std::string out = report::to_json(result.report).dump() + "\n";
  const Netlist& nl = result.netlist;
  for (std::uint32_t d = 0; d < nl.device_count(); ++d) {
    const DeviceId id(d);
    out += nl.device_name(id) + " " + nl.device_type_info(id).name;
    for (const NetId pin : nl.device_pins(id)) out += " " + nl.net_name(pin);
    out += "\n";
  }
  return out;
}

TEST(HostPathMemo, SharedMemoReportsMatchSerialRuns) {
  cells::CellLibrary lib;
  const gen::Generated soup = gen::logic_soup(300, 7);
  const std::vector<std::string> finds = {"nand2", "nor2", "aoi21", "oai21",
                                          "nand3", "aoi22"};
  std::vector<extract::LibraryCell> library;
  for (const char* cell : {"aoi22", "aoi21", "oai21", "nand3", "nand2",
                           "nor2", "inv"}) {
    library.push_back(extract::LibraryCell{cell, lib.pattern(cell)});
  }

  // Patterns are flattened up front: the library builds cells lazily.
  std::vector<Netlist> patterns;
  for (const std::string& cell : finds) patterns.push_back(lib.pattern(cell));

  // References: each find on a session of its own at one lane, and the
  // extract at one lane.
  std::vector<std::string> expected;
  for (const Netlist& pattern : patterns) {
    HostSession own = HostSession::build(soup.netlist);
    expected.push_back(report_json(find_in_session(pattern, own)));
  }
  HostSession extract_host = HostSession::build(soup.netlist);
  extract::ExtractOptions serial;
  const std::string expected_extract =
      extract_text(extract::extract_gates(extract_host, library, serial));

  HostSession shared = HostSession::build(soup.netlist);
  std::vector<std::string> got(finds.size());
  std::string got_extract;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < finds.size(); ++i) {
    threads.emplace_back([&, i] {
      MatchOptions options;
      options.jobs = 2;
      got[i] = report_json(find_in_session(patterns[i], shared, options));
    });
  }
  threads.emplace_back([&] {
    extract::ExtractOptions parallel;
    parallel.match.jobs = 8;
    got_extract =
        extract_text(extract::extract_gates(shared, library, parallel));
  });
  for (std::thread& t : threads) t.join();

  for (std::size_t i = 0; i < finds.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << finds[i];
  }
  EXPECT_EQ(got_extract, expected_extract);
  EXPECT_GT(shared.path_labels().filled_count(), 0u);
}

}  // namespace
}  // namespace subg
