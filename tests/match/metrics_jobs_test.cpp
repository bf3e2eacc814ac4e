// The sharded-metrics determinism contract: counters that measure search
// work (not scheduling) merge to identical totals at every --jobs value,
// because shard merging is commutative addition and the candidate sweep does
// the same work regardless of lane count. Runs under the `concurrency` ctest
// label so the TSan CI job covers lanes recording into one registry.
#include "cells/cells.hpp"
#include "extract/extract.hpp"
#include "gen/generators.hpp"
#include "gtest/gtest.h"
#include "match/matcher.hpp"
#include "obs/metrics.hpp"

namespace subg {
namespace {

obs::Snapshot run_with_jobs(const Netlist& pattern, const Netlist& host,
                            std::size_t jobs, std::size_t* instances) {
  obs::Metrics metrics;
  MatchOptions options;
  options.jobs = jobs;
  options.metrics = &metrics;
  SubgraphMatcher matcher(pattern, host, options);
  MatchReport report = matcher.find_all();
  EXPECT_TRUE(report.status.complete());
  *instances = report.count();
  return metrics.collect();
}

TEST(MetricsJobs, DeterministicCountersIdenticalAcrossLaneCounts) {
  cells::CellLibrary lib;
  gen::Generated g = gen::array_multiplier(8);
  Netlist pattern = lib.pattern("fulladder");

  std::size_t serial_instances = 0;
  std::size_t parallel_instances = 0;
  obs::Snapshot serial = run_with_jobs(pattern, g.netlist, 1,
                                       &serial_instances);
  obs::Snapshot parallel = run_with_jobs(pattern, g.netlist, 8,
                                         &parallel_instances);
  EXPECT_EQ(serial_instances, parallel_instances);

  // Work counters: identical merged totals whether recorded by one thread
  // or by eight lanes into different shards.
  for (const char* name :
       {"phase1.rounds", "phase1.candidates", "phase2.seeds_tried",
        "phase2.seeds_matched", "phase2.passes", "phase2.bindings",
        "phase2.ambiguity_guesses", "phase2.backtracks", "match.instances"}) {
    EXPECT_EQ(serial.counter(name), parallel.counter(name))
        << "counter " << name << " diverged between jobs=1 and jobs=8";
  }

  // Timing quantities are scheduling-dependent; require sanity, not
  // equality: every gauge and span total must be finite and non-negative.
  for (const auto& [name, value] : parallel.gauges) {
    EXPECT_GE(value, 0.0) << "gauge " << name;
  }
  for (const auto& [name, span] : parallel.spans) {
    EXPECT_GT(span.count, 0u) << "span " << name;
    EXPECT_GE(span.seconds, 0.0) << "span " << name;
  }
}

TEST(MetricsJobs, ExtractGaugesIdenticalAcrossLaneCounts) {
  // An extract sweep runs one matcher per cell and tier, and at jobs > 1
  // the cells of a tier record from different lanes. Every gauge is a
  // high-water mark over all of them, so the snapshot's gauges cannot
  // depend on which lane matched which cell, or which matched last.
  cells::CellLibrary lib;
  std::vector<extract::LibraryCell> library;
  for (const char* name : {"xor2", "aoi21", "nand3", "nand2", "nor2", "inv"}) {
    library.push_back(extract::LibraryCell{name, lib.pattern(name)});
  }
  gen::Generated g = gen::logic_soup(300, 77);

  auto gauges_at = [&](std::size_t jobs) {
    obs::Metrics metrics;
    extract::ExtractOptions options;
    options.match.jobs = jobs;
    options.match.metrics = &metrics;
    extract::ExtractResult result =
        extract::extract_gates(g.netlist, library, options);
    EXPECT_TRUE(result.report.status.complete());
    return metrics.collect().gauges;
  };
  const std::map<std::string, double> serial = gauges_at(1);
  const std::map<std::string, double> parallel = gauges_at(4);
  for (const char* name : {"csr.bytes", "csr.arena_bytes",
                           "phase1.max_candidates", "phase2.max_guess_depth"}) {
    EXPECT_EQ(serial.count(name), 1u) << "gauge " << name;
  }
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace subg
