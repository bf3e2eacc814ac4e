// Experiment E10 — sharded matching on a region-decomposed million-device
// SoC (ISSUE 10 / DESIGN.md §11).
//
// The sharding claim under test: decomposing the host into fanout-bounded
// regions changes the Phase I sweep SCHEDULE — per-shard lanes, a round-0
// structural prefilter that bulk-skips dead regions — but never the result.
// Over a ~1M-device tiled SoC (gen::soc_grid: 512 tiles x 326 units of
// nand2+inv, a shared 8-net bus, and a 1024-cell res/diode pad ring) this
// bench
//
//  * runs the nand2 find MONOLITHICALLY (row "soc_1m"),
//  * runs it SHARDED at the default 65536-device region target (row
//    "soc_1m/shard"), and
//  * re-runs the sharded find at --jobs=8,
//
// then asserts all three reports are byte-identical (report::to_json with
// the wall-clock seconds zeroed) and exits 1 on any divergence. The pad
// ring guarantees the prefilter has real work: a pad shard holds only
// res/diode devices and degree-1/3 nets, which share no round-0 label with
// a CMOS nand2 pattern, so shards_prefilter_rejects must be > 0 — the CI
// baseline gates that exactly, alongside every shared match counter.
// 512 tiles (not fewer, bigger ones) so the bus nets' fanout of
// 512/8 + 1 = 65 crosses the default 64-pin anchor threshold — the bus is
// a boundary-anchor lane, not part of any region.
//
// Timings (advisory): per-row Phase I/II wall clock, monolithic vs sharded.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_common.hpp"

namespace subg::bench {
namespace {

/// report::to_json with the wall-clock members zeroed — the byte-identity
/// comparand (the same idiom the shard/core equivalence tests pin down).
std::string report_fingerprint(MatchReport report) {
  report.phase1_seconds = 0;
  report.phase2_seconds = 0;
  return report::to_json(report).dump();
}

struct ShardRun {
  MatchRow row;
  std::string fingerprint;
};

ShardRun run_soc(const std::string& row_name, const Netlist& host,
                 const Netlist& pattern, std::size_t expected,
                 std::size_t shard_target, std::size_t jobs) {
  SessionOptions so;
  so.shard_target_devices = shard_target;
  HostSession session = HostSession::build(host, so);
  ShardRun out;
  MatchReport report;
  out.row = run_match_in_session(row_name, session, "nand2", pattern,
                                 expected, jobs, Phase2Filter::kPaths,
                                 &report);
  out.fingerprint = report_fingerprint(std::move(report));
  return out;
}

void run(cli::Format format, bool quick) {
  // The quick workload IS the scale workload: 512*326*6 = 1,001,472 core
  // transistors (+ pads + bus drivers), placed nand2 = 166,912. The full
  // run only adds a per-jobs scaling sweep on top.
  const std::uint64_t tiles = 512;
  const std::uint64_t units = 326;
  const std::uint64_t pads = 1024;
  gen::Generated g = gen::soc_grid(tiles, units, pads);
  cells::CellLibrary lib;
  const Netlist& pattern = lib.pattern("nand2");
  const std::size_t expected = g.placed_count("nand2");
  const std::size_t shard_target = std::size_t{1} << 16;

  const ShardRun mono =
      run_soc("soc_1m", g.netlist, pattern, expected, 0, 1);
  const ShardRun sharded =
      run_soc("soc_1m/shard", g.netlist, pattern, expected, shard_target, 1);
  const ShardRun sharded_j8 =
      run_soc("soc_1m/shard/j8", g.netlist, pattern, expected, shard_target,
              8);

  const bool identical = mono.fingerprint == sharded.fingerprint &&
                         mono.fingerprint == sharded_j8.fingerprint;
  const bool prefilter_fired = sharded.row.shards_prefilter_rejects > 0;

  // Gated rows: the monolithic and sharded (jobs=1) runs. The jobs=8 run
  // exists for the identity check only — its counters equal the jobs=1 row
  // by the determinism contract, so gating it would add no information.
  std::vector<MatchRow> rows = {mono.row, sharded.row};

  std::vector<ScalingRow> scaling;
  if (!quick) {
    SessionOptions so;
    so.shard_target_devices = shard_target;
    // jobs_scaling builds its own sessions; run the sweep sharded by hand.
    for (std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                             ThreadPool::default_jobs()}) {
      HostSession session = HostSession::build(g.netlist, so);
      MatchOptions opts;
      opts.jobs = jobs;
      ScalingRow srow;
      srow.jobs = jobs;
      Timer timer;
      MatchReport r = find_in_session(pattern, session, opts);
      srow.ms = timer.seconds() * 1e3;
      srow.found = r.count();
      scaling.push_back(srow);
    }
    for (ScalingRow& srow : scaling) {
      srow.speedup = scaling.front().ms / srow.ms;
    }
  }

  if (format == cli::Format::kJson) {
    write_quick_doc(
        "bench_shard", "E10", quick, rows, counters_json(rows),
        [&](report::Document& doc) {
          doc.set("sharded_matches_monolithic", identical);
          doc.set("prefilter_fired", prefilter_fired);
        },
        [&](report::Document& doc) {
          if (!quick) {
            doc.set("scaling",
                    scaling_json("nand2 in soc_1m (sharded)", scaling));
          }
        });
  } else {
    std::printf("E10: sharded vs monolithic matching on a %s-device SoC\n\n",
                with_commas(static_cast<long long>(
                    g.netlist.device_count())).c_str());
    print_rows(rows);
    std::printf("\nshards: total %zu, skipped %zu, prefilter rejects %zu\n",
                sharded.row.shards_total, sharded.row.shards_skipped,
                sharded.row.shards_prefilter_rejects);
    std::printf("sharded reports %s monolithic (jobs 1 and 8)\n",
                identical ? "MATCH" : "DIVERGED FROM");
    std::printf("round-0 prefilter %s\n",
                prefilter_fired ? "fired (pad shard rejected)"
                                : "DID NOT FIRE");
    if (!quick) print_scaling("nand2 in soc_1m (sharded)", scaling);
  }
  if (!identical || !prefilter_fired) std::exit(1);
}

}  // namespace
}  // namespace subg::bench

int main(int argc, char** argv) {
  subg::cli::Format format = subg::cli::Format::kText;
  bool quick = false;
  if (int code = subg::bench::parse_bench_args("bench_shard", argc, argv,
                                               &format, &quick)) {
    return code;
  }
  subg::bench::run(format, quick);
  return 0;
}
