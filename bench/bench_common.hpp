// Shared helpers for the experiment benches.
#pragma once

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "cells/cells.hpp"
#include "gen/generators.hpp"
#include "match/host_labels.hpp"
#include "match/matcher.hpp"
#include "obs/metrics.hpp"
#include "session/session.hpp"
#include "report/document.hpp"
#include "report/report.hpp"
#include "util/cli_options.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace subg::bench {

struct MatchRow {
  std::string circuit;
  std::size_t devices = 0;
  std::size_t nets = 0;
  std::string cell;
  std::size_t cv = 0;
  std::size_t found = 0;
  std::size_t expected = 0;  // construction ground truth (lower bound)
  std::size_t guesses = 0;
  double phase1_ms = 0;
  double phase2_ms = 0;
  /// How the sweep ended; anything but kComplete means `found` is a lower
  /// bound and the timing row is not comparable to a complete run.
  RunOutcome outcome = RunOutcome::kComplete;
  // Deterministic work counters (identical across --jobs and across
  // machines): these are what the CI baseline gate compares exactly,
  // while timings stay advisory.
  std::size_t rounds = 0;             ///< Phase I relabeling rounds
  std::uint64_t relabel_ops = 0;      ///< Phase I pattern-side contributions
  std::uint64_t host_relabel_ops = 0; ///< Phase I host-side contributions
  std::uint64_t cache_hits = 0;       ///< label-cache round reuses
  std::uint64_t cache_misses = 0;     ///< label-cache rounds computed
  std::size_t passes = 0;             ///< Phase II relabeling passes
  std::size_t bindings = 0;
  std::size_t backtracks = 0;
  std::size_t expansion_ops = 0;      ///< Phase II edge visits
  // Phase II fast-path counters (all zero when the signature prefilter is
  // disabled for an A/B row).
  std::size_t domain_prunes = 0;      ///< postulates refuted by the prefilter
  std::size_t nogood_hits = 0;        ///< refutations served from the memo
  std::size_t trail_undos = 0;        ///< trail entries rolled back
  std::size_t walk_settled = 0;       ///< candidates the forced-pin walk
                                      ///< matched or refuted
  std::size_t walk_fallbacks = 0;     ///< walks handed to the relabel search
  // Static-analyzer counters (zero unless the analyzer layer fired: the
  // path-label refuter needs --phase2-filter=paths, symmetry skips need an
  // exhaustive run with non-trivial pattern orbits, and infeasible
  // shortcuts need a certificate that refutes the pairing outright).
  std::size_t path_label_prunes = 0;  ///< postulates refuted by path labels
  std::size_t symmetry_skips = 0;     ///< mappings folded by automorphisms
  std::size_t infeasible_shortcuts = 0;  ///< searches skipped by certificate
  // Sharded-sweep counters (all zero on monolithic rows; deterministic —
  // the shard plan is a pure function of the host, the round-0 skip rule a
  // pure function of (plan, pattern)).
  std::size_t shards_total = 0;       ///< regions in the session's plan
  std::size_t shards_skipped = 0;     ///< regions bulk-skipped for >= 1 kind
  std::size_t shards_prefilter_rejects = 0;  ///< regions dead for BOTH kinds
};

/// Run one match through an existing HostSession and collect the row. A
/// private metrics registry rides along to capture the label-cache
/// counters; the session's cache stats are folded in explicitly (Phase I
/// only auto-records its own fallback cache).
inline MatchRow run_match_in_session(const std::string& circuit_name,
                                     HostSession& session,
                                     const std::string& cell_name,
                                     const Netlist& pattern,
                                     std::size_t expected,
                                     std::size_t jobs = 1,
                                     Phase2Filter phase2_filter =
                                         Phase2Filter::kPaths,
                                     MatchReport* report_out = nullptr) {
  const Netlist& host = session.netlist();
  MatchOptions opts;
  opts.jobs = jobs;
  opts.phase2_filter = phase2_filter;
  obs::Metrics metrics;
  opts.metrics = &metrics;
  MatchReport r = find_in_session(pattern, session, opts);
  record_cache_stats(&metrics, session.cache().stats());
  MatchRow row;
  row.circuit = circuit_name;
  row.devices = host.device_count();
  row.nets = host.net_count();
  row.cell = cell_name;
  row.cv = r.phase1.candidates.size();
  row.found = r.count();
  row.expected = expected;
  row.guesses = r.phase2.guesses;
  row.phase1_ms = r.phase1_seconds * 1e3;
  row.phase2_ms = r.phase2_seconds * 1e3;
  row.outcome = r.status.outcome;
  row.rounds = r.phase1.rounds;
  row.relabel_ops = r.phase1.relabel_ops;
  row.passes = r.phase2.passes;
  row.bindings = r.phase2.bindings;
  row.backtracks = r.phase2.backtracks;
  row.expansion_ops = r.phase2.expansion_ops;
  row.domain_prunes = r.phase2.domain_prunes;
  row.nogood_hits = r.phase2.nogood_hits;
  row.trail_undos = r.phase2.trail_undos;
  row.walk_settled = r.phase2.walk_settled;
  row.walk_fallbacks = r.phase2.walk_fallbacks;
  row.path_label_prunes = r.phase2.path_label_prunes;
  row.symmetry_skips = r.phase2.symmetry_skips;
  row.infeasible_shortcuts = r.infeasible_shortcuts;
  row.shards_total = r.phase1.shards_total;
  row.shards_skipped = r.phase1.shards_skipped;
  row.shards_prefilter_rejects = r.phase1.shards_prefilter_rejects;
  const obs::Snapshot snap = metrics.collect();
  row.host_relabel_ops = snap.counter("phase1.label_cache.relabel_ops");
  row.cache_hits = snap.counter("phase1.label_cache.hits");
  row.cache_misses = snap.counter("phase1.label_cache.misses");
  if (report_out != nullptr) *report_out = std::move(r);
  return row;
}

/// run_match_in_session over a freshly built session (the host is copied):
/// the one-shot form the bench tables use. A cold session per row keeps the
/// cache counters per-run deterministic.
inline MatchRow run_match(const std::string& circuit_name, const Netlist& host,
                          const std::string& cell_name, const Netlist& pattern,
                          std::size_t expected, std::size_t jobs = 1,
                          Phase2Filter phase2_filter = Phase2Filter::kPaths) {
  HostSession session = HostSession::build(host);
  return run_match_in_session(circuit_name, session, cell_name, pattern,
                              expected, jobs, phase2_filter);
}

/// The deterministic per-row counters as a json array — the payload the CI
/// bench-regression gate (tools/check_bench_baseline.py) compares exactly
/// against the committed BENCH_baseline.json.
inline json::Value counters_json(const std::vector<MatchRow>& rows) {
  json::Value arr = json::Value::array();
  for (const MatchRow& r : rows) {
    json::Value v = json::Value::object();
    v.set("circuit", r.circuit);
    v.set("cell", r.cell);
    v.set("cv", r.cv);
    v.set("found", r.found);
    v.set("expected", r.expected);
    v.set("rounds", r.rounds);
    v.set("relabel_ops", r.relabel_ops);
    v.set("host_relabel_ops", r.host_relabel_ops);
    v.set("cache_hits", r.cache_hits);
    v.set("cache_misses", r.cache_misses);
    v.set("passes", r.passes);
    v.set("bindings", r.bindings);
    v.set("guesses", r.guesses);
    v.set("backtracks", r.backtracks);
    v.set("expansion_ops", r.expansion_ops);
    v.set("domain_prunes", r.domain_prunes);
    v.set("nogood_hits", r.nogood_hits);
    v.set("trail_undos", r.trail_undos);
    v.set("walk_settled", r.walk_settled);
    v.set("walk_fallbacks", r.walk_fallbacks);
    v.set("path_label_prunes", r.path_label_prunes);
    v.set("symmetry_skips", r.symmetry_skips);
    v.set("infeasible_shortcuts", r.infeasible_shortcuts);
    v.set("shards_total", r.shards_total);
    v.set("shards_skipped", r.shards_skipped);
    v.set("shards_prefilter_rejects", r.shards_prefilter_rejects);
    arr.push(std::move(v));
  }
  return arr;
}

/// Advisory wall-clock companion to counters_json: same row keys, timing
/// values only. The gate prints drift here but never fails on it.
inline json::Value timings_json(const std::vector<MatchRow>& rows) {
  json::Value arr = json::Value::array();
  for (const MatchRow& r : rows) {
    json::Value v = json::Value::object();
    v.set("circuit", r.circuit);
    v.set("cell", r.cell);
    v.set("phase1_ms", r.phase1_ms);
    v.set("phase2_ms", r.phase2_ms);
    arr.push(std::move(v));
  }
  return arr;
}

/// Per-jobs scaling of one (pattern, host) match: median-of-`reps` total
/// matching time at each lane count, with speedup relative to --jobs=1.
/// The found-count is checked identical across lane counts (the report
/// contract), so the rows time the same work.
struct ScalingRow {
  std::size_t jobs = 1;
  std::size_t found = 0;
  double ms = 0;
  double speedup = 1.0;
};

inline std::vector<ScalingRow> jobs_scaling(const Netlist& pattern,
                                            const Netlist& host,
                                            int reps = 3) {
  std::vector<std::size_t> lanes = {1, 2, 4};
  const std::size_t hw = ThreadPool::default_jobs();
  if (hw > lanes.back()) lanes.push_back(hw);
  std::vector<ScalingRow> rows;
  for (std::size_t jobs : lanes) {
    MatchOptions opts;
    opts.jobs = jobs;
    ScalingRow row;
    row.jobs = jobs;
    row.ms = 1e100;
    for (int rep = 0; rep < reps; ++rep) {
      // A cold session per rep: lanes race the same work, not a warm cache.
      HostSession session = HostSession::build(host, SessionOptions{});
      Timer timer;
      MatchReport r = find_in_session(pattern, session, opts);
      row.ms = std::min(row.ms, timer.seconds() * 1e3);
      row.found = r.count();
    }
    rows.push_back(row);
  }
  for (ScalingRow& row : rows) row.speedup = rows.front().ms / row.ms;
  return rows;
}

/// The scaling table, shared by the text rendering and the json document.
inline report::Table make_scaling_table(const std::vector<ScalingRow>& rows) {
  report::Table t({"jobs", "found", "time ms", "speedup"});
  for (std::size_t c = 0; c < 4; ++c) t.align_right(c);
  for (const ScalingRow& r : rows) {
    t.add_row({with_commas(static_cast<long long>(r.jobs)),
               with_commas(static_cast<long long>(r.found)),
               format_fixed(r.ms, 2), format_fixed(r.speedup, 2) + "x"});
  }
  return t;
}

[[nodiscard]] inline bool scaling_diverged(const std::vector<ScalingRow>& rows) {
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].found != rows[0].found) return true;
  }
  return false;
}

inline void print_scaling(const std::string& what,
                          const std::vector<ScalingRow>& rows) {
  std::printf("\nper-jobs scaling: %s (hardware concurrency %zu)\n",
              what.c_str(), ThreadPool::default_jobs());
  std::string s = make_scaling_table(rows).to_string();
  std::fputs(s.c_str(), stdout);
  if (scaling_diverged(rows)) {
    std::printf("WARNING: found-count diverged across jobs "
                "(determinism contract violated)\n");
  }
}

/// A scaling section of a bench json document: the rendered table plus the
/// determinism verdict.
inline json::Value scaling_json(const std::string& what,
                                const std::vector<ScalingRow>& rows) {
  json::Value v = json::Value::object();
  v.set("what", what);
  v.set("hardware_concurrency", ThreadPool::default_jobs());
  v.set("table", report::to_json(make_scaling_table(rows)));
  v.set("found_identical_across_jobs", !scaling_diverged(rows));
  return v;
}

/// The Table-2-style results table. `any_incomplete` (when non-null) is set
/// iff some row hit a resource limit (its found-count is starred).
inline report::Table make_match_table(const std::vector<MatchRow>& rows,
                                      bool* any_incomplete = nullptr) {
  report::Table t({"circuit", "devices", "nets", "subcircuit", "CV", "found",
                   "expected", "guesses", "phaseI ms", "phaseII ms",
                   "total ms"});
  for (std::size_t c = 1; c < 11; ++c) t.align_right(c);
  if (any_incomplete != nullptr) *any_incomplete = false;
  for (const MatchRow& r : rows) {
    std::string found = with_commas(static_cast<long long>(r.found));
    if (r.outcome != RunOutcome::kComplete) {
      found += "*";
      if (any_incomplete != nullptr) *any_incomplete = true;
    }
    t.add_row({r.circuit, with_commas(static_cast<long long>(r.devices)),
               with_commas(static_cast<long long>(r.nets)), r.cell,
               with_commas(static_cast<long long>(r.cv)), found,
               with_commas(static_cast<long long>(r.expected)),
               with_commas(static_cast<long long>(r.guesses)),
               format_fixed(r.phase1_ms, 2), format_fixed(r.phase2_ms, 2),
               format_fixed(r.phase1_ms + r.phase2_ms, 2)});
  }
  return t;
}

inline void print_rows(const std::vector<MatchRow>& rows) {
  bool any_incomplete = false;
  std::string s = make_match_table(rows, &any_incomplete).to_string();
  std::fputs(s.c_str(), stdout);
  if (any_incomplete) {
    std::printf("(* = run hit a resource limit; count is a lower bound)\n");
  }
}

/// The quick-mode json document every baseline-gated bench emits — tool +
/// experiment header, quick echo, the rendered match table, the gated
/// counters array, and the advisory timings, in that order. The `before` /
/// `after` hooks splice bench-specific members in at their historical
/// positions (between any_incomplete and counters, and after timings), so
/// hoisting the emitter changed no bench's field order.
inline void write_quick_doc(
    const char* tool, const char* experiment, bool quick,
    const std::vector<MatchRow>& rows, json::Value counters,
    const std::function<void(report::Document&)>& before = {},
    const std::function<void(report::Document&)>& after = {}) {
  report::Document doc(tool, experiment);
  doc.set("quick", quick);
  bool any_incomplete = false;
  doc.set("table", report::to_json(make_match_table(rows, &any_incomplete)));
  doc.set("any_incomplete", any_incomplete);
  if (before) before(doc);
  doc.set("counters", std::move(counters));
  doc.set("timings", timings_json(rows));
  if (after) after(doc);
  doc.write(std::cout);
}

/// Shared argv handling for the bench mains: global flags only, no
/// positionals, and only --format applies everywhere (benches fix their own
/// workloads and lane counts so rows stay comparable). The baseline-gated
/// benches additionally accept --quick (via `quick`): quick mode runs
/// reduced deterministic workloads with one rep and no scaling sweeps, for
/// the CI bench-regression gate. Returns the format via `format`; a
/// non-zero return is the process exit code.
inline int parse_bench_args(const char* name, int argc, char** argv,
                            cli::Format* format, bool* quick = nullptr) {
  // --quick is bench-only (not a global flag), so strip it before the
  // shared parser.
  std::vector<std::string> args;
  bool saw_quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (quick != nullptr && arg == "--quick") {
      saw_quick = true;
      continue;
    }
    args.push_back(arg);
  }
  cli::ParsedArgs parsed = cli::parse_args(args);
  std::string error = parsed.error;
  if (error.empty() && !parsed.positionals.empty()) {
    error = "unexpected argument '" + parsed.positionals.front() + "'";
  }
  if (error.empty() &&
      (parsed.options.jobs != 0 || parsed.options.lenient ||
       parsed.options.metrics || parsed.options.budget.has_deadline() ||
       !parsed.options.top.empty() || !parsed.options.pattern_top.empty())) {
    error = "flag does not apply to benches";
  }
  if (!error.empty()) {
    std::fprintf(stderr, "%s: %s\nusage: %s [--format=text|json]%s\n", name,
                 error.c_str(), name, quick != nullptr ? " [--quick]" : "");
    return 64;
  }
  *format = parsed.options.format;
  if (quick != nullptr) *quick = saw_quick;
  return 0;
}

}  // namespace subg::bench
