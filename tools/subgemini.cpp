// subgemini — command-line front end for the library.
//
//   subgemini find <pattern.sp> <host.sp>
//       Find instances of a subcircuit. The pattern file's top is its
//       first .SUBCKT unless named; the host top defaults to "main"
//       (top-level cards). --delta=FILE applies an ECO edit script to the
//       host session before matching.
//   subgemini extract <library.sp> <host.sp>
//       Extract every .SUBCKT of the library deck from the host,
//       largest-first; writes the gate-level netlist as SPICE to stdout.
//       Honors --delta=FILE like find.
//   subgemini analyze <pattern.sp> [host.sp]
//       Pre-search static analysis: pattern automorphisms/orbits, the
//       supplemental path-label signature classes, and — when a host is
//       given — the infeasibility certificates. Exit 0 when no certificate
//       fires, 1 when the pairing is statically refuted.
//   subgemini compare <a.sp> <b.sp>
//       Gemini netlist isomorphism check (LVS-lite). Exit 0 iff isomorphic.
//   subgemini check <host.sp>
//       Run the built-in circuit rule library. Exit 0 iff clean of errors.
//   subgemini lint <netlist.sp>
//       Static netlist analysis: floating gates, dangling nets, rail
//       shorts, duplicate instances, parse-level defects. Always parses in
//       recovering mode (card failures become findings). Exit 0 when no
//       finding reaches the --fail-on threshold, 1 for warnings at
//       --fail-on=warn, 2 for errors.
//   subgemini reduce <host.sp>
//       Series/parallel device reduction; writes SPICE to stdout.
//   subgemini stats <host.sp>
//       Netlist statistics.
//
// Global flags (anywhere after the command) are parsed by the shared
// cli::parse_args — see util/cli_options.hpp for the full list. Top module
// names are given as --top=NAME (the host / second / sole input) and
// --pattern-top=NAME (the pattern / first input); the old positional top
// slots were removed and now exit 64. --format=json replaces every
// command's stdout with one versioned report::Document (schema_version 1,
// see README.md); --format=text output is unchanged.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "benchfmt/benchfmt.hpp"
#include "extract/extract.hpp"
#include "gemini/gemini.hpp"
#include "lint/lint.hpp"
#include "lvs/lvs.hpp"
#include "match/host_labels.hpp"
#include "match/matcher.hpp"
#include "obs/metrics.hpp"
#include "reduce/reduce.hpp"
#include "report/document.hpp"
#include "rulecheck/rulecheck.hpp"
#include "serve/server.hpp"
#include "session/session.hpp"
#include "spice/spice.hpp"
#include "util/check.hpp"
#include "util/cli_options.hpp"
#include "util/fault.hpp"
#include "util/strings.hpp"
#include "verilog/verilog.hpp"

namespace {

using namespace subg;

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  subgemini find <pattern.sp> <host.sp>\n"
      "  subgemini extract <library.sp> <host.sp>\n"
      "  subgemini analyze <pattern.sp> [host.sp]\n"
      "  subgemini compare <a.sp> <b.sp>\n"
      "  subgemini lvs <layout.sp> <schematic.sp>\n"
      "  subgemini check <host.sp>\n"
      "  subgemini lint <netlist.sp>\n"
      "  subgemini reduce <host.sp>\n"
      "  subgemini stats <host.sp>\n"
      "  subgemini serve [name=]<host.sp> ...\n"
      "\nInputs may be SPICE (.sp), structural Verilog (.v), or ISCAS "
      "(.bench).\nTop modules are selected with --top= (host / second / "
      "sole input)\nand --pattern-top= (pattern / first input).\n"
      "\nflags:\n%s"
      "\nexit codes: 0 success; 1 not isomorphic / rule violations / lint\n"
      "  warnings at --fail-on=warn; 2 lint errors; 64 usage; 65 malformed\n"
      "  input; 70 internal error; 75 resource limit hit (results "
      "incomplete)\n",
      cli::global_flags_help());
  return 64;
}

/// Global options for the invocation (set once in main).
cli::GlobalOptions g_opts;
/// Metrics registry when --metrics was given; null otherwise.
obs::Metrics* g_metrics = nullptr;

/// A command-line contradiction (e.g. both --top and a positional top):
/// caught in main, reported, and mapped to the usage exit.
struct UsageError {
  std::string message;
};

[[nodiscard]] bool json_output() {
  return g_opts.format == cli::Format::kJson;
}

/// Print collected parse diagnostics; returns true if any were errors. One
/// stream write for the whole batch, so concurrent lanes' stderr cannot
/// interleave mid-line with it.
bool flush_diagnostics(const DiagnosticSink& sink) {
  const std::string text = sink.summary();
  if (!text.empty()) {
    std::fwrite(text.data(), 1, text.size(), stderr);
  }
  return sink.error_count() > 0;
}

/// sysexits-style mapping: anything short of a complete sweep is a
/// temporary failure (75) so scripts cannot mistake partial results for
/// the full answer.
int outcome_exit(const RunStatus& status, int ok) {
  if (status.complete()) return ok;
  std::fprintf(stderr, "subgemini: search %s: %s\n",
               to_string(status.outcome), status.reason.c_str());
  return 75;
}

/// Every one-shot command takes a fixed number of positional FILE
/// arguments; the old trailing top-name slots are gone. Anything extra is
/// a usage error with a pointer at the named flags that replaced them.
void reject_extras(const std::vector<std::string>& positionals,
                   std::size_t expected) {
  if (positionals.size() <= expected) return;
  throw UsageError{"unexpected argument '" + positionals[expected] +
                   "' (positional top names were removed; use --top=NAME / "
                   "--pattern-top=NAME)"};
}

/// Build the host session for find/extract and apply --delta when given.
/// Returns the per-patch stats iff a delta was applied (also folded into
/// the eco.* counters when --metrics armed a registry).
std::optional<ApplyStats> apply_cli_delta(HostSession& session) {
  if (g_opts.delta_path.empty()) return std::nullopt;
  const ApplyStats stats = session.apply(parse_delta_file(g_opts.delta_path));
  record_eco_stats(g_metrics, stats);
  return stats;
}

/// The "eco" member of find/extract json documents: what --delta did.
json::Value eco_json(const ApplyStats& stats) {
  json::Value v = json::Value::object();
  v.set("patched_devices", stats.patched_devices);
  v.set("patched_nets", stats.patched_nets);
  v.set("renames", stats.renames);
  v.set("invalidated_labels", stats.invalidated_labels);
  v.set("compactions", 0);  // schema v1: patches never compact
  return v;
}

/// One-line text-mode summary of an applied --delta, on `out`.
void print_eco_line(std::FILE* out, const ApplyStats& stats) {
  std::fprintf(out,
               "# eco: %llu device ops, %llu net ops, %llu renames, "
               "%llu labels recomputed, 0 compactions\n",
               static_cast<unsigned long long>(stats.patched_devices),
               static_cast<unsigned long long>(stats.patched_nets),
               static_cast<unsigned long long>(stats.renames),
               static_cast<unsigned long long>(stats.invalidated_labels));
}

/// First .SUBCKT name of a design, or "main" when it only has top cards.
/// Shared with the serve daemon so both front ends pick the same module.
std::string default_top(const Design& design, const std::string& requested) {
  return serve::default_top(design, requested);
}

[[nodiscard]] bool is_verilog(const std::string& path) {
  return ends_with_icase(path, ".v") || ends_with_icase(path, ".sv") ||
         ends_with_icase(path, ".vh");
}

[[nodiscard]] bool is_bench(const std::string& path) {
  return ends_with_icase(path, ".bench");
}

/// Read a hierarchical design from SPICE or Verilog, honoring --lenient.
Design load_design(const std::string& path) {
  DiagnosticSink sink;
  DiagnosticSink* diags = g_opts.lenient ? &sink : nullptr;
  Design design = [&] {
    if (is_verilog(path)) {
      verilog::ReadOptions opts;
      opts.diagnostics = diags;
      return verilog::read_file(path, opts);
    }
    spice::ReadOptions opts;
    opts.diagnostics = diags;
    return spice::read_file(path, opts);
  }();
  flush_diagnostics(sink);
  return design;
}

/// Load a netlist from SPICE, structural Verilog, or ISCAS .bench (by file
/// extension; .bench expands to transistor level).
Netlist load(const std::string& path, const std::string& top) {
  if (is_bench(path)) {
    DiagnosticSink sink;
    benchfmt::ReadOptions opts;
    opts.diagnostics = g_opts.lenient ? &sink : nullptr;
    Netlist transistors = std::move(benchfmt::read_file(path, opts).transistors);
    flush_diagnostics(sink);
    return transistors;
  }
  Design design = load_design(path);
  if (is_verilog(path)) {
    // Verilog: prefer the last-defined module as top (conventional).
    std::string chosen = top;
    if (chosen.empty() && design.module_count() > 0) {
      chosen =
          design.module(ModuleId(static_cast<std::uint32_t>(
                             design.module_count() - 1)))
              .name();
    }
    return design.flatten(chosen);
  }
  return design.flatten(default_top(design, top));
}

/// Emit in the format matching the INPUT file the netlist came from.
void emit(const std::string& like_path, const Netlist& netlist) {
  if (is_verilog(like_path)) {
    verilog::write(std::cout, netlist);
  } else {
    spice::write(std::cout, netlist);
  }
}

/// {"name": ..., "devices": ..., "nets": ...} — how a loaded netlist
/// appears in every json document. Delegates to the serve protocol builder
/// so one-shot documents and serve responses agree member for member.
json::Value netlist_summary(const Netlist& netlist) {
  return serve::netlist_summary(netlist);
}

/// The emitted-netlist member of extract/reduce documents: the full text in
/// the format emit() would print, tagged with which format that is.
json::Value netlist_text(const std::string& like_path, const Netlist& netlist) {
  std::ostringstream os;
  json::Value v = json::Value::object();
  if (is_verilog(like_path)) {
    verilog::write(os, netlist);
    v.set("format", "verilog");
  } else {
    spice::write(os, netlist);
    v.set("format", "spice");
  }
  v.set("text", os.str());
  return v;
}

/// Attach the collected metrics (when --metrics armed a registry) and print
/// the document — the single exit path of every json-mode command.
int finish_document(report::Document& doc, const RunStatus& status, int ok) {
  if (g_metrics != nullptr) doc.set_metrics(g_metrics->collect());
  doc.write(std::cout);
  return outcome_exit(status, ok);
}

int cmd_find(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  reject_extras(args, 2);
  Netlist pattern = load(args[0], g_opts.pattern_top);

  // The host lives in a session: one owned bundle of graph + label cache
  // + path-label memo, patched by --delta instead of reparsed.
  SessionOptions so;
  so.shard_target_devices = g_opts.shard_target_devices;
  HostSession session = HostSession::build(load(args[1], g_opts.top), so);
  const std::optional<ApplyStats> eco = apply_cli_delta(session);
  const Netlist& host = session.netlist();

  MatchOptions opts;
  opts.budget = g_opts.budget;
  opts.jobs = g_opts.jobs;
  opts.metrics = g_metrics;
  opts.phase2_filter = g_opts.phase2_filter;
  opts.analyze = g_opts.analyze;
  MatchReport report = find_in_session(pattern, session, opts);
  // The cache is session-owned, so Phase I leaves its reuse totals to us.
  record_cache_stats(g_metrics, session.cache().stats());

  if (json_output()) {
    report::Document doc("subgemini", "find");
    doc.set("pattern", netlist_summary(pattern));
    doc.set("host", netlist_summary(host));
    if (eco.has_value()) doc.set("eco", eco_json(*eco));
    // Built by the serve protocol helper, so a serve `find` response and
    // this document agree byte for byte on the instances member.
    doc.set("instances", serve::instances_json(pattern, host, report));
    doc.set("report", report::to_json(report));
    if (report.infeasibility.has_value()) {
      // The pre-search analyzer refuted the pairing and the search never
      // ran: say why, machine-readably (additive schema-v1 member).
      json::Value analysis = json::Value::object();
      analysis.set("infeasible", true);
      analysis.set("certificate", report::to_json(*report.infeasibility));
      doc.set("analysis", std::move(analysis));
    }
    return finish_document(doc, report.status, 0);
  }

  std::printf("# pattern %s (%zu devices), host %s (%zu devices)\n",
              pattern.name().c_str(), pattern.device_count(),
              host.name().c_str(), host.device_count());
  if (eco.has_value()) print_eco_line(stdout, *eco);
  if (report.infeasibility.has_value()) {
    std::printf("# statically infeasible (%s): %s\n",
                report.infeasibility->rule.c_str(),
                report.infeasibility->detail.c_str());
  }
  std::printf("# candidates %zu, instances %zu, %.2f ms (phase I %.2f)\n",
              report.phase1.candidates.size(), report.count(),
              report.total_seconds() * 1e3, report.phase1_seconds * 1e3);
  if (!report.status.complete()) {
    std::printf("# outcome %s: %s (%zu candidates skipped, %zu guesses "
                "abandoned)\n",
                to_string(report.status.outcome), report.status.reason.c_str(),
                report.status.candidates_skipped,
                report.status.guesses_abandoned);
  }
  for (std::size_t i = 0; i < report.count(); ++i) {
    const SubcircuitInstance& inst = report.instances[i];
    std::printf("instance %zu:", i);
    for (NetId port : pattern.ports()) {
      std::printf(" %s=%s", pattern.net_name(port).c_str(),
                  host.net_name(inst.net_image[port.index()]).c_str());
    }
    std::printf("\n  devices:");
    for (std::uint32_t d = 0; d < inst.device_image.size(); ++d) {
      std::printf(" %s", host.device_name(inst.device_image[d]).c_str());
    }
    std::printf("\n");
  }
  return outcome_exit(report.status, 0);
}

int cmd_extract(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  reject_extras(args, 2);
  Design lib = load_design(args[0]);

  SessionOptions so;
  so.shard_target_devices = g_opts.shard_target_devices;
  HostSession session = HostSession::build(load(args[1], g_opts.top), so);
  const std::optional<ApplyStats> eco = apply_cli_delta(session);
  const Netlist& host = session.netlist();

  std::vector<extract::LibraryCell> cells;
  for (std::uint32_t m = 0; m < lib.module_count(); ++m) {
    const Module& mod = lib.module(ModuleId(m));
    if (mod.ports().empty() || (mod.device_count() == 0 &&
                                mod.instance_count() == 0)) {
      continue;  // the implicit 'main', or an empty stub
    }
    cells.push_back(extract::LibraryCell{mod.name(), lib.flatten(mod.name())});
  }
  SUBG_CHECK_MSG(!cells.empty(), "library deck has no usable .SUBCKT");

  extract::ExtractOptions options;
  options.match.budget = g_opts.budget;
  options.match.jobs = g_opts.jobs;
  options.match.metrics = g_metrics;
  options.match.phase2_filter = g_opts.phase2_filter;
  options.match.analyze = g_opts.analyze;
  options.lint_host = g_opts.lint;
  extract::ExtractResult result =
      extract::extract_gates(session, cells, options);
  if (g_opts.lint && !result.host_lint.clean()) {
    // Findings go to stderr: stdout stays the netlist (or the document).
    std::ostringstream lint_text;
    result.host_lint.write_text(lint_text);
    std::fputs(lint_text.str().c_str(), stderr);
  }
  const bool lint_gated = g_opts.lint && result.host_lint.has_errors();
  if (eco.has_value()) print_eco_line(stderr, *eco);
  std::fprintf(stderr, "# %zu transistors -> %zu devices (%zu unextracted)\n",
               result.report.devices_before, result.report.devices_after,
               result.report.unextracted_primitives);
  for (const auto& per : result.report.cells) {
    if (per.instances) {
      std::fprintf(stderr, "#   %-12s x %zu%s\n", per.cell.c_str(),
                   per.instances,
                   per.outcome == RunOutcome::kComplete ? "" : " (partial)");
    }
  }
  if (result.report.cells_skipped > 0) {
    std::fprintf(stderr, "#   %zu cell(s) not attempted\n",
                 result.report.cells_skipped);
  }

  if (json_output()) {
    report::Document doc("subgemini", "extract");
    doc.set("host", netlist_summary(host));
    if (eco.has_value()) doc.set("eco", eco_json(*eco));
    doc.set("library_cells", cells.size());
    doc.set("report", report::to_json(result.report));
    if (g_opts.lint) doc.set("lint", report::to_json(result.host_lint));
    if (lint_gated) {
      // The document still carries the findings, but a lint-gated run is a
      // data error, not a resource outcome: exit 65.
      if (g_metrics != nullptr) doc.set_metrics(g_metrics->collect());
      doc.write(std::cout);
      return 65;
    }
    doc.set("netlist", netlist_text(args[1], result.netlist));
    return finish_document(doc, result.report.status, 0);
  }

  if (lint_gated) return 65;
  emit(args[1], result.netlist);
  return outcome_exit(result.report.status, 0);
}

int cmd_analyze(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  reject_extras(args, 2);
  Netlist pattern = load(args[0], g_opts.pattern_top);
  std::optional<Netlist> host;
  if (args.size() >= 2) host = load(args[1], g_opts.top);

  const analyze::AnalysisReport report =
      analyze::analyze(pattern, host.has_value() ? &*host : nullptr);

  if (json_output()) {
    report::Document doc("subgemini", "analyze");
    doc.set("pattern", netlist_summary(pattern));
    if (host.has_value()) doc.set("host", netlist_summary(*host));
    doc.set("analysis", report::to_json(report));
    RunStatus status;  // static analysis always completes
    return finish_document(doc, status, report.infeasible() ? 1 : 0);
  }

  std::ostringstream os;
  analyze::write_text(report, os);
  std::fputs(os.str().c_str(), stdout);
  return report.infeasible() ? 1 : 0;
}

int cmd_compare(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  reject_extras(args, 2);
  Netlist a = load(args[0], g_opts.pattern_top);
  Netlist b = load(args[1], g_opts.top);
  CompareOptions options;
  options.budget = g_opts.budget;
  CompareResult r = compare_netlists(a, b, options);

  if (json_output()) {
    report::Document doc("subgemini", "compare");
    doc.set("a", netlist_summary(a));
    doc.set("b", netlist_summary(b));
    doc.set("result", report::to_json(r));
    if (g_metrics != nullptr) doc.set_metrics(g_metrics->collect());
    doc.write(std::cout);
    // Fall through to the same verdict-to-exit-code mapping as text mode.
  } else if (r.isomorphic) {
    std::printf("ISOMORPHIC (%zu refinement rounds, %zu individuations)\n",
                r.rounds, r.individuations);
  } else {
    std::printf("NOT ISOMORPHIC: %s\n", r.reason.c_str());
  }

  if (r.isomorphic) return 0;
  if (r.outcome != RunOutcome::kComplete) {
    // The search was cut short, so "not isomorphic" is inconclusive.
    std::fprintf(stderr, "subgemini: comparison %s: %s\n",
                 to_string(r.outcome), r.reason.c_str());
    return 75;
  }
  return 1;
}

int cmd_check(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  reject_extras(args, 1);
  Netlist host = load(args[0], g_opts.top);
  rulecheck::CheckReport report =
      rulecheck::check(host, rulecheck::builtin_rules(host.catalog_ptr()));

  if (json_output()) {
    report::Document doc("subgemini", "check");
    doc.set("host", netlist_summary(host));
    doc.set("rules_checked", report.rules_checked);
    doc.set("errors", report.errors);
    doc.set("warnings", report.warnings);
    json::Value violations = json::Value::array();
    for (const auto& v : report.violations) {
      json::Value one = json::Value::object();
      one.set("severity",
              v.severity == rulecheck::Severity::kError ? "error" : "warning");
      one.set("rule", v.rule);
      json::Value devices = json::Value::array();
      for (const auto& d : v.devices) devices.push(d);
      one.set("devices", std::move(devices));
      one.set("message", v.message);
      violations.push(std::move(one));
    }
    doc.set("violations", std::move(violations));
    if (g_metrics != nullptr) doc.set_metrics(g_metrics->collect());
    doc.write(std::cout);
    return report.errors == 0 ? 0 : 1;
  }

  std::printf("# %zu rules, %zu errors, %zu warnings\n", report.rules_checked,
              report.errors, report.warnings);
  for (const auto& v : report.violations) {
    std::printf("%s %s:",
                v.severity == rulecheck::Severity::kError ? "ERROR" : "WARN",
                v.rule.c_str());
    for (const auto& d : v.devices) std::printf(" %s", d.c_str());
    std::printf("  (%s)\n", v.message.c_str());
  }
  return report.errors == 0 ? 0 : 1;
}

/// Severity-based lint exit: 2 for errors, 1 for warnings when --fail-on
/// lowered the threshold, 0 otherwise (info findings never gate).
int lint_exit(const lint::LintReport& report) {
  if (report.has_errors()) return 2;
  if (report.has_warnings() && g_opts.fail_on == cli::FailOn::kWarn) return 1;
  return 0;
}

int cmd_lint(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  reject_extras(args, 1);
  const std::string& path = args[0];
  const std::string& top = g_opts.top;

  lint::LintOptions lo;
  lo.metrics = g_metrics;
  lint::LintReport report;
  std::optional<Netlist> flat;

  // Lint always parses in recovering mode — the whole point is to DESCRIBE
  // a sick deck, so card-level failures surface as "parse" findings rather
  // than aborting. Only unrecoverable inputs (missing file, nothing
  // salvageable) still throw to the usual exit-65 path in main.
  if (is_bench(path)) {
    DiagnosticSink sink;
    benchfmt::ReadOptions opts;
    opts.diagnostics = &sink;
    flat = std::move(benchfmt::read_file(path, opts).transistors);
    report.merge(lint::import_diagnostics(sink, lo));
    report.merge(lint::lint_netlist(*flat, lo));
  } else {
    DiagnosticSink sink;
    Design design = [&] {
      if (is_verilog(path)) {
        verilog::ReadOptions opts;
        opts.diagnostics = &sink;
        return verilog::read_file(path, opts);
      }
      spice::ReadOptions opts;
      opts.diagnostics = &sink;
      return spice::read_file(path, opts);
    }();
    report.merge(lint::import_diagnostics(sink, lo));
    std::string chosen = top;
    if (is_verilog(path) && chosen.empty() && design.module_count() > 0) {
      chosen = design
                   .module(ModuleId(
                       static_cast<std::uint32_t>(design.module_count() - 1)))
                   .name();
    }
    // Hierarchy checks, flatten (failures become "flatten" findings), and
    // the flat checks all live in lint_deck — the same pipeline the serve
    // daemon's lint op runs, so both surfaces agree on any deck.
    lint::DeckLint deck = lint::lint_deck(design, chosen, lo);
    report.merge(std::move(deck.report));
    flat = std::move(deck.netlist);
  }

  const int code = lint_exit(report);
  if (json_output()) {
    report::Document doc("subgemini", "lint");
    doc.set("input", path);
    doc.set("fail_on", g_opts.fail_on == cli::FailOn::kWarn ? "warn" : "error");
    if (flat.has_value()) doc.set("host", netlist_summary(*flat));
    doc.set("lint", report::to_json(report));
    if (g_metrics != nullptr) doc.set_metrics(g_metrics->collect());
    doc.write(std::cout);
    return code;
  }

  report.write_text(std::cout);
  return code;
}

int cmd_reduce(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  reject_extras(args, 1);
  Netlist host = load(args[0], g_opts.top);
  reduce::Reduced r = reduce::reduce_netlist(host);
  std::fprintf(stderr, "# %zu -> %zu devices\n", host.device_count(),
               r.netlist.device_count());

  if (json_output()) {
    report::Document doc("subgemini", "reduce");
    doc.set("host", netlist_summary(host));
    doc.set("devices_before", host.device_count());
    doc.set("devices_after", r.netlist.device_count());
    doc.set("netlist", netlist_text(args[0], r.netlist));
    if (g_metrics != nullptr) doc.set_metrics(g_metrics->collect());
    doc.write(std::cout);
    return 0;
  }

  emit(args[0], r.netlist);
  return 0;
}

int cmd_lvs(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  reject_extras(args, 2);
  Netlist left = load(args[0], g_opts.pattern_top);
  Netlist right = load(args[1], g_opts.top);
  lvs::LvsReport report = lvs::compare(left, right);

  if (json_output()) {
    report::Document doc("subgemini", "lvs");
    doc.set("left", netlist_summary(left));
    doc.set("right", netlist_summary(right));
    doc.set("clean", report.clean);
    doc.set("summary", report.summary);
    json::Value mismatches = json::Value::array();
    for (const lvs::Mismatch& m : report.mismatches) {
      json::Value one = json::Value::object();
      one.set("round", m.round);
      json::Value lhs = json::Value::array();
      for (const auto& n : m.left) lhs.push(n);
      json::Value rhs = json::Value::array();
      for (const auto& n : m.right) rhs.push(n);
      one.set("left", std::move(lhs));
      one.set("right", std::move(rhs));
      mismatches.push(std::move(one));
    }
    doc.set("mismatches", std::move(mismatches));
    if (g_metrics != nullptr) doc.set_metrics(g_metrics->collect());
    doc.write(std::cout);
    return report.clean ? 0 : 1;
  }

  std::printf("%s\n", report.summary.c_str());
  for (const lvs::Mismatch& m : report.mismatches) {
    std::printf("mismatch (round %zu):\n  left :", m.round);
    for (const auto& n : m.left) std::printf(" %s", n.c_str());
    std::printf("\n  right:");
    for (const auto& n : m.right) std::printf(" %s", n.c_str());
    std::printf("\n");
  }
  return report.clean ? 0 : 1;
}

int cmd_stats(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  reject_extras(args, 1);
  Netlist host = load(args[0], g_opts.top);
  NetlistStats s = host.stats();

  if (json_output()) {
    report::Document doc("subgemini", "stats");
    doc.set("host", netlist_summary(host));
    doc.set("devices", s.device_count);
    doc.set("nets", s.net_count);
    doc.set("global_nets", s.global_net_count);
    doc.set("pins", s.pin_count);
    doc.set("max_net_degree", s.max_net_degree);
    json::Value by_type = json::Value::object();
    for (const auto& [type, count] : s.devices_by_type) {
      by_type.set(type, count);
    }
    doc.set("devices_by_type", std::move(by_type));
    if (g_metrics != nullptr) doc.set_metrics(g_metrics->collect());
    doc.write(std::cout);
    return 0;
  }

  std::printf("netlist %s\n", host.name().c_str());
  std::printf("  devices      %zu\n", s.device_count);
  std::printf("  nets         %zu (%zu global)\n", s.net_count,
              s.global_net_count);
  std::printf("  pins         %zu\n", s.pin_count);
  std::printf("  max degree   %zu\n", s.max_net_degree);
  for (const auto& [type, count] : s.devices_by_type) {
    std::printf("  %-12s %zu\n", type.c_str(), count);
  }
  return 0;
}

int cmd_serve(const std::vector<std::string>& args) {
  serve::ServeOptions so;
  for (const std::string& arg : args) {
    serve::ServeOptions::HostSpec spec;
    // "name=path" registers under an explicit name; a bare path registers
    // under its file stem ("designs/chip.sp" -> "chip").
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos && eq > 0) {
      spec.name = arg.substr(0, eq);
      spec.path = arg.substr(eq + 1);
    } else {
      spec.path = arg;
      const std::size_t slash = arg.find_last_of('/');
      const std::size_t base = slash == std::string::npos ? 0 : slash + 1;
      const std::size_t dot = arg.find_last_of('.');
      spec.name = arg.substr(
          base, dot != std::string::npos && dot > base ? dot - base
                                                       : std::string::npos);
    }
    if (spec.name.empty() || spec.path.empty()) {
      throw UsageError{"bad serve host argument '" + arg + "'"};
    }
    spec.top = g_opts.top;
    so.hosts.push_back(std::move(spec));
  }
  so.workers = g_opts.serve_workers;
  so.max_pending = g_opts.max_pending;
  so.max_request_bytes = g_opts.max_request_bytes;
  so.request_timeout = g_opts.request_timeout;
  so.jobs = g_opts.jobs == 0 ? 1 : g_opts.jobs;
  so.shard_target_devices = g_opts.shard_target_devices;
  so.lenient = g_opts.lenient;
  so.metrics = g_metrics;
  so.socket_path = g_opts.socket_path;
  serve::Server server(std::move(so));
  server.install_signal_handlers();
  return server.run();
}

int dispatch(const std::string& cmd, const std::vector<std::string>& args) {
  if (cmd == "find") return cmd_find(args);
  if (cmd == "extract") return cmd_extract(args);
  if (cmd == "analyze") return cmd_analyze(args);
  if (cmd == "compare") return cmd_compare(args);
  if (cmd == "lvs") return cmd_lvs(args);
  if (cmd == "check") return cmd_check(args);
  if (cmd == "lint") return cmd_lint(args);
  if (cmd == "reduce") return cmd_reduce(args);
  if (cmd == "stats") return cmd_stats(args);
  if (cmd == "serve") return cmd_serve(args);
  return usage();
}

/// --metrics[=FILE]: write the counter-tree text dump after the command
/// finishes (even in json mode — the file is the flag's contract; the json
/// document additionally embeds the same snapshot).
void dump_metrics() {
  if (g_metrics == nullptr) return;
  const std::string text = g_metrics->collect().to_text();
  if (g_opts.metrics_path.empty()) {
    std::fwrite(text.data(), 1, text.size(), stderr);
    return;
  }
  std::FILE* out = std::fopen(g_opts.metrics_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "subgemini: cannot write metrics to '%s'\n",
                 g_opts.metrics_path.c_str());
    return;
  }
  std::fwrite(text.data(), 1, text.size(), out);
  std::fclose(out);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  cli::ParsedArgs parsed = cli::parse_args(argc, argv, 2);
  if (!parsed.ok()) {
    std::fprintf(stderr, "subgemini: %s\n", parsed.error.c_str());
    return usage();
  }
  g_opts = parsed.options;
  try {
    // Fault-injection arming (SUBG_FAULT=<site>:<nth>); only meaningful in
    // -DSUBG_FAULTS=ON builds, but a malformed spec fails loudly anywhere.
    (void)subg::fault::arm_from_env();
  } catch (const subg::Error& e) {
    std::fprintf(stderr, "subgemini: %s\n", e.what());
    return 64;
  }
  std::optional<obs::Metrics> metrics;
  if (g_opts.metrics) {
    metrics.emplace();
    g_metrics = &*metrics;
  }
  try {
    const int code = dispatch(cmd, parsed.positionals);
    dump_metrics();
    return code;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "subgemini: %s\n", e.message.c_str());
    return usage();
  } catch (const subg::Error& e) {
    // Malformed input deck (sysexits EX_DATAERR).
    std::fprintf(stderr, "subgemini: %s\n", e.what());
    return 65;
  } catch (const std::exception& e) {
    // Anything else is a bug in subgemini itself (sysexits EX_SOFTWARE).
    std::fprintf(stderr, "subgemini: internal error: %s\n", e.what());
    return 70;
  }
}
