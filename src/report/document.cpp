#include "report/document.hpp"

#include <ostream>
#include <sstream>

#include "analyze/analyze.hpp"
#include "extract/extract.hpp"
#include "gemini/gemini.hpp"
#include "lint/lint.hpp"
#include "match/matcher.hpp"
#include "obs/metrics.hpp"
#include "report/report.hpp"
#include "util/budget.hpp"

namespace subg::report {

json::Value to_json(const RunStatus& status) {
  json::Value v = json::Value::object();
  v.set("outcome", to_string(status.outcome));
  v.set("reason", status.reason);
  v.set("candidates_skipped", status.candidates_skipped);
  v.set("guesses_abandoned", status.guesses_abandoned);
  return v;
}

json::Value to_json(const Phase1Result& phase1) {
  json::Value v = json::Value::object();
  v.set("feasible", phase1.feasible);
  v.set("outcome", to_string(phase1.outcome));
  v.set("rounds", phase1.rounds);
  v.set("key_vertex", static_cast<std::uint64_t>(phase1.key));
  v.set("key_is_device", phase1.key_is_device);
  v.set("candidates", phase1.candidates.size());
  v.set("valid_pattern_vertices", phase1.valid_pattern_vertices);
  v.set("possible_host_vertices", phase1.possible_host_vertices);
  v.set("relabel_ops", phase1.relabel_ops);
  return v;
}

json::Value to_json(const Phase2Stats& stats) {
  json::Value v = json::Value::object();
  v.set("candidates_tried", stats.candidates_tried);
  v.set("candidates_matched", stats.candidates_matched);
  v.set("passes", stats.passes);
  v.set("bindings", stats.bindings);
  v.set("guesses", stats.guesses);
  v.set("backtracks", stats.backtracks);
  v.set("verify_failures", stats.verify_failures);
  v.set("max_guess_depth", stats.max_guess_depth);
  v.set("expansion_ops", stats.expansion_ops);
  // Fast-path counters are additive-only schema members, emitted only when
  // they fired so pre-existing golden reports stay byte-identical.
  if (stats.domain_prunes != 0) v.set("domain_prunes", stats.domain_prunes);
  if (stats.nogood_hits != 0) v.set("nogood_hits", stats.nogood_hits);
  if (stats.trail_undos != 0) v.set("trail_undos", stats.trail_undos);
  if (stats.path_label_prunes != 0) {
    v.set("path_label_prunes", stats.path_label_prunes);
  }
  if (stats.symmetry_skips != 0) {
    v.set("symmetry_skips", stats.symmetry_skips);
  }
  if (stats.walk_settled != 0) v.set("walk_settled", stats.walk_settled);
  if (stats.walk_fallbacks != 0) v.set("walk_fallbacks", stats.walk_fallbacks);
  return v;
}

json::Value to_json(const analyze::Certificate& cert) {
  json::Value v = json::Value::object();
  v.set("rule", cert.rule);
  if (!cert.subject.empty()) v.set("subject", cert.subject);
  if (cert.degree != 0) v.set("degree", cert.degree);
  v.set("pattern_count", cert.pattern_count);
  v.set("host_count", cert.host_count);
  v.set("detail", cert.detail);
  return v;
}

json::Value to_json(const analyze::AnalysisReport& report) {
  json::Value v = json::Value::object();
  v.set("pattern_devices", report.pattern_devices);
  v.set("pattern_nets", report.pattern_nets);
  v.set("orbit_count", report.orbit_count);
  v.set("nontrivial_orbit_count", report.nontrivial_orbit_count);
  v.set("automorphism_count", report.automorphism_count);
  v.set("automorphisms_complete", report.automorphisms_complete);
  json::Value orbits = json::Value::array();
  for (const std::vector<std::string>& group : report.orbits) {
    json::Value one = json::Value::array();
    for (const std::string& name : group) one.push(name);
    orbits.push(std::move(one));
  }
  v.set("orbits", std::move(orbits));
  v.set("walk_steps", report.walk_steps);
  v.set("path_classes", report.path_classes);
  if (report.host_checked) {
    v.set("host", report.host_name);
    v.set("infeasible", report.infeasible());
    if (report.certificate.has_value()) {
      v.set("certificate", to_json(*report.certificate));
    }
  }
  return v;
}

json::Value to_json(const MatchReport& report) {
  json::Value v = json::Value::object();
  v.set("instances_found", report.instances.size());
  json::Value instances = json::Value::array();
  for (const SubcircuitInstance& inst : report.instances) {
    json::Value one = json::Value::object();
    json::Value devices = json::Value::array();
    for (DeviceId d : inst.device_image) {
      devices.push(static_cast<std::uint64_t>(d.value));
    }
    json::Value nets = json::Value::array();
    for (NetId n : inst.net_image) {
      nets.push(static_cast<std::uint64_t>(n.value));
    }
    one.set("device_image", std::move(devices));
    one.set("net_image", std::move(nets));
    instances.push(std::move(one));
  }
  v.set("instances", std::move(instances));
  v.set("phase1", to_json(report.phase1));
  v.set("phase2", to_json(report.phase2));
  v.set("status", to_json(report.status));
  // Additive-only: present iff the pre-search analyzer refuted the pairing
  // and the search never ran (pre-existing goldens are unchanged).
  if (report.infeasible_shortcuts != 0) {
    v.set("infeasible_shortcuts", report.infeasible_shortcuts);
  }
  v.set("phase1_seconds", report.phase1_seconds);
  v.set("phase2_seconds", report.phase2_seconds);
  return v;
}

json::Value to_json(const extract::ExtractReport& report) {
  json::Value v = json::Value::object();
  json::Value cells = json::Value::array();
  for (const extract::ExtractReport::PerCell& per : report.cells) {
    json::Value one = json::Value::object();
    one.set("cell", per.cell);
    one.set("instances", per.instances);
    one.set("devices_replaced", per.devices_replaced);
    one.set("outcome", to_string(per.outcome));
    // Additive-only: present iff the analyzer statically refuted the cell.
    if (per.infeasible) one.set("infeasible", true);
    one.set("seconds", per.seconds);
    cells.push(std::move(one));
  }
  v.set("cells", std::move(cells));
  v.set("devices_before", report.devices_before);
  v.set("devices_after", report.devices_after);
  v.set("unextracted_primitives", report.unextracted_primitives);
  v.set("cells_skipped", report.cells_skipped);
  if (report.infeasible_shortcuts != 0) {
    v.set("infeasible_shortcuts", report.infeasible_shortcuts);
  }
  v.set("status", to_json(report.status));
  return v;
}

json::Value to_json(const lint::LintReport& report) {
  json::Value v = json::Value::object();
  json::Value findings = json::Value::array();
  for (const lint::Finding& f : report.findings) {
    json::Value one = json::Value::object();
    one.set("check", f.check);
    one.set("severity", lint::to_string(f.severity));
    one.set("message", f.message);
    json::Value nets = json::Value::array();
    for (const std::string& n : f.nets) nets.push(n);
    one.set("nets", std::move(nets));
    json::Value devices = json::Value::array();
    for (const std::string& d : f.devices) devices.push(d);
    one.set("devices", std::move(devices));
    one.set("module", f.module);
    findings.push(std::move(one));
  }
  v.set("findings", std::move(findings));
  v.set("checks_run", report.checks_run);
  v.set("errors", report.errors);
  v.set("warnings", report.warnings);
  v.set("infos", report.infos);
  v.set("suppressed", report.suppressed);
  return v;
}

json::Value to_json(const CompareResult& result) {
  json::Value v = json::Value::object();
  v.set("isomorphic", result.isomorphic);
  v.set("outcome", to_string(result.outcome));
  v.set("reason", result.reason);
  v.set("rounds", result.rounds);
  v.set("individuations", result.individuations);
  json::Value devices = json::Value::array();
  for (DeviceId d : result.device_map) {
    devices.push(static_cast<std::uint64_t>(d.value));
  }
  json::Value nets = json::Value::array();
  for (NetId n : result.net_map) {
    nets.push(static_cast<std::uint64_t>(n.value));
  }
  v.set("device_map", std::move(devices));
  v.set("net_map", std::move(nets));
  return v;
}

json::Value to_json(const obs::Snapshot& snapshot) {
  json::Value v = json::Value::object();
  json::Value counters = json::Value::object();
  for (const auto& [name, value] : snapshot.counters) {
    counters.set(name, value);
  }
  json::Value gauges = json::Value::object();
  for (const auto& [name, value] : snapshot.gauges) {
    gauges.set(name, value);
  }
  json::Value spans = json::Value::object();
  for (const auto& [name, span] : snapshot.spans) {
    json::Value one = json::Value::object();
    one.set("count", span.count);
    one.set("seconds", span.seconds);
    spans.set(name, std::move(one));
  }
  v.set("counters", std::move(counters));
  v.set("gauges", std::move(gauges));
  v.set("spans", std::move(spans));
  return v;
}

json::Value to_json(const Table& table) {
  json::Value v = json::Value::object();
  json::Value headers = json::Value::array();
  for (const std::string& h : table.headers()) headers.push(h);
  json::Value rows = json::Value::array();
  for (const std::vector<std::string>& row : table.row_data()) {
    json::Value cells = json::Value::array();
    for (const std::string& cell : row) cells.push(cell);
    rows.push(std::move(cells));
  }
  v.set("headers", std::move(headers));
  v.set("rows", std::move(rows));
  return v;
}

json::Value to_json(const LinearFit& fit) {
  json::Value v = json::Value::object();
  v.set("slope", fit.slope);
  v.set("intercept", fit.intercept);
  v.set("r2", fit.r2);
  return v;
}

Document::Document(std::string_view tool, std::string_view command) {
  root_ = json::Value::object();
  root_.set("schema_version", kSchemaVersion);
  root_.set("tool", tool);
  root_.set("command", command);
}

Document& Document::set(std::string key, json::Value value) {
  root_.set(std::move(key), std::move(value));
  return *this;
}

Document& Document::set_metrics(const obs::Snapshot& snapshot) {
  if (!snapshot.empty()) root_.set("metrics", to_json(snapshot));
  return *this;
}

void Document::write(std::ostream& out) const {
  root_.write(out, 2);
  out << '\n';
}

std::string Document::dump() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

}  // namespace subg::report
