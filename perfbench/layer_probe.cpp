// layer_probe — the benchmark's traced run.
//
// It makes the requests of one workload in-process, through the same
// library calls the subgemini CLI and the serve daemon make, and records a
// span around the call into each layer plus the heap allocations made
// while the request ran:
//
//   layer_probe find    <seconds> <host.sp> <pattern.sp>...
//   layer_probe extract <seconds> <host.sp> <library.sp>
//   layer_probe serve   <seconds> <host.sp> <requests.jsonl>
//
// find and extract repeat the one-shot path (parse and flatten the host,
// build the session, match, render) once per request, cycling through the
// given patterns; serve loads the host a few times as set-up, then answers
// the request lines (cycled) against the warm session the way the daemon's
// find handler does. Layer times are means per request in ms (per host
// load for serve's host layers), so they add up to request_ms. Phase I and
// Phase II times are the matcher's own spans; everything else is timed
// here. The JSON object printed last also lists each request's output
// size (instances found, or devices left after extraction) for the caller
// to check.
#include <malloc.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "extract/extract.hpp"
#include "match/matcher.hpp"
#include "obs/metrics.hpp"
#include "report/document.hpp"
#include "serve/protocol.hpp"
#include "session/session.hpp"
#include "spice/spice.hpp"
#include "util/json.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::int64_t> g_live_bytes{0};

}  // namespace

// Counting replacements for the global allocator: operator new calls and
// live heap bytes. Aligned allocations keep the default allocator.
void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }

namespace {

using namespace subg;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Totals over a run; printed as means.
struct Totals {
  double pattern_load = 0;
  double host_parse = 0;
  double host_flatten = 0;
  double session_build = 0;
  double match_setup = 0;
  double phase1 = 0;
  double phase2 = 0;
  double render = 0;
  double request = 0;
  std::uint64_t requests = 0;
  std::uint64_t host_loads = 0;
  std::uint64_t candidates = 0;
  std::uint64_t expansion_ops = 0;
  std::uint64_t passes = 0;
  std::uint64_t instances = 0;
  std::uint64_t allocs = 0;
  std::uint64_t match_allocs = 0;
  double session_bytes = 0;
  std::vector<std::uint64_t> outputs;
};

/// Parse, flatten and build the session for the host deck, as the CLI and
/// the daemon's host load do.
HostSession load_host(const std::string& path, Totals& t) {
  Clock::time_point start = Clock::now();
  Design design = spice::read_file(path);
  t.host_parse += ms_since(start);

  start = Clock::now();
  Netlist netlist = design.flatten(serve::default_top(design, ""));
  t.host_flatten += ms_since(start);

  const std::int64_t live_before = g_live_bytes.load();
  start = Clock::now();
  HostSession session = HostSession::build(std::move(netlist));
  t.session_build += ms_since(start);
  t.session_bytes += static_cast<double>(g_live_bytes.load() - live_before);
  ++t.host_loads;
  return session;
}

/// Time find_in_session and split it into Phase I, Phase II and the rest.
MatchReport match(const Netlist& pattern, HostSession& session, Totals& t) {
  const std::uint64_t allocs_before = g_allocs.load();
  const Clock::time_point start = Clock::now();
  MatchReport report = find_in_session(pattern, session, MatchOptions{});
  const double total = ms_since(start);
  t.match_allocs += g_allocs.load() - allocs_before;
  t.phase1 += report.phase1_seconds * 1e3;
  t.phase2 += report.phase2_seconds * 1e3;
  t.match_setup += total - report.total_seconds() * 1e3;
  t.candidates += report.phase1.candidates.size();
  t.expansion_ops += report.phase2.expansion_ops;
  t.passes += report.phase2.passes;
  t.instances += report.count();
  return report;
}

/// The text `subgemini find` prints.
std::string render_find(const Netlist& pattern, const Netlist& host,
                        const MatchReport& report) {
  std::ostringstream out;
  out << "# pattern " << pattern.name() << " (" << pattern.device_count()
      << " devices), host " << host.name() << " (" << host.device_count()
      << " devices)\n# candidates " << report.phase1.candidates.size()
      << ", instances " << report.count() << "\n";
  for (std::size_t i = 0; i < report.count(); ++i) {
    const SubcircuitInstance& inst = report.instances[i];
    out << "instance " << i << ":";
    for (NetId port : pattern.ports()) {
      out << ' ' << pattern.net_name(port) << '='
          << host.net_name(inst.net_image[port.index()]);
    }
    out << "\n  devices:";
    for (DeviceId device : inst.device_image) {
      out << ' ' << host.device_name(device);
    }
    out << '\n';
  }
  return out.str();
}

Netlist load_pattern(const std::string& path) {
  Design design = spice::read_file(path);
  return design.flatten(serve::default_top(design, ""));
}

void one_shot_find(const std::string& host_path,
                   const std::string& pattern_path, Totals& t) {
  Clock::time_point start = Clock::now();
  const Netlist pattern = load_pattern(pattern_path);
  t.pattern_load += ms_since(start);

  HostSession session = load_host(host_path, t);
  const MatchReport report = match(pattern, session, t);

  start = Clock::now();
  const std::string text = render_find(pattern, session.netlist(), report);
  t.render += ms_since(start);
  t.outputs.push_back(report.count());
}

void one_shot_extract(const std::string& host_path,
                      const std::string& library_path, Totals& t) {
  Clock::time_point start = Clock::now();
  Design library = spice::read_file(library_path);
  std::vector<extract::LibraryCell> cells;
  for (std::uint32_t m = 0; m < library.module_count(); ++m) {
    const Module& mod = library.module(ModuleId(m));
    if (mod.ports().empty()) continue;  // the implicit 'main'
    cells.push_back(extract::LibraryCell{mod.name(), library.flatten(mod.name())});
  }
  t.pattern_load += ms_since(start);

  HostSession session = load_host(host_path, t);

  // The sweep runs one match per cell inside the library, so Phase I and
  // Phase II come from the matcher's spans in a metrics registry.
  obs::Metrics metrics;
  extract::ExtractOptions options;
  options.match.metrics = &metrics;
  const std::uint64_t allocs_before = g_allocs.load();
  start = Clock::now();
  const extract::ExtractResult result =
      extract::extract_gates(session, cells, options);
  const double total = ms_since(start);
  t.match_allocs += g_allocs.load() - allocs_before;
  const obs::Snapshot snap = metrics.collect();
  const auto span_ms = [&](const char* name) {
    const auto it = snap.spans.find(name);
    return it == snap.spans.end() ? 0.0 : it->second.seconds * 1e3;
  };
  t.phase1 += span_ms("phase1.seconds");
  t.phase2 += span_ms("phase2.seconds");
  t.match_setup += total - span_ms("phase1.seconds") - span_ms("phase2.seconds");
  t.candidates += snap.counter("phase1.candidates");
  t.expansion_ops += snap.counter("phase2.expansion_ops");
  t.passes += snap.counter("phase2.passes");
  for (const auto& cell : result.report.cells) t.instances += cell.instances;

  start = Clock::now();
  const std::string text = spice::write_string(result.netlist);
  t.render += ms_since(start);
  t.outputs.push_back(result.report.devices_after);
}

/// One request line through the daemon's find path: decode, parse the
/// inline pattern, match against the warm session, build the frame.
void serve_find(const std::string& line, HostSession& session, Totals& t) {
  Clock::time_point start = Clock::now();
  serve::ErrorCode code = serve::ErrorCode::kInternal;
  std::string message;
  const std::optional<serve::Request> request =
      serve::parse_request(line, &code, &message);
  if (!request.has_value() || request->op != "find") {
    throw std::runtime_error("bad request line: " + message);
  }
  Design design = spice::read_string(request->pattern);
  const Netlist pattern =
      design.flatten(serve::default_top(design, request->pattern_top));
  t.pattern_load += ms_since(start);

  const MatchReport report = match(pattern, session, t);

  start = Clock::now();
  json::Value result = json::Value::object();
  result.set("pattern", serve::netlist_summary(pattern));
  result.set("host", serve::netlist_summary(session.netlist()));
  result.set("instances",
             serve::instances_json(pattern, session.netlist(), report));
  result.set("report", report::to_json(report));
  const std::string frame = serve::ok_response(*request, std::move(result));
  t.render += ms_since(start);
  t.outputs.push_back(report.count());
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  if (lines.empty()) throw std::runtime_error("no request lines in " + path);
  return lines;
}

void print(const Totals& t) {
  const double n = static_cast<double>(t.requests);
  const double loads = static_cast<double>(t.host_loads);
  json::Value layers = json::Value::object();
  layers.set("pattern_load", t.pattern_load / n);
  layers.set("host_parse", t.host_parse / loads);
  layers.set("host_flatten", t.host_flatten / loads);
  layers.set("session_build", t.session_build / loads);
  layers.set("match_setup", t.match_setup / n);
  layers.set("phase1", t.phase1 / n);
  layers.set("phase2", t.phase2 / n);
  layers.set("render", t.render / n);
  layers.set("request", t.request / n);
  json::Value counts = json::Value::object();
  counts.set("candidates", static_cast<double>(t.candidates) / n);
  counts.set("expansion_ops", static_cast<double>(t.expansion_ops) / n);
  counts.set("passes", static_cast<double>(t.passes) / n);
  counts.set("instances", static_cast<double>(t.instances) / n);
  counts.set("allocs", static_cast<double>(t.allocs) / n);
  counts.set("match_allocs", static_cast<double>(t.match_allocs) / n);
  counts.set("session_mb", t.session_bytes / loads / 1e6);
  json::Value outputs = json::Value::array();
  for (std::uint64_t v : t.outputs) outputs.push(v);
  json::Value doc = json::Value::object();
  doc.set("requests", t.requests);
  doc.set("host_loads", t.host_loads);
  doc.set("layers_ms", std::move(layers));
  doc.set("counts", std::move(counts));
  doc.set("outputs", std::move(outputs));
  std::cout << doc.dump(0) << '\n';
}

constexpr std::size_t kServeHostLoads = 3;

int run(const std::string& mode, double seconds, const std::string& host,
        const std::vector<std::string>& inputs) {
  Totals t;
  std::optional<HostSession> warm;
  std::vector<std::string> lines;
  if (mode == "serve") {
    for (std::size_t i = 0; i < kServeHostLoads; ++i) {
      warm.reset();
      warm.emplace(load_host(host, t));
    }
    lines = read_lines(inputs.at(0));
  } else if (mode != "find" && mode != "extract") {
    std::fprintf(stderr, "layer_probe: unknown mode '%s'\n", mode.c_str());
    return 64;
  }

  const Clock::time_point begin = Clock::now();
  while (t.requests == 0 || ms_since(begin) < seconds * 1e3) {
    const std::uint64_t allocs_before = g_allocs.load();
    const Clock::time_point start = Clock::now();
    if (mode == "find") {
      one_shot_find(host, inputs[t.requests % inputs.size()], t);
    } else if (mode == "extract") {
      one_shot_extract(host, inputs.at(0), t);
    } else {
      serve_find(lines[t.requests % lines.size()], *warm, t);
    }
    t.request += ms_since(start);
    t.allocs += g_allocs.load() - allocs_before;
    ++t.requests;
  }
  print(t);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 5) {
    std::fprintf(stderr,
                 "usage: layer_probe find|extract|serve <seconds> <host.sp> "
                 "<input>...\n");
    return 64;
  }
  std::vector<std::string> inputs(argv + 4, argv + argc);
  try {
    return run(argv[1], std::atof(argv[2]), argv[3], inputs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "layer_probe: %s\n", e.what());
    return 70;
  }
}
