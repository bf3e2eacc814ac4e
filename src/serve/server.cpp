#include "serve/server.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <utility>

#include "analyze/analyze.hpp"
#include "benchfmt/benchfmt.hpp"
#include "extract/extract.hpp"
#include "lint/lint.hpp"
#include "match/matcher.hpp"
#include "obs/metrics.hpp"
#include "report/document.hpp"
#include "spice/spice.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/line_io.hpp"
#include "util/strings.hpp"
#include "verilog/verilog.hpp"

namespace subg::serve {

namespace {

[[nodiscard]] bool is_verilog(const std::string& path) {
  return ends_with_icase(path, ".v") || ends_with_icase(path, ".sv") ||
         ends_with_icase(path, ".vh");
}

[[nodiscard]] bool is_bench(const std::string& path) {
  return ends_with_icase(path, ".bench");
}

/// Signal routing: the handler may only touch lock-free atomics, so it
/// loads the registered server pointer and flips its stop flags.
std::atomic<Server*> g_signal_target{nullptr};

extern "C" void serve_signal_handler(int) {
  Server* server = g_signal_target.load(std::memory_order_acquire);
  if (server != nullptr) server->request_shutdown();
}

}  // namespace

Server::HostContext::HostContext(std::string host_name, Netlist host_netlist,
                                 std::size_t shard_target_devices)
    : name(std::move(host_name)),
      // A host whose graph overflows the CSR offset width throws
      // subg::Error here, which the load paths report as a load failure.
      session(HostSession::build(
          std::move(host_netlist),
          SessionOptions{.shard_target_devices = shard_target_devices})) {}

Server::Server(ServeOptions options)
    : options_(std::move(options)), pool_(options_.jobs) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.max_pending == 0) options_.max_pending = 1;
}

Server::~Server() {
  Server* self = this;
  g_signal_target.compare_exchange_strong(self, nullptr,
                                          std::memory_order_acq_rel);
}

void Server::install_signal_handlers() {
  Server* expected = nullptr;
  SUBG_CHECK_MSG(g_signal_target.compare_exchange_strong(
                     expected, this, std::memory_order_acq_rel),
                 "serve: signal handlers already routed to another server");
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = serve_signal_handler;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

std::shared_ptr<Server::HostContext> Server::load_host_file(
    const std::string& name, const std::string& path, const std::string& top) {
  DiagnosticSink sink;
  DiagnosticSink* diags = options_.lenient ? &sink : nullptr;
  Netlist netlist = [&] {
    if (is_bench(path)) {
      benchfmt::ReadOptions opts;
      opts.diagnostics = diags;
      return std::move(benchfmt::read_file(path, opts).transistors);
    }
    if (is_verilog(path)) {
      verilog::ReadOptions opts;
      opts.diagnostics = diags;
      Design design = verilog::read_file(path, opts);
      std::string chosen = top;
      if (chosen.empty() && design.module_count() > 0) {
        chosen = design
                     .module(ModuleId(static_cast<std::uint32_t>(
                         design.module_count() - 1)))
                     .name();
      }
      return design.flatten(chosen);
    }
    spice::ReadOptions opts;
    opts.diagnostics = diags;
    Design design = spice::read_file(path, opts);
    return design.flatten(default_top(design, top));
  }();
  const std::string text = sink.summary();
  if (!text.empty()) std::fwrite(text.data(), 1, text.size(), stderr);
  return std::make_shared<HostContext>(name, std::move(netlist),
                                       options_.shard_target_devices);
}

int Server::run() {
  // Responses to a vanished peer must come back as a write error, not a
  // process-killing SIGPIPE.
  signal(SIGPIPE, SIG_IGN);

  for (const ServeOptions::HostSpec& spec : options_.hosts) {
    try {
      std::shared_ptr<HostContext> context =
          load_host_file(spec.name, spec.path, spec.top);
      std::lock_guard<std::mutex> lock(hosts_mutex_);
      hosts_[spec.name] = std::move(context);
    } catch (const Error& e) {
      std::fprintf(stderr, "subgemini serve: %s: %s\n", spec.path.c_str(),
                   e.what());
      return 65;
    }
  }

  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back(&Server::worker_loop, this);
  }

  int code = 0;
  if (!options_.socket_path.empty()) {
    code = serve_socket();
  } else if (!serve_stream(options_.in_fd, options_.out_fd)) {
    code = 70;
  }

  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    intake_done_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  return code;
}

bool Server::serve_stream(int in_fd, int out_fd) {
  LineReader reader(in_fd, options_.max_request_bytes);
  std::string line;
  while (!stop_.load(std::memory_order_acquire)) {
    const LineReader::Status status = reader.read_line(&line, &stop_, 50);
    if (status == LineReader::Status::kInterrupted) break;
    if (status == LineReader::Status::kEof) return true;
    if (status == LineReader::Status::kError) return false;
    if (status == LineReader::Status::kOversized) {
      oversized_.fetch_add(1, std::memory_order_relaxed);
      obs::count(options_.metrics, "serve.oversized");
      respond(out_fd,
              error_response(
                  json::Value(), "", ErrorCode::kOversized,
                  "request line of " +
                      std::to_string(reader.last_line_bytes()) +
                      " bytes exceeds max_request_bytes=" +
                      std::to_string(options_.max_request_bytes)));
      continue;
    }
    if (line.empty()) continue;  // blank lines are keepalives

    bool accepted = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (queue_.size() < options_.max_pending) {
        queue_.push_back(Pending{std::move(line), out_fd});
        accepted = true;
      }
    }
    if (accepted) {
      queue_cv_.notify_one();
    } else {
      // Load shedding: a full queue answers immediately instead of
      // buffering without bound. Fast, id-less by design — parsing the
      // line to echo its id would defeat the fast-rejection point.
      shed_.fetch_add(1, std::memory_order_relaxed);
      obs::count(options_.metrics, "serve.shed");
      respond(out_fd, error_response(
                          json::Value(), "", ErrorCode::kOverloaded,
                          "request queue full (max_pending=" +
                              std::to_string(options_.max_pending) + ")"));
    }
    line.clear();
  }
  return true;
}

int Server::serve_socket() {
  const int listen_fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::perror("subgemini serve: socket");
    return 70;
  }
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "subgemini serve: socket path too long: %s\n",
                 options_.socket_path.c_str());
    close(listen_fd);
    return 70;
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  unlink(options_.socket_path.c_str());
  if (bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr)) != 0 ||
      listen(listen_fd, 8) != 0) {
    std::perror("subgemini serve: bind/listen");
    close(listen_fd);
    return 70;
  }

  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = poll(&pfd, 1, 50);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int conn = accept(listen_fd, nullptr, nullptr);
    if (conn < 0) continue;
    // Connections are served one at a time, each its own JSON-lines
    // stream; requests from one still execute on all workers.
    serve_stream(conn, conn);
    // The connection's fd number must not be recycled while queued
    // requests still reference it: wait until everything enqueued for it
    // has been answered before closing.
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [&] {
        for (const Pending& pending : queue_) {
          if (pending.out_fd == conn) return false;
        }
        return in_flight_ == 0;
      });
    }
    close(conn);
  }
  close(listen_fd);
  unlink(options_.socket_path.c_str());
  return 0;
}

void Server::worker_loop() {
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [&] { return !queue_.empty() || intake_done_; });
      if (queue_.empty()) return;
      pending = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    process(pending);
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      --in_flight_;
    }
    queue_cv_.notify_all();
  }
}

void Server::process(const Pending& pending) {
  // THE isolation domain: everything a request does — decode, parse inline
  // netlists, match — happens under this try. Any failure becomes one
  // structured error response; the daemon keeps serving.
  json::Value id;
  std::string op;
  std::string frame;
  try {
    ErrorCode code = ErrorCode::kInternal;
    std::string message;
    std::optional<Request> request = parse_request(pending.line, &code,
                                                   &message);
    if (!request.has_value()) {
      frame = fail(id, op, code, message);
    } else {
      id = request->id;
      op = request->op;
      if (draining_.load(std::memory_order_acquire) && op != "status" &&
          op != "shutdown") {
        // Queued behind a drain: answered, never executed.
        frame = fail(id, op, ErrorCode::kShuttingDown,
                     "server is draining; request not executed");
      } else {
        frame = dispatch(*request);
      }
    }
  } catch (const fault::InjectedFault& e) {
    frame = fail(id, op, ErrorCode::kInjectedFault, e.what());
  } catch (const std::exception& e) {
    frame = fail(id, op, ErrorCode::kInternal, e.what());
  } catch (...) {
    frame = fail(id, op, ErrorCode::kInternal, "unknown exception");
  }
  respond(pending.out_fd, frame);
}

std::string Server::dispatch(const Request& request) {
  SUBG_FAULT_POINT("serve.dispatch");
  obs::count(options_.metrics, "serve.requests");
  if (request.op == "find") return handle_find(request);
  if (request.op == "analyze") return handle_analyze(request);
  if (request.op == "extract") return handle_extract(request);
  if (request.op == "lint") return handle_lint(request);
  if (request.op == "status") return handle_status(request);
  if (request.op == "load") return handle_load(request);
  if (request.op == "patch") return handle_patch(request);
  if (request.op == "shutdown") return handle_shutdown(request);
  return fail(request.id, request.op, ErrorCode::kUnknownOp,
              "unknown op '" + request.op + "'");
}

std::string Server::succeed(const Request& request, json::Value result) {
  served_.fetch_add(1, std::memory_order_relaxed);
  obs::count(options_.metrics, "serve.ok");
  return ok_response(request, std::move(result));
}

std::string Server::fail(const json::Value& id, std::string_view op,
                         ErrorCode code, std::string_view message,
                         std::optional<json::Value> partial) {
  failed_.fetch_add(1, std::memory_order_relaxed);
  obs::count(options_.metrics, "serve.errors");
  return error_response(id, op, code, message, std::move(partial));
}

std::shared_ptr<Server::HostContext> Server::resolve_host(
    const Request& request, ErrorCode* code, std::string* message) {
  std::lock_guard<std::mutex> lock(hosts_mutex_);
  if (request.host.empty()) {
    if (hosts_.size() == 1) return hosts_.begin()->second;
    *code = ErrorCode::kBadRequest;
    *message = hosts_.empty()
                   ? "no host loaded (use the load op first)"
                   : "several hosts are loaded; name one in 'host'";
    return nullptr;
  }
  auto it = hosts_.find(request.host);
  if (it == hosts_.end()) {
    *code = ErrorCode::kUnknownHost;
    *message = "no loaded host named '" + request.host + "'";
    return nullptr;
  }
  return it->second;
}

Budget Server::request_budget(const Request& request) const {
  // timeout_ms > 0: that deadline. timeout_ms == 0: explicitly unlimited
  // (overrides the server default). Absent (< 0): the server default.
  Budget budget;
  if (request.timeout_ms > 0) {
    budget.set_deadline_after(request.timeout_ms / 1000.0);
  } else if (request.timeout_ms < 0 && options_.request_timeout > 0) {
    budget.set_deadline_after(options_.request_timeout);
  }
  return budget;
}

std::string Server::handle_find(const Request& request) {
  if (request.pattern.empty()) {
    return fail(request.id, request.op, ErrorCode::kBadRequest,
                "find requires 'pattern' (inline SPICE text)");
  }
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  std::shared_ptr<HostContext> host = resolve_host(request, &code, &message);
  if (host == nullptr) return fail(request.id, request.op, code, message);

  std::optional<Netlist> pattern;
  try {
    Design design = spice::read_string(request.pattern);
    pattern.emplace(design.flatten(default_top(design, request.pattern_top)));
  } catch (const fault::InjectedFault&) {
    throw;  // label distinctly at the process() boundary, not parse_error
  } catch (const Error& e) {
    return fail(request.id, request.op, ErrorCode::kParseError,
                std::string("pattern: ") + e.what());
  }

  MatchOptions options;
  options.budget = request_budget(request);
  if (request.max_matches > 0) options.max_matches = request.max_matches;
  options.exhaustive = request.exhaustive;
  options.pool = &pool_;
  options.metrics = options_.metrics;

  // Shared lock: many finds run concurrently against one session; a patch
  // waits for them (and vice versa) on the exclusive side.
  std::shared_lock<std::shared_mutex> session_lock(host->session_mutex);
  MatchReport report = find_in_session(*pattern, host->session, options);

  json::Value result = json::Value::object();
  result.set("pattern", netlist_summary(*pattern));
  result.set("host", netlist_summary(host->session.netlist()));
  result.set("instances",
             instances_json(*pattern, host->session.netlist(), report));
  result.set("report", report::to_json(report));
  if (!report.status.complete()) {
    // The one-shot exit-75 contract, in-band: partial results attach, the
    // error code says the sweep was incomplete.
    return fail(request.id, request.op, outcome_error(report.status.outcome),
                report.status.reason, std::move(result));
  }
  return succeed(request, std::move(result));
}

std::string Server::handle_analyze(const Request& request) {
  if (request.pattern.empty()) {
    return fail(request.id, request.op, ErrorCode::kBadRequest,
                "analyze requires 'pattern' (inline SPICE text)");
  }
  // Host resolution mirrors find, except static analysis is meaningful
  // without one: an omitted 'host' with nothing loaded still runs the
  // pattern-only layers (orbits, path labels). A named-but-unknown host is
  // an unknown_host frame, exactly like find.
  std::shared_ptr<HostContext> host;
  {
    bool want_host = !request.host.empty();
    if (!want_host) {
      std::lock_guard<std::mutex> lock(hosts_mutex_);
      want_host = !hosts_.empty();
    }
    if (want_host) {
      ErrorCode code = ErrorCode::kInternal;
      std::string message;
      host = resolve_host(request, &code, &message);
      if (host == nullptr) return fail(request.id, request.op, code, message);
    }
  }

  std::optional<Netlist> pattern;
  try {
    Design design = spice::read_string(request.pattern);
    pattern.emplace(design.flatten(default_top(design, request.pattern_top)));
  } catch (const fault::InjectedFault&) {
    throw;  // label distinctly at the process() boundary, not parse_error
  } catch (const Error& e) {
    return fail(request.id, request.op, ErrorCode::kParseError,
                std::string("pattern: ") + e.what());
  }

  json::Value result = json::Value::object();
  result.set("pattern", netlist_summary(*pattern));
  analyze::AnalysisReport report;
  if (host != nullptr) {
    std::shared_lock<std::shared_mutex> session_lock(host->session_mutex);
    report = analyze::analyze(*pattern, &host->session.netlist(), {});
    result.set("host", netlist_summary(host->session.netlist()));
  } else {
    report = analyze::analyze(*pattern, nullptr, {});
  }
  result.set("analysis", report::to_json(report));
  return succeed(request, std::move(result));
}

std::string Server::handle_extract(const Request& request) {
  if (request.library.empty()) {
    return fail(request.id, request.op, ErrorCode::kBadRequest,
                "extract requires 'library' (inline SPICE deck)");
  }
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  std::shared_ptr<HostContext> host = resolve_host(request, &code, &message);
  if (host == nullptr) return fail(request.id, request.op, code, message);

  std::vector<extract::LibraryCell> cells;
  try {
    Design library = spice::read_string(request.library);
    for (std::uint32_t m = 0; m < library.module_count(); ++m) {
      const Module& module = library.module(ModuleId(m));
      if (module.ports().empty() ||
          (module.device_count() == 0 && module.instance_count() == 0)) {
        continue;  // the implicit 'main', or an empty stub
      }
      cells.push_back(
          extract::LibraryCell{module.name(), library.flatten(module.name())});
    }
  } catch (const fault::InjectedFault&) {
    throw;  // label distinctly at the process() boundary, not parse_error
  } catch (const Error& e) {
    return fail(request.id, request.op, ErrorCode::kParseError,
                std::string("library: ") + e.what());
  }
  if (cells.empty()) {
    return fail(request.id, request.op, ErrorCode::kBadRequest,
                "library deck has no usable .SUBCKT");
  }

  extract::ExtractOptions options;
  options.match.budget = request_budget(request);
  options.match.pool = &pool_;
  options.match.metrics = options_.metrics;
  std::shared_lock<std::shared_mutex> session_lock(host->session_mutex);
  extract::ExtractResult extracted =
      extract::extract_gates(host->session, cells, options);

  json::Value result = json::Value::object();
  result.set("host", netlist_summary(host->session.netlist()));
  result.set("library_cells", cells.size());
  result.set("report", report::to_json(extracted.report));
  json::Value netlist_member = json::Value::object();
  netlist_member.set("format", "spice");
  netlist_member.set("text", spice::write_string(extracted.netlist));
  result.set("netlist", std::move(netlist_member));
  if (!extracted.report.status.complete()) {
    return fail(request.id, request.op,
                outcome_error(extracted.report.status.outcome),
                extracted.report.status.reason, std::move(result));
  }
  return succeed(request, std::move(result));
}

std::string Server::handle_lint(const Request& request) {
  lint::LintOptions options;
  options.metrics = options_.metrics;
  lint::LintReport report;
  std::optional<json::Value> host_summary;

  if (!request.netlist.empty()) {
    // Inline deck: recovering parse (card failures become findings), the
    // same lint_deck pipeline the CLI runs — both surfaces agree.
    DiagnosticSink sink;
    spice::ReadOptions read_options;
    read_options.diagnostics = &sink;
    Design design = spice::read_string(request.netlist, read_options);
    report.merge(lint::import_diagnostics(sink, options));
    lint::DeckLint deck = lint::lint_deck(design, request.top, options);
    report.merge(std::move(deck.report));
    if (deck.netlist.has_value()) {
      host_summary = netlist_summary(*deck.netlist);
    }
  } else {
    ErrorCode code = ErrorCode::kInternal;
    std::string message;
    std::shared_ptr<HostContext> host =
        resolve_host(request, &code, &message);
    if (host == nullptr) return fail(request.id, request.op, code, message);
    std::shared_lock<std::shared_mutex> session_lock(host->session_mutex);
    report = lint::lint_netlist(host->session.netlist(), options);
    host_summary = netlist_summary(host->session.netlist());
  }

  json::Value result = json::Value::object();
  if (host_summary.has_value()) result.set("host", std::move(*host_summary));
  result.set("lint", report::to_json(report));
  return succeed(request, std::move(result));
}

std::string Server::handle_status(const Request& request) {
  json::Value result = json::Value::object();
  json::Value hosts = json::Value::array();
  {
    std::lock_guard<std::mutex> lock(hosts_mutex_);
    for (const auto& [name, context] : hosts_) {
      std::shared_lock<std::shared_mutex> session_lock(context->session_mutex);
      const HostSession& session = context->session;
      json::Value one = json::Value::object();
      one.set("host", name);
      one.set("summary", netlist_summary(session.netlist()));
      // Schema v1 members kept for compatibility: every graph is the CSR
      // layout, and patches retain no spill to compact.
      one.set("csr_core", true);
      // Shard-plan summary, mirroring the --shard flag: absent fields mean
      // the session matches monolithically.
      json::Value shards = json::Value::object();
      shards.set("enabled", session.shards() != nullptr);
      if (const ShardPlan* plan = session.shards()) {
        shards.set("total", plan->shards().size());
        shards.set("anchors", plan->anchor_nets().size());
        shards.set("max_devices", plan->max_shard_devices());
        shards.set("bytes", plan->bytes());
      }
      one.set("shards", std::move(shards));
      json::Value eco = json::Value::object();
      eco.set("patch_count", session.patch_count());
      eco.set("spill_bytes", 0);
      eco.set("last_compaction", 0);
      one.set("eco", std::move(eco));
      hosts.push(std::move(one));
    }
  }
  result.set("hosts", std::move(hosts));
  result.set("workers", options_.workers);
  json::Value queue = json::Value::object();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue.set("pending", queue_.size());
    queue.set("in_flight", in_flight_);
  }
  queue.set("max_pending", options_.max_pending);
  queue.set("max_request_bytes", options_.max_request_bytes);
  result.set("queue", std::move(queue));
  json::Value counters = json::Value::object();
  counters.set("served", served_.load(std::memory_order_relaxed));
  counters.set("failed", failed_.load(std::memory_order_relaxed));
  counters.set("shed", shed_.load(std::memory_order_relaxed));
  counters.set("oversized", oversized_.load(std::memory_order_relaxed));
  result.set("counters", std::move(counters));
  json::Value faults = json::Value::object();
  faults.set("enabled", fault::kFaultsEnabled);
  faults.set("armed", fault::armed_site());
  json::Value sites = json::Value::array();
  for (const std::string& site : fault::sites()) sites.push(site);
  faults.set("sites", std::move(sites));
  result.set("faults", std::move(faults));
  result.set("draining", draining_.load(std::memory_order_relaxed));
  return succeed(request, std::move(result));
}

std::string Server::handle_load(const Request& request) {
  if (request.name.empty()) {
    return fail(request.id, request.op, ErrorCode::kBadRequest,
                "load requires 'name' (the registry key)");
  }
  if (request.netlist.empty() == request.path.empty()) {
    return fail(request.id, request.op, ErrorCode::kBadRequest,
                "load requires exactly one of 'netlist' (inline SPICE) or "
                "'path' (a file)");
  }
  std::shared_ptr<HostContext> context;
  try {
    if (!request.netlist.empty()) {
      Design design = spice::read_string(request.netlist);
      context = std::make_shared<HostContext>(
          request.name, design.flatten(default_top(design, request.top)),
          options_.shard_target_devices);
    } else {
      context = load_host_file(request.name, request.path, request.top);
    }
  } catch (const fault::InjectedFault&) {
    throw;  // label distinctly at the process() boundary, not parse_error
  } catch (const Error& e) {
    return fail(request.id, request.op, ErrorCode::kParseError, e.what());
  }
  {
    // A name is registered once: silently replacing a host under clients
    // that patched it loses their edits, so a duplicate name is a
    // structured refusal (evolve a loaded host with `patch` instead).
    std::lock_guard<std::mutex> lock(hosts_mutex_);
    if (hosts_.contains(request.name)) {
      return fail(request.id, request.op, ErrorCode::kAlreadyLoaded,
                  "a host named '" + request.name +
                      "' is already loaded (use patch to edit it)");
    }
    hosts_[request.name] = context;
  }
  json::Value result = json::Value::object();
  result.set("host", request.name);
  result.set("summary", netlist_summary(context->session.netlist()));
  result.set("csr_core", true);  // schema v1: always the CSR layout
  return succeed(request, std::move(result));
}

std::string Server::handle_patch(const Request& request) {
  if (request.delta.empty()) {
    return fail(request.id, request.op, ErrorCode::kBadRequest,
                "patch requires 'delta' (inline JSON-lines edit script)");
  }
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  std::shared_ptr<HostContext> host = resolve_host(request, &code, &message);
  if (host == nullptr) return fail(request.id, request.op, code, message);

  ApplyStats stats;
  try {
    NetlistDelta delta = parse_delta(request.delta);
    // Exclusive lock: the rebase swaps the session's graph, cache and path
    // labels, so no find/extract/lint may be walking them. apply() itself is
    // atomic — a throw below leaves the session byte-identical to before.
    std::unique_lock<std::shared_mutex> session_lock(host->session_mutex);
    stats = host->session.apply(delta);
  } catch (const fault::InjectedFault&) {
    throw;  // label distinctly at the process() boundary, not bad_delta
  } catch (const Error& e) {
    return fail(request.id, request.op, ErrorCode::kBadDelta, e.what());
  }
  record_eco_stats(options_.metrics, stats);

  std::shared_lock<std::shared_mutex> session_lock(host->session_mutex);
  json::Value result = json::Value::object();
  result.set("host", host->name);
  result.set("summary", netlist_summary(host->session.netlist()));
  json::Value eco = json::Value::object();
  eco.set("patched_devices", stats.patched_devices);
  eco.set("patched_nets", stats.patched_nets);
  eco.set("renames", stats.renames);
  eco.set("invalidated_labels", stats.invalidated_labels);
  eco.set("compactions", 0);  // schema v1: patches never compact
  result.set("eco", std::move(eco));
  result.set("patch_count", host->session.patch_count());
  return succeed(request, std::move(result));
}

std::string Server::handle_shutdown(const Request& request) {
  request_shutdown();
  queue_cv_.notify_all();
  json::Value result = json::Value::object();
  result.set("draining", true);
  return succeed(request, std::move(result));
}

void Server::respond(int out_fd, std::string_view frame) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  // A vanished peer is not the server's failure: the write error is
  // swallowed and the next request (possibly from a new connection) is
  // served normally.
  (void)write_line(out_fd, frame);
}

}  // namespace subg::serve
