// The subgemini match server: load hosts once, answer many requests.
//
// A library sweep or an interactive front end pays the host-side setup
// (parse, CircuitGraph, Phase I label rounds) once per host, not once per
// query: the daemon keeps each loaded host's HostSession warm, and every
// `find` against it reuses the session's graph, label cache and path-label
// memo (HostSession::configure). The memo counts each host anchor the
// first time a find consults it, so the early requests of a warm daemon
// fill it and later ones only read it.
//
// Robustness model (the reason this is a subsystem and not a loop):
//
//  * Isolation domains. Each request is parsed, validated, and executed
//    inside one try/catch at the worker boundary. A malformed line, a sick
//    inline netlist, an internal SUBG_CHECK failure, or an injected fault
//    produces one structured error response (protocol.hpp) — the daemon
//    keeps serving. Only the transport failing (stdin EOF, socket gone)
//    ends the loop.
//  * Admission control. The reader thread enqueues at most max_pending
//    requests; beyond that it answers `overloaded` immediately (load
//    shedding, counted in serve.shed) instead of buffering without bound.
//    Lines longer than max_request_bytes are consumed to their newline and
//    answered `oversized` — framing survives hostile input.
//  * Budgets. Every request runs under a Budget: its own timeout_ms, else
//    the server default. The one-shot CLI's exit-75 contract maps in-band:
//    an expired request answers ok=false / error.code=deadline_expired and
//    carries the partial (verified-only) result.
//  * Graceful drain. SIGTERM/SIGINT (install_signal_handlers) or a
//    `shutdown` request stops intake; in-flight requests finish (or
//    expire), queued-but-unstarted ones answer `shutting_down`, then the
//    process exits 0.
//
// Concurrency: one reader thread (the run() caller), `workers` request
// workers, responses serialized by a write mutex (the "id" echo lets
// clients correlate out-of-order answers). Heavy match work runs on the
// shared ThreadPool (jobs lanes), so concurrent finds cooperate instead of
// oversubscribing.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "netlist/netlist.hpp"
#include "serve/protocol.hpp"
#include "session/session.hpp"
#include "util/thread_pool.hpp"

namespace subg::obs {
class Metrics;
}  // namespace subg::obs

namespace subg::serve {

struct ServeOptions {
  struct HostSpec {
    std::string name;  ///< registry key (defaults to the path's stem)
    std::string path;  ///< SPICE / Verilog / .bench file
    std::string top;   ///< top module ("" = format default)
  };
  /// Hosts loaded before serving begins. May be empty: a client can `load`.
  std::vector<HostSpec> hosts;
  /// Request workers (concurrent in-flight requests).
  std::size_t workers = 1;
  /// Admission-control bound on queued (accepted, unstarted) requests.
  std::size_t max_pending = 64;
  /// Longest accepted request line; longer answers `oversized`.
  std::size_t max_request_bytes = 1 << 20;
  /// Server-default per-request budget, seconds; 0 = unlimited.
  double request_timeout = 0;
  /// ThreadPool lanes for match work (shared by all workers); 0 = hardware.
  std::size_t jobs = 1;
  /// Phase I host sharding for every session the server builds (the
  /// --shard flag; see SessionOptions::shard_target_devices). 0 = off.
  std::size_t shard_target_devices = 0;
  /// Recovering parse mode for host loads (parse diagnostics to stderr).
  bool lenient = false;
  obs::Metrics* metrics = nullptr;
  /// Transport: the fd pair (stdin/stdout by default), or — when
  /// socket_path is non-empty — an AF_UNIX listening socket at that path
  /// (connections served one at a time, each a JSON-lines stream).
  int in_fd = 0;
  int out_fd = 1;
  std::string socket_path;
};

class Server {
 public:
  explicit Server(ServeOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Load the configured hosts and serve until EOF / shutdown / SIGTERM.
  /// Returns the process exit code: 0 clean (including drains), 65 when a
  /// configured host failed to load, 70 on a transport-level failure.
  int run();

  /// Begin a graceful drain (async-signal-safe: two atomic stores).
  void request_shutdown() {
    draining_.store(true, std::memory_order_relaxed);
    stop_.store(true, std::memory_order_release);
  }

  /// Route SIGTERM/SIGINT to request_shutdown() of this server. At most
  /// one server per process may install; the registration is cleared by
  /// the destructor.
  void install_signal_handlers();

 private:
  /// Everything kept warm for one loaded host: a HostSession (netlist +
  /// graph + label cache + path-label memo, session/session.hpp). Reads
  /// (find, extract, lint, status) take the session lock shared; `patch`
  /// takes it exclusive while it rebases the session in place. Concurrent requests
  /// share a context through shared_ptr, so a context is never destroyed
  /// under an in-flight request.
  struct HostContext {
    std::string name;
    HostSession session;
    /// Reader/writer lock over `session`: patch mutates, everything else
    /// reads (the label cache inside has its own finer-grained mutex).
    std::shared_mutex session_mutex;

    HostContext(std::string host_name, Netlist host_netlist,
                std::size_t shard_target_devices);
    HostContext(const HostContext&) = delete;
    HostContext& operator=(const HostContext&) = delete;
  };

  struct Pending {
    std::string line;
    int out_fd = 1;
  };

  /// Serve one JSON-lines stream (reader side). Returns false only on an
  /// unrecoverable read error.
  bool serve_stream(int in_fd, int out_fd);
  int serve_socket();
  void worker_loop();
  /// The per-request isolation domain: parse, dispatch, respond. Never
  /// throws.
  void process(const Pending& pending);
  [[nodiscard]] std::string dispatch(const Request& request);

  /// Frame builders that also keep the lifetime tallies / metrics: every
  /// handler funnels its answer through one of these.
  [[nodiscard]] std::string succeed(const Request& request,
                                    json::Value result);
  [[nodiscard]] std::string fail(const json::Value& id, std::string_view op,
                                 ErrorCode code, std::string_view message,
                                 std::optional<json::Value> partial =
                                     std::nullopt);

  [[nodiscard]] std::string handle_find(const Request& request);
  [[nodiscard]] std::string handle_analyze(const Request& request);
  [[nodiscard]] std::string handle_extract(const Request& request);
  [[nodiscard]] std::string handle_lint(const Request& request);
  [[nodiscard]] std::string handle_status(const Request& request);
  [[nodiscard]] std::string handle_load(const Request& request);
  [[nodiscard]] std::string handle_patch(const Request& request);
  [[nodiscard]] std::string handle_shutdown(const Request& request);

  /// Resolve the request's host ("" = the sole loaded host). Null with
  /// *code/*message set on failure.
  [[nodiscard]] std::shared_ptr<HostContext> resolve_host(
      const Request& request, ErrorCode* code, std::string* message);
  /// Parse + flatten + wrap a netlist file / inline text into a context.
  [[nodiscard]] std::shared_ptr<HostContext> load_host_file(
      const std::string& name, const std::string& path,
      const std::string& top);
  [[nodiscard]] Budget request_budget(const Request& request) const;
  void respond(int out_fd, std::string_view frame);

  ServeOptions options_;
  ThreadPool pool_;

  std::mutex hosts_mutex_;
  std::map<std::string, std::shared_ptr<HostContext>> hosts_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  /// True once no further requests will be enqueued (EOF or drain).
  bool intake_done_ = false;
  /// Requests popped but not yet answered; guarded by queue_mutex_ (the
  /// socket loop waits on it before recycling a connection fd).
  std::size_t in_flight_ = 0;
  std::vector<std::thread> workers_;

  std::mutex write_mutex_;

  /// stop_: leave the read loop. draining_: additionally answer queued
  /// requests with `shutting_down` instead of executing them (EOF sets only
  /// stop_ — a client that closed stdin still gets every answer).
  std::atomic<bool> stop_{false};
  std::atomic<bool> draining_{false};

  /// Lifetime tallies, independent of the optional metrics sink (the
  /// `status` op reports them unconditionally).
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> oversized_{0};
};

}  // namespace subg::serve
