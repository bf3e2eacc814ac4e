// Search-metrics registry for the matching runtime.
//
// The paper's headline claim is quantitative ("approximately linear in the
// total number of devices"), so the runtime needs first-class counters that
// explain WHY a run was fast or slow: relabeling rounds, candidate-vector
// sizes, backtracks, label-cache hits, lane utilization. A Metrics registry
// collects them as a flat name → value tree that report::Document can
// serialize into the versioned JSON output.
//
// Design:
//  - Three metric kinds. COUNTERS are monotonic uint64 sums ("phase2.seeds
//    tried"); merging shards adds them, so totals are scheduling-order
//    independent and identical at every --jobs value for deterministic
//    quantities. GAUGES are doubles that keep the maximum of every value
//    written to them, within a shard and across shards on collect: each is
//    a high-water mark ("phase2.max_guess_depth", "csr.bytes"), so a gauge
//    that several matchers or lanes write reads the same at every --jobs
//    value and under any scheduling. SPANS are wall-clock accumulators
//    (count + total seconds) for phase attribution and lane busy time.
//  - Thread safety via sharding: updates go to one of a fixed set of
//    shards selected by the calling thread's id, each guarded by its own
//    mutex. Parallel lanes therefore almost never contend — a lane's
//    updates hit "its" shard, and collect() merges all shards into one
//    Snapshot. There is no global lock on the update path.
//  - Zero-cost when no sink is attached: every instrumentation site takes
//    an obs::Metrics* that may be null and records through the null-safe
//    free helpers below (a single pointer test). Hot inner loops (Phase II
//    relabeling passes) are NOT instrumented per-iteration; the runtime
//    records its existing per-run aggregates (Phase2Stats, pool stats) at
//    phase boundaries, so the serial hot path is unchanged.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "util/timer.hpp"

namespace subg::obs {

/// Merged point-in-time view of a registry, with deterministic (sorted)
/// iteration order for serialization and golden tests.
struct Snapshot {
  struct Span {
    std::uint64_t count = 0;
    double seconds = 0;
  };
  std::map<std::string, std::uint64_t> counters;  ///< summed across shards
  std::map<std::string, double> gauges;           ///< max of every write
  std::map<std::string, Span> spans;              ///< summed across shards

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && spans.empty();
  }
  /// Counter value, 0 when absent (collect() never stores absent names).
  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }

  /// Flat text rendering for --metrics dumps: one "counter <name> <value>"
  /// / "gauge <name> <value>" / "span <name> <count> <seconds>" line per
  /// entry, sorted within each kind (the maps are ordered). Ends with '\n'
  /// unless empty.
  [[nodiscard]] std::string to_text() const;
};

class Metrics {
 public:
  Metrics() = default;
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  /// Add `delta` to the named monotonic counter.
  void add(std::string_view name, std::uint64_t delta = 1);

  /// Raise the named gauge to `value` if it is higher: a gauge is the
  /// high-water mark of every write, within a shard and across shards.
  void gauge(std::string_view name, double value);

  /// Add one timed interval to the named span.
  void span_add(std::string_view name, double seconds);

  /// Merge every shard into one snapshot. Safe to call while other threads
  /// keep recording (each shard is locked briefly in turn); the result is
  /// then at least as new as the last update that happened-before the call.
  [[nodiscard]] Snapshot collect() const;

  /// RAII wall-clock span: records into `metrics` (when non-null) at
  /// destruction. `name` must outlive the timer (string literals do).
  class SpanTimer {
   public:
    SpanTimer(Metrics* metrics, const char* name)
        : metrics_(metrics), name_(name) {}
    SpanTimer(const SpanTimer&) = delete;
    SpanTimer& operator=(const SpanTimer&) = delete;
    ~SpanTimer() {
      if (metrics_ != nullptr) metrics_->span_add(name_, timer_.seconds());
    }

   private:
    Metrics* metrics_;
    const char* name_;
    Timer timer_;
  };

 private:
  /// Enough shards that concurrent lanes rarely hash-collide; padding keeps
  /// neighbouring shard mutexes off one cache line.
  static constexpr std::size_t kShards = 16;
  struct alignas(64) Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, std::uint64_t> counters;
    std::unordered_map<std::string, double> gauges;
    std::unordered_map<std::string, Snapshot::Span> spans;
  };

  [[nodiscard]] Shard& local_shard();

  std::array<Shard, kShards> shards_;
};

// Null-safe helpers — the convention at every instrumentation site. With no
// registry attached each is a single pointer test.
inline void count(Metrics* metrics, std::string_view name,
                  std::uint64_t delta = 1) {
  if (metrics != nullptr) metrics->add(name, delta);
}
inline void gauge(Metrics* metrics, std::string_view name, double value) {
  if (metrics != nullptr) metrics->gauge(name, value);
}
inline void span_add(Metrics* metrics, std::string_view name, double seconds) {
  if (metrics != nullptr) metrics->span_add(name, seconds);
}

}  // namespace subg::obs
