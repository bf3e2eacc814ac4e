#include "match/matcher.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <set>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace subg {

void SubgraphMatcher::check_pattern(const CircuitGraph& s) {
  if (s.device_count() == 0) throw Error("pattern netlist has no devices");
  // Pattern must be connected when global rails are allowed as connectors:
  // Phase II refinement spreads along edges (crossing rails only via the
  // guess fallback), so an island with no rail anchor could never be placed.
  const std::size_t nv = s.vertex_count();
  std::vector<bool> seen(nv, false);
  std::vector<Vertex> stack;
  // Start from any device (patterns always have one).
  stack.push_back(0);
  seen[0] = true;
  while (!stack.empty()) {
    Vertex v = stack.back();
    stack.pop_back();
    for (const Vertex to : s.neighbors(v)) {
      if (!seen[to]) {
        seen[to] = true;
        stack.push_back(to);
      }
    }
  }
  for (Vertex v = 0; v < nv; ++v) {
    // A declared but unused global rail is harmless: rails bind by name.
    // Any other net needs a pin, or no instance could ever bind it.
    if (seen[v] || s.is_special(v)) continue;
    if (s.degree(v) == 0) {
      throw Error("pattern net '" + s.netlist().net_name(s.net_of(v)) +
                  "' connects to no device, so no instance can bind it; "
                  "remove the net or declare it global");
    }
    throw Error("pattern netlist is disconnected at " + s.vertex_name(v) +
                "; split it into connected patterns");
  }
}

void SubgraphMatcher::check_catalog_compatibility(const Netlist& pattern,
                                                  const Netlist& host) {
  if (&pattern.catalog() == &host.catalog()) return;
  for (const DeviceTypeInfo& pt : pattern.catalog().types()) {
    auto hid = host.catalog().find(pt.name);
    if (!hid) continue;  // host simply has no such devices
    const DeviceTypeInfo& ht = host.catalog().type(*hid);
    SUBG_CHECK_MSG(pt.pin_class == ht.pin_class,
                   "device type '" << pt.name
                                   << "' has different pin structure in the "
                                      "pattern and host catalogs");
  }
}

SubgraphMatcher::SubgraphMatcher(const Netlist& pattern, const Netlist& host,
                                 MatchOptions options)
    : pattern_(pattern),
      host_(host),
      options_(options),
      pattern_graph_(pattern),
      owned_host_graph_(std::in_place, host),
      host_graph_(&*owned_host_graph_) {
  validate_inputs();
  record_graph_metrics();
}

SubgraphMatcher::SubgraphMatcher(const Netlist& pattern,
                                 const CircuitGraph& host_graph,
                                 MatchOptions options)
    : pattern_(pattern),
      host_(host_graph.netlist()),
      options_(options),
      pattern_graph_(pattern),
      host_graph_(&host_graph) {
  validate_inputs();
  record_graph_metrics();
}

void SubgraphMatcher::record_graph_metrics() const {
  if (options_.metrics == nullptr) return;
  obs::Metrics& m = *options_.metrics;
  // The footprint counts both graphs the search walks, whether the host
  // graph is owned here or borrowed from a session; the build time counts
  // only the graphs this matcher built.
  m.span_add("csr.build_seconds", pattern_graph_.build_seconds());
  if (owned_host_graph_.has_value()) {
    m.span_add("csr.build_seconds", owned_host_graph_->build_seconds());
  }
  m.gauge("csr.bytes",
          static_cast<double>(pattern_graph_.bytes() + host_graph_->bytes()));
}

void SubgraphMatcher::ensure_certificate() {
  if (certificate_checked_) return;
  certificate_checked_ = true;
  infeasibility_ = analyze::check_feasibility(pattern_, host_);
}

void SubgraphMatcher::ensure_path_labels() {
  const analyze::AnalyzeOptions defaults;
  if (!pattern_paths_.has_value()) {
    pattern_paths_ = analyze::build_path_labels(
        pattern_graph_, pattern_, analyze::Side::kPattern, defaults);
  }
  if (host_paths_ == nullptr) {
    if (options_.host_path_labels != nullptr) {
      SUBG_CHECK_MSG(options_.host_path_labels->vertex_count() ==
                         host_graph_->vertex_count(),
                     "external host path labels cover a different host");
      host_paths_ = options_.host_path_labels;
    } else {
      owned_host_paths_.emplace(*host_graph_, defaults);
      host_paths_ = &*owned_host_paths_;
    }
  }
}

void SubgraphMatcher::ensure_orbits() {
  if (!pattern_orbits_.has_value()) {
    pattern_orbits_ = analyze::find_orbits(pattern_graph_, pattern_);
  }
}

void SubgraphMatcher::validate_inputs() const {
  check_pattern(pattern_graph_);
  check_catalog_compatibility(pattern_, host_);
}

MatchReport SubgraphMatcher::run(std::size_t limit) {
  MatchReport report;
  if (options_.analyze) {
    // Pre-search infeasibility certificates: each rule is a relaxation of
    // the matcher's own acceptance checks (analyze.hpp), so a certificate
    // means the full search would provably return zero instances — skip it
    // and carry the explanation instead.
    ensure_certificate();
    if (infeasibility_.has_value()) {
      report.infeasible_shortcuts = 1;
      report.infeasibility = infeasibility_;
      if (options_.metrics != nullptr) {
        options_.metrics->add("match.runs");
        options_.metrics->add("match.infeasible_shortcuts");
      }
      return report;
    }
  }
  Timer timer;

  // Resolve the parallelism lanes for this run. An external pool (shared
  // across an extract sweep) wins; otherwise jobs > 1 spins up a private
  // pool for the duration of the call. jobs == 1 keeps pool == nullptr and
  // every downstream branch takes the exact serial code path.
  ThreadPool* pool = options_.pool;
  std::optional<ThreadPool> owned_pool;
  std::size_t jobs = pool != nullptr
                         ? pool->thread_count()
                         : (options_.jobs == 0 ? ThreadPool::default_jobs()
                                               : options_.jobs);
  if (pool == nullptr && jobs > 1) {
    owned_pool.emplace(jobs);
    pool = &*owned_pool;
  }
  if (jobs <= 1) pool = nullptr;
  if (options_.metrics != nullptr && pool != nullptr) pool->enable_timing();

  Phase1Options p1 = options_.phase1;
  p1.budget = options_.budget;  // one envelope governs the whole run
  p1.pool = pool;
  p1.metrics = options_.metrics;
  report.phase1 = run_phase1(pattern_graph_, *host_graph_, p1);
  report.phase1_seconds = timer.seconds();
  obs::span_add(options_.metrics, "phase1.seconds", report.phase1_seconds);
  report.status.escalate(report.phase1.outcome,
                         "phase1: refinement interrupted; candidate vector "
                         "selected from a partial refinement");
  if (!report.phase1.feasible) return report;

  Phase2Options p2;
  p2.seed = options_.seed;
  p2.max_passes_per_candidate = options_.max_phase2_passes_per_candidate;
  p2.max_guess_depth = options_.max_guess_depth;
  p2.budget = options_.budget;
  p2.trace = options_.trace;
  p2.signature_filter = options_.phase2_filter != Phase2Filter::kOff;
  if (options_.phase2_filter == Phase2Filter::kPaths) {
    ensure_path_labels();
    p2.pattern_paths = &*pattern_paths_;
    p2.host_paths = host_paths_;
  }
  if (options_.analyze && options_.exhaustive &&
      limit == static_cast<std::size_t>(-1)) {
    // Symmetry-aware enumeration dedup is gated off whenever the match
    // limit binds: suppressing a copy could then change WHICH instances
    // fill the quota (phase2.hpp documents the soundness argument).
    ensure_orbits();
    p2.pattern_orbits = &*pattern_orbits_;
    p2.symmetry_dedup = true;
  }

  timer.reset();
  // Matcher-level dedup is by host DEVICE set — the counting convention the
  // Ullmann/VF2 baselines use (and baseline_test pins). Phase II's
  // enumerate() already dedups finer, on the full (device, net) image, so
  // external-net automorphisms are distinguishable there but collapse here.
  std::set<std::vector<std::uint32_t>> seen_device_sets;
  auto accept = [&](SubcircuitInstance&& inst) {
    if (options_.deduplicate || options_.exhaustive) {
      std::vector<std::uint32_t> key_set;
      key_set.reserve(inst.device_image.size());
      for (DeviceId d : inst.device_image) key_set.push_back(d.value);
      std::sort(key_set.begin(), key_set.end());
      if (!seen_device_sets.insert(std::move(key_set)).second) return;
    }
    report.instances.push_back(std::move(inst));
  };
  const std::vector<Vertex>& candidates = report.phase1.candidates;

  // The sweep parallelizes only when the match limit cannot cut it short
  // (each seed's work must be independent of earlier seeds' results) and
  // no pass trace is requested (trace entries interleave).
  const bool limit_binds = options_.exhaustive
                               ? limit != static_cast<std::size_t>(-1)
                               : limit < candidates.size();
  if (pool == nullptr || limit_binds || options_.trace != nullptr ||
      candidates.size() < 2) {
    // Serial sweep: one verifier, candidates in order.
    Phase2Verifier verifier(pattern_graph_, *host_graph_, p2);
    for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
      if (report.instances.size() >= limit) break;
      RunOutcome why;
      if (options_.budget.interrupted(&why)) {
        report.status.escalate(why, std::string("matcher: ") + to_string(why) +
                                        " during the candidate sweep");
        report.status.candidates_skipped += candidates.size() - ci;
        break;
      }
      if (options_.exhaustive) {
        std::vector<SubcircuitInstance> found = verifier.enumerate(
            report.phase1.key, candidates[ci], limit - report.instances.size());
        for (SubcircuitInstance& inst : found) accept(std::move(inst));
      } else {
        auto inst = verifier.verify(report.phase1.key, candidates[ci]);
        if (inst) accept(std::move(*inst));
      }
    }
    report.phase2 = verifier.stats();
    report.status.merge(verifier.status());
  } else {
    // Parallel sweep: every candidate-vector seed is an independent rooted
    // search (verify/enumerate is a pure function of the seed), so lanes
    // claim seeds dynamically; results land in per-seed slots and are
    // merged in seed-index order below. Instances, order, and status come
    // out identical to the serial sweep.
    struct SeedResult {
      std::vector<SubcircuitInstance> found;
      RunStatus status;
      bool skipped = false;
    };
    std::vector<SeedResult> seeds(candidates.size());
    std::atomic<std::size_t> next{0};
    std::atomic<int> first_interrupt{-1};

    RunOutcome why;
    if (options_.budget.interrupted(&why)) {
      // Mirrors the serial loop's check before the first candidate.
      report.status.escalate(why, std::string("matcher: ") + to_string(why) +
                                      " during the candidate sweep");
      report.status.candidates_skipped += candidates.size();
    } else {
      const std::size_t lanes = std::min(jobs, candidates.size());
      std::vector<Phase2Stats> lane_stats(lanes);
      pool->parallel_for(lanes, 1, [&](std::size_t lane_begin,
                                       std::size_t lane_end) {
        for (std::size_t lane = lane_begin; lane < lane_end; ++lane) {
          // Per-lane verifier and budget: verifier state (stats, per-seed
          // status) and the budget's poll/latch counters are lane-private;
          // the budget copies still share the deadline and cancel token.
          Phase2Verifier verifier(pattern_graph_, *host_graph_, p2);
          Budget budget = options_.budget;
          Timer lane_timer;
          std::size_t lane_seeds = 0;
          for (;;) {
            const std::size_t ci =
                next.fetch_add(1, std::memory_order_relaxed);
            if (ci >= candidates.size()) break;
            RunOutcome lane_why;
            if (budget.interrupted(&lane_why)) {
              int expected = -1;
              first_interrupt.compare_exchange_strong(
                  expected, static_cast<int>(lane_why));
              seeds[ci].skipped = true;
              continue;  // keep claiming so every unattempted seed is counted
            }
            ++lane_seeds;
            if (options_.exhaustive) {
              seeds[ci].found = verifier.enumerate(
                  report.phase1.key, candidates[ci], limit);
            } else {
              auto inst = verifier.verify(report.phase1.key, candidates[ci]);
              if (inst) seeds[ci].found.push_back(std::move(*inst));
            }
            seeds[ci].status = verifier.take_status();
          }
          lane_stats[lane] = verifier.stats();
          // Per-lane seed throughput: each lane is its own thread, so these
          // land in distinct shards; the span merge yields (lane count,
          // total busy seconds) and the counter the total seeds claimed.
          obs::span_add(options_.metrics, "phase2.lane_busy",
                        lane_timer.seconds());
          obs::count(options_.metrics, "phase2.lane_seeds_claimed",
                     lane_seeds);
          SUBG_DEBUG("matcher: lane " << lane << " tried "
                                      << lane_stats[lane].candidates_tried
                                      << " seeds, " << lane_stats[lane].passes
                                      << " passes");
        }
      });
      for (const Phase2Stats& stats : lane_stats) report.phase2.merge(stats);

      std::size_t skipped = 0;
      for (const SeedResult& seed : seeds) {
        if (seed.skipped) ++skipped;
      }
      if (skipped > 0) {
        const RunOutcome sweep_why =
            first_interrupt.load() >= 0
                ? static_cast<RunOutcome>(first_interrupt.load())
                : RunOutcome::kCancelled;
        report.status.escalate(sweep_why, std::string("matcher: ") +
                                              to_string(sweep_why) +
                                              " during the candidate sweep");
        report.status.candidates_skipped += skipped;
      }
      // Deterministic seed-index merge: same escalation order and the same
      // acceptance/deduplication order as the serial sweep.
      for (SeedResult& seed : seeds) {
        report.status.merge(seed.status);
        for (SubcircuitInstance& inst : seed.found) accept(std::move(inst));
      }
    }
  }
  report.phase2_seconds = timer.seconds();

  if constexpr (kAuditEnabled) {
    // Both sweep shapes must respect the match limit and hand back complete
    // images (one host device per pattern device, one host net per pattern
    // net — globals resolved by name included).
    SUBG_AUDIT_MSG(report.instances.size() <= limit,
                   "matcher audit: sweep exceeded the match limit");
    for (const SubcircuitInstance& inst : report.instances) {
      SUBG_AUDIT_MSG(inst.device_image.size() == pattern_.device_count(),
                     "matcher audit: instance device image is incomplete");
      SUBG_AUDIT_MSG(inst.net_image.size() == pattern_.net_count(),
                     "matcher audit: instance net image is incomplete");
    }
  }

  if (options_.metrics != nullptr) {
    obs::Metrics& m = *options_.metrics;
    m.span_add("phase2.seconds", report.phase2_seconds);
    const Phase2Stats& stats = report.phase2;
    m.add("phase2.seeds_tried", stats.candidates_tried);
    m.add("phase2.seeds_matched", stats.candidates_matched);
    m.add("phase2.passes", stats.passes);
    m.add("phase2.bindings", stats.bindings);
    m.add("phase2.ambiguity_guesses", stats.guesses);
    m.add("phase2.backtracks", stats.backtracks);
    m.add("phase2.verify_failures", stats.verify_failures);
    m.add("phase2.expansion_ops", stats.expansion_ops);
    // Fast-path counters only when they fired, so runs that never prune or
    // guess (and their golden metric snapshots) are unchanged.
    if (stats.domain_prunes != 0) m.add("phase2.domain_prunes", stats.domain_prunes);
    if (stats.nogood_hits != 0) m.add("phase2.nogood_hits", stats.nogood_hits);
    if (stats.trail_undos != 0) m.add("phase2.trail_undos", stats.trail_undos);
    if (stats.path_label_prunes != 0) {
      m.add("phase2.path_label_prunes", stats.path_label_prunes);
    }
    if (stats.symmetry_skips != 0) {
      m.add("phase2.symmetry_skips", stats.symmetry_skips);
    }
    if (stats.walk_settled != 0) m.add("phase2.walk_settled", stats.walk_settled);
    if (stats.walk_fallbacks != 0) {
      m.add("phase2.walk_fallbacks", stats.walk_fallbacks);
    }
    m.gauge("phase2.max_guess_depth",
            static_cast<double>(stats.max_guess_depth));
    m.add("match.runs");
    m.add("match.instances", report.instances.size());
    if (owned_pool.has_value()) {
      const ThreadPool::Stats ps = owned_pool->stats();
      m.add("pool.tasks", ps.tasks);
      m.add("pool.chunks", ps.chunks);
      m.add("pool.chunks_steal_free", ps.caller_chunks);
      m.span_add("pool.busy", ps.busy_seconds);
    }
  }

  SUBG_DEBUG("matcher: cv=" << report.phase1.candidates.size() << " found="
                            << report.instances.size() << " in "
                            << report.total_seconds() * 1e3 << " ms");
  return report;
}

MatchReport SubgraphMatcher::find_all() { return run(options_.max_matches); }

std::optional<SubcircuitInstance> SubgraphMatcher::find_first() {
  MatchReport report = run(1);
  if (report.instances.empty()) return std::nullopt;
  return std::move(report.instances.front());
}

}  // namespace subg
