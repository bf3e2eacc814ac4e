#include "extract/extract.hpp"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "gemini/gemini.hpp"
#include "match/host_labels.hpp"
#include "obs/metrics.hpp"
#include "session/session.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace subg::extract {

namespace {

/// Copy `pattern`, renaming each port net to the given unique marker name
/// and declaring it global — pinning port identities for an isomorphism
/// test. `swap_a`/`swap_b` (port positions) exchange marker names.
Netlist pin_ports(const Netlist& pattern, std::size_t swap_a,
                  std::size_t swap_b) {
  Netlist out(pattern.catalog_ptr(), pattern.name());
  auto ports = pattern.ports();
  std::vector<std::string> names(pattern.net_count());
  for (std::uint32_t n = 0; n < pattern.net_count(); ++n) {
    names[n] = pattern.net_name(NetId(n));
  }
  for (std::size_t i = 0; i < ports.size(); ++i) {
    std::size_t marker = i;
    if (i == swap_a) marker = swap_b;
    if (i == swap_b) marker = swap_a;
    names[ports[i].index()] = "!pin" + std::to_string(marker);
  }
  for (std::uint32_t n = 0; n < pattern.net_count(); ++n) {
    const NetId id(n);
    NetId nn = out.add_net(names[n]);
    if (pattern.is_global(id) || pattern.is_port(id)) out.mark_global(nn);
  }
  std::vector<NetId> pins;
  for (std::uint32_t d = 0; d < pattern.device_count(); ++d) {
    const DeviceId id(d);
    pins.clear();
    for (NetId pn : pattern.device_pins(id)) pins.push_back(NetId(pn.value));
    out.add_device(pattern.device_type(id), pins);
  }
  return out;
}

}  // namespace

std::vector<std::uint32_t> port_equivalence_classes(const Netlist& pattern) {
  const std::size_t n = pattern.ports().size();
  std::vector<std::uint32_t> parent(n);
  for (std::size_t i = 0; i < n; ++i) parent[i] = static_cast<std::uint32_t>(i);
  auto find = [&](std::uint32_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };

  const Netlist reference = pin_ports(pattern, n, n);  // no swap
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (find(static_cast<std::uint32_t>(i)) ==
          find(static_cast<std::uint32_t>(j))) {
        continue;
      }
      // Cheap filter: interchangeable ports must at least share a degree.
      if (pattern.net_degree(pattern.ports()[i]) !=
          pattern.net_degree(pattern.ports()[j])) {
        continue;
      }
      Netlist swapped = pin_ports(pattern, i, j);
      if (compare_netlists(reference, swapped).isomorphic) {
        parent[find(static_cast<std::uint32_t>(j))] =
            find(static_cast<std::uint32_t>(i));
      }
    }
  }

  std::vector<std::uint32_t> classes(n);
  std::vector<std::uint32_t> dense(n, 0xFFFFFFFFu);
  std::uint32_t next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t root = find(static_cast<std::uint32_t>(i));
    if (dense[root] == 0xFFFFFFFFu) dense[root] = next++;
    classes[i] = dense[root];
  }
  return classes;
}

std::shared_ptr<const DeviceCatalog> extended_catalog(
    const DeviceCatalog& base, const std::vector<LibraryCell>& cells) {
  auto cat = std::make_shared<DeviceCatalog>();
  for (const DeviceTypeInfo& t : base.types()) {
    std::vector<PinSpec> pins = t.pins;
    cat->add_type(t.name, std::move(pins));
  }
  for (const LibraryCell& cell : cells) {
    SUBG_CHECK_MSG(!cat->find(cell.name).has_value(),
                   "library cell '" << cell.name
                                    << "' collides with an existing type");
    std::vector<std::uint32_t> classes = port_equivalence_classes(cell.pattern);
    std::vector<PinSpec> pins;
    auto ports = cell.pattern.ports();
    for (std::size_t i = 0; i < ports.size(); ++i) {
      pins.push_back(PinSpec{cell.pattern.net_name(ports[i]),
                             "c" + std::to_string(classes[i])});
    }
    SUBG_CHECK_MSG(!pins.empty(),
                   "library cell '" << cell.name << "' has no ports");
    cat->add_type(cell.name, std::move(pins));
  }
  return cat;
}

Netlist clone_netlist(const Netlist& source,
                      std::shared_ptr<const DeviceCatalog> catalog) {
  Netlist out(std::move(catalog), source.name());
  for (std::uint32_t n = 0; n < source.net_count(); ++n) {
    const NetId id(n);
    NetId nn = out.add_net(source.net_name(id));
    if (source.is_global(id)) out.mark_global(nn);
    if (source.is_port(id)) out.mark_port(nn);
  }
  std::vector<NetId> pins;
  for (std::uint32_t d = 0; d < source.device_count(); ++d) {
    const DeviceId id(d);
    pins.clear();
    for (NetId pn : source.device_pins(id)) pins.push_back(NetId(pn.value));
    out.add_device(out.catalog().require(source.device_type_info(id).name), pins,
                   source.device_name(id));
  }
  return out;
}

ExtractResult extract_gates(const Netlist& transistors,
                            const std::vector<LibraryCell>& cells,
                            const ExtractOptions& options) {
  // Every cell is checked before any is matched, so a bad library fails
  // the same way at every --jobs, naming the cell.
  for (const LibraryCell& cell : cells) {
    try {
      SubgraphMatcher::check_pattern(CircuitGraph(cell.pattern));
    } catch (const Error& e) {
      throw Error("library cell '" + cell.name + "': " + e.what());
    }
  }
  auto catalog = extended_catalog(transistors.catalog(), cells);

  // Processing order: the subcircuit partial order approximated by
  // descending size (ties by name for determinism).
  std::vector<const LibraryCell*> order;
  order.reserve(cells.size());
  for (const LibraryCell& c : cells) order.push_back(&c);
  if (options.largest_first) {
    std::stable_sort(order.begin(), order.end(),
                     [](const LibraryCell* a, const LibraryCell* b) {
                       if (a->pattern.device_count() != b->pattern.device_count()) {
                         return a->pattern.device_count() > b->pattern.device_count();
                       }
                       return a->name < b->name;
                     });
  }

  ExtractResult result{clone_netlist(transistors, catalog), {}, {}};
  Netlist& working = result.netlist;
  result.report.devices_before = working.device_count();

  // Resolve the shared pool for the sweep. The same pool drives (a)
  // concurrent per-cell matches within a size tier and (b) each match's own
  // Phase I relabeling / Phase II candidate parallelism, so the lane count
  // is bounded by jobs regardless of nesting.
  ThreadPool* pool = options.match.pool;
  std::optional<ThreadPool> owned_pool;
  const std::size_t jobs =
      pool != nullptr ? pool->thread_count()
                      : (options.match.jobs == 0 ? ThreadPool::default_jobs()
                                                 : options.match.jobs);
  if (pool == nullptr && jobs > 1) {
    owned_pool.emplace(jobs);
    pool = &*owned_pool;
  }
  if (jobs <= 1) pool = nullptr;
  obs::Metrics* metrics = options.match.metrics;
  if (metrics != nullptr && pool != nullptr) pool->enable_timing();

  // Lint preflight: a host with structural defects (floating gates, rail
  // shorts) produces matches that LOOK valid but extract garbage; errors
  // cancel the sweep before any replacement, warnings only inform.
  bool lint_cancelled = false;
  if (options.lint_host) {
    lint::LintOptions lo = options.lint;
    lo.pattern_checks = false;
    if (lo.metrics == nullptr) lo.metrics = metrics;
    result.host_lint = lint::lint_netlist(transistors, lo);
    if (result.host_lint.has_errors()) {
      lint_cancelled = true;
      result.report.cells_skipped = order.size();
      obs::count(metrics, "extract.cells_skipped", result.report.cells_skipped);
      result.report.status.escalate(
          RunOutcome::kCancelled,
          "extract: host netlist failed the lint preflight (" +
              std::to_string(result.host_lint.errors) +
              " error(s)); extraction skipped");
    }
  }

  std::uint64_t gate_serial = 0;
  std::size_t oi = 0;
  while (!lint_cancelled && oi < order.size()) {
    RunOutcome why;
    if (options.match.budget.interrupted(&why)) {
      result.report.cells_skipped = order.size() - oi;
      obs::count(metrics, "extract.cells_skipped", result.report.cells_skipped);
      result.report.status.escalate(
          why, std::string("extract: ") + to_string(why) + " before cell '" +
                   order[oi]->name + "'; " +
                   std::to_string(result.report.cells_skipped) +
                   " cell(s) skipped");
      break;
    }

    // Size tier: the largest-first partial order only constrains cells of
    // DIFFERENT sizes (a cell cannot be a proper subcircuit of an
    // equal-sized one), so equal-sized cells match independently against
    // one host snapshot — concurrently when a pool is available — and their
    // replacements apply serially in cell order afterwards. Tier batching
    // is used for every jobs value, so reports are identical across jobs.
    std::size_t tier_end = oi + 1;
    if (options.largest_first) {
      while (tier_end < order.size() &&
             order[tier_end]->pattern.device_count() ==
                 order[oi]->pattern.device_count()) {
        ++tier_end;
      }
    }
    const std::size_t tier_size = tier_end - oi;

    // One session snapshot (graph + label cache + path-label memo) shared
    // by every match in the tier. It borrows the working netlist and hands
    // it back once the tier's matches are done.
    obs::Metrics::SpanTimer tier_span(metrics, "extract.tier");
    obs::count(metrics, "extract.tiers");
    obs::count(metrics, "extract.cells_attempted", tier_size);
    HostSession tier_session = HostSession::build(std::move(working));
    struct CellMatch {
      MatchReport report;
      double seconds = 0;
    };
    std::vector<CellMatch> tier(tier_size);
    auto run_cell = [&](std::size_t ti) {
      Timer match_timer;
      MatchOptions mo = options.match;
      tier_session.configure(mo);
      mo.pool = pool;
      SubgraphMatcher matcher(order[oi + ti]->pattern, tier_session.graph(),
                              mo);
      tier[ti].report = matcher.find_all();
      tier[ti].seconds = match_timer.seconds();
    };
    if (pool != nullptr && tier_size > 1) {
      pool->parallel_for(tier_size, 1,
                         [&](std::size_t begin, std::size_t end) {
                           for (std::size_t ti = begin; ti < end; ++ti) {
                             run_cell(ti);
                           }
                         });
    } else {
      for (std::size_t ti = 0; ti < tier_size; ++ti) run_cell(ti);
    }
    // The tier's shared label cache dies here; fold its reuse totals in
    // (matches in the tier skip recording for caller-shared caches).
    record_cache_stats(metrics, tier_session.cache().stats());
    working = std::move(tier_session).take_netlist();

    // Apply replacements serially in cell order. Device ids in every
    // instance refer to the tier-start snapshot, so victims accumulate
    // across the tier and are removed in one compaction at the end.
    std::unordered_set<std::uint32_t> claimed;
    std::vector<DeviceId> victims;
    std::vector<NetId> pins;
    for (std::size_t ti = 0; ti < tier_size; ++ti) {
      const LibraryCell* cell = order[oi + ti];
      ExtractReport::PerCell per;
      per.cell = cell->name;
      per.outcome = tier[ti].report.status.outcome;
      per.infeasible = tier[ti].report.infeasible_shortcuts != 0;
      result.report.infeasible_shortcuts += tier[ti].report.infeasible_shortcuts;
      result.report.status.merge(tier[ti].report.status);

      // Greedy non-overlapping acceptance; `claimed` spans the whole tier
      // so an earlier cell's replacements exclude later cells' overlaps.
      const DeviceTypeId gate_type = working.catalog().require(cell->name);
      std::size_t cell_victims = 0;
      for (const SubcircuitInstance& inst : tier[ti].report.instances) {
        bool free = true;
        for (DeviceId d : inst.device_image) {
          if (claimed.contains(d.value)) {
            free = false;
            break;
          }
        }
        if (!free) continue;
        for (DeviceId d : inst.device_image) claimed.insert(d.value);
        pins.clear();
        for (NetId port : cell->pattern.ports()) {
          pins.push_back(inst.net_image[port.index()]);
        }
        working.add_device(gate_type, pins,
                           cell->name + "_" + std::to_string(gate_serial++));
        for (DeviceId d : inst.device_image) victims.push_back(d);
        ++per.instances;
        cell_victims += inst.device_image.size();
      }
      per.devices_replaced = cell_victims;
      per.seconds = tier[ti].seconds;
      obs::count(metrics, "extract.instances", per.instances);
      obs::count(metrics, "extract.devices_removed", cell_victims);
      if (per.instances > 0) obs::count(metrics, "extract.cells_matched");
      result.report.cells.push_back(std::move(per));
      SUBG_DEBUG("extract: " << cell->name << " x" << per.instances);
    }
    working.remove_devices(victims);
    oi = tier_end;
  }

  result.report.devices_after = working.device_count();
  if (metrics != nullptr) {
    metrics->add("extract.runs");
    metrics->gauge("extract.devices_before",
                   static_cast<double>(result.report.devices_before));
    metrics->gauge("extract.devices_after",
                   static_cast<double>(result.report.devices_after));
    if (owned_pool.has_value()) {
      const ThreadPool::Stats ps = owned_pool->stats();
      metrics->add("pool.tasks", ps.tasks);
      metrics->add("pool.chunks", ps.chunks);
      metrics->add("pool.chunks_steal_free", ps.caller_chunks);
      metrics->span_add("pool.busy", ps.busy_seconds);
    }
  }
  std::unordered_set<std::string> cell_names;
  for (const LibraryCell& c : cells) cell_names.insert(c.name);
  for (std::uint32_t d = 0; d < working.device_count(); ++d) {
    if (!cell_names.contains(working.device_type_info(DeviceId(d)).name)) {
      ++result.report.unextracted_primitives;
    }
  }
  return result;
}

ExtractResult extract_gates(HostSession& session,
                            const std::vector<LibraryCell>& cells,
                            const ExtractOptions& options) {
  // Extraction re-clones the host onto the extended catalog and mutates it
  // tier by tier, so the session's own graph/cache cannot be matched
  // against directly: the sweep builds its per-tier snapshot sessions. This
  // overload is the session-first entry point for callers (CLI, serve) that
  // keep the host in a HostSession for ECO patching.
  return extract_gates(session.netlist(), cells, options);
}

Netlist expand_gates(const Netlist& gates, const std::vector<LibraryCell>& cells,
                     std::shared_ptr<const DeviceCatalog> catalog) {
  Netlist out(catalog, gates.name());
  for (std::uint32_t n = 0; n < gates.net_count(); ++n) {
    const NetId id(n);
    NetId nn = out.add_net(gates.net_name(id));
    if (gates.is_global(id)) out.mark_global(nn);
    if (gates.is_port(id)) out.mark_port(nn);
  }

  std::uint64_t serial = 0;
  std::vector<NetId> pins;
  for (std::uint32_t d = 0; d < gates.device_count(); ++d) {
    const DeviceId id(d);
    const std::string& tname = gates.device_type_info(id).name;
    const LibraryCell* cell = nullptr;
    for (const LibraryCell& c : cells) {
      if (c.name == tname) {
        cell = &c;
        break;
      }
    }
    if (cell == nullptr) {
      // Primitive: copy through.
      pins.clear();
      for (NetId pn : gates.device_pins(id)) pins.push_back(NetId(pn.value));
      out.add_device(out.catalog().require(tname), pins, gates.device_name(id));
      continue;
    }
    // Instantiate the cell's transistors; ports bind to the gate's pins,
    // internal nets get fresh names.
    const Netlist& pat = cell->pattern;
    auto gpins = gates.device_pins(id);
    SUBG_CHECK(gpins.size() == pat.ports().size());
    std::vector<NetId> net_map(pat.net_count(), NetId());
    for (std::size_t p = 0; p < gpins.size(); ++p) {
      net_map[pat.ports()[p].index()] = NetId(gpins[p].value);
    }
    const std::string prefix = "x" + std::to_string(serial++) + "/";
    for (std::uint32_t n = 0; n < pat.net_count(); ++n) {
      const NetId pn(n);
      if (net_map[n].valid()) continue;
      if (pat.is_global(pn)) {
        NetId g = out.ensure_net(pat.net_name(pn));
        out.mark_global(g);
        net_map[n] = g;
      } else {
        net_map[n] = out.add_net(prefix + pat.net_name(pn));
      }
    }
    for (std::uint32_t pd = 0; pd < pat.device_count(); ++pd) {
      const DeviceId pid(pd);
      pins.clear();
      for (NetId pn : pat.device_pins(pid)) pins.push_back(net_map[pn.index()]);
      out.add_device(out.catalog().require(pat.device_type_info(pid).name), pins,
                     prefix + pat.device_name(pid));
    }
  }
  return out;
}

}  // namespace subg::extract
