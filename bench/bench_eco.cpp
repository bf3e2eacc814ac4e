// Experiment E9 — incremental (ECO) patching vs a cold rebuild.
//
// After an engineering change order edits a loaded host, a find through
// the patched session (apply + dirty-cone label recompute) must produce
// byte-identical results to a cold rebuild of the edited host; the bench
// also times both, so the patch cost can be compared with the rebuild it
// is meant to save. Per edit size E this bench
//
//  * generates a seeded delta of E edits (inverter insertions off random
//    nets, plus net add/remove and rename ops for grammar coverage),
//  * runs the find on a COLD session built from the edited netlist,
//  * runs the same find on a PATCHED session (build from the base netlist,
//    then apply the delta), and
//  * emits both rows. The paired rows must carry identical match counters
//    (the equivalence invariant, checked here and by the CI baseline);
//    the patched rows additionally carry the eco_* counters the baseline
//    gates exactly — invalidated_labels is the dirty-cone size and must
//    scale with E, not with the host.
//
// Timings (advisory): cold session build vs apply(), per edit size.
#include <cstdio>
#include <iostream>
#include <random>

#include "bench_common.hpp"
#include "session/delta.hpp"

namespace subg::bench {
namespace {

/// E seeded edits against `host`: per edit one inverter (2 devices) driven
/// from a random existing net into a fresh net, every 4th edit renamed
/// afterwards; plus one add/remove scratch-net pair per delta. Determinism:
/// minstd_rand with a fixed per-size seed, names derived from the edit
/// index.
NetlistDelta make_delta(const Netlist& host, std::size_t edits,
                        std::uint32_t seed) {
  std::minstd_rand rng(seed);
  const auto nets = static_cast<std::uint32_t>(host.net_count());
  NetlistDelta delta;
  auto op = [&delta](DeltaOpKind kind) {
    DeltaOp o;
    o.kind = kind;
    o.line = delta.ops.size() + 1;
    delta.ops.push_back(std::move(o));
    return delta.ops.size() - 1;  // push_back may reallocate: index, not ref
  };
  for (std::size_t i = 0; i < edits; ++i) {
    const std::string in =
        host.net_name(NetId(static_cast<std::uint32_t>(rng()) % nets));
    const std::string out = "eco_w" + std::to_string(i);
    const std::string mp_name = "eco_mp" + std::to_string(i);
    DeltaOp& mp = delta.ops[op(DeltaOpKind::kAddDevice)];
    mp.type = "pmos";
    mp.name = mp_name;
    mp.nets = {out, in, "vdd", "vdd"};
    DeltaOp& mn = delta.ops[op(DeltaOpKind::kAddDevice)];
    mn.type = "nmos";
    mn.name = "eco_mn" + std::to_string(i);
    mn.nets = {out, in, "gnd", "gnd"};
    if (i % 4 == 0) {
      DeltaOp& rn = delta.ops[op(DeltaOpKind::kRenameNet)];
      rn.from = out;
      rn.to = "eco_r" + std::to_string(i);
      DeltaOp& rd = delta.ops[op(DeltaOpKind::kRenameDevice)];
      rd.from = mp_name;
      rd.to = "eco_rp" + std::to_string(i);
    }
  }
  delta.ops[op(DeltaOpKind::kAddNet)].name = "eco_scratch";
  delta.ops[op(DeltaOpKind::kRemoveNet)].name = "eco_scratch";
  return delta;
}

/// One paired measurement: the cold and patched rows plus the apply stats
/// and the two advisory timings.
struct EcoPair {
  std::size_t edits = 0;
  MatchRow cold;
  MatchRow patched;
  ApplyStats stats;
  double cold_build_ms = 0;
  double patch_ms = 0;
};

/// The gated counters row: the shared match counters plus, on patched
/// rows, the eco_* members the baseline compares exactly.
json::Value eco_counters_json(const std::vector<EcoPair>& pairs) {
  json::Value arr = json::Value::array();
  auto push_row = [&arr](const MatchRow& r, const ApplyStats* stats) {
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
    if (stats != nullptr) {
      v.set("eco_patched_devices", stats->patched_devices);
      v.set("eco_patched_nets", stats->patched_nets);
      v.set("eco_renames", stats->renames);
      v.set("eco_invalidated_labels", stats->invalidated_labels);
    }
    arr.push(std::move(v));
  };
  for (const EcoPair& p : pairs) {
    push_row(p.cold, nullptr);
    push_row(p.patched, &p.stats);
  }
  return arr;
}

/// The counters that must agree between a cold rebuild and a patched
/// session for the pair to count as equivalent. Cache-reuse counters
/// (host_relabel_ops, cache_hits/misses) are deliberately excluded: they
/// are WHERE the patched session wins (it reuses rebased label rounds the
/// cold session has to compute), while everything the result depends on
/// must be identical.
bool rows_equivalent(const MatchRow& a, const MatchRow& b) {
  return a.cv == b.cv && a.found == b.found && a.rounds == b.rounds &&
         a.relabel_ops == b.relabel_ops && a.passes == b.passes &&
         a.bindings == b.bindings && a.guesses == b.guesses &&
         a.backtracks == b.backtracks && a.expansion_ops == b.expansion_ops &&
         a.domain_prunes == b.domain_prunes &&
         a.nogood_hits == b.nogood_hits && a.trail_undos == b.trail_undos &&
         a.walk_settled == b.walk_settled &&
         a.walk_fallbacks == b.walk_fallbacks;
}

void run(cli::Format format, bool quick) {
  // ~10k devices in the full run (the ISSUE's workload size); the quick
  // gate uses the same generator at a CI-friendly size.
  const std::size_t soup_gates = quick ? 400 : 2200;
  gen::Generated g = gen::logic_soup(soup_gates, 4242);
  cells::CellLibrary lib;
  const Netlist& pattern = lib.pattern("nand2");
  const std::size_t expected = g.placed_count("nand2");

  std::vector<EcoPair> pairs;
  for (std::size_t edits : {std::size_t{1}, std::size_t{8}, std::size_t{64}}) {
    EcoPair pair;
    pair.edits = edits;
    NetlistDelta delta =
        make_delta(g.netlist, edits, static_cast<std::uint32_t>(7000 + edits));
    const std::string tag = "eco_soup/e" + std::to_string(edits);

    Netlist edited = g.netlist;
    apply_delta(edited, delta);
    {
      Timer timer;
      HostSession cold = HostSession::build(std::move(edited));
      pair.cold_build_ms = timer.seconds() * 1e3;
      pair.cold = run_match_in_session(tag + "_cold", cold, "nand2", pattern,
                                       expected);
    }
    {
      HostSession patched = HostSession::build(g.netlist);
      // Warm the label cache with a find against the base host first: the
      // session is in the steady state the ECO story cares about (loaded,
      // already queried). The rebase then has cached rounds to patch, and
      // the post-patch find reuses them — host_relabel_ops collapses to
      // the dirty cone instead of the whole host.
      (void)run_match_in_session(tag + "_base", patched, "nand2", pattern,
                                 expected);
      Timer timer;
      pair.stats = patched.apply(delta);
      pair.patch_ms = timer.seconds() * 1e3;
      pair.patched = run_match_in_session(tag + "_patched", patched, "nand2",
                                          pattern, expected);
    }
    pairs.push_back(std::move(pair));
  }

  bool all_equivalent = true;
  std::vector<MatchRow> rows;
  for (const EcoPair& p : pairs) {
    all_equivalent = all_equivalent && rows_equivalent(p.cold, p.patched);
    rows.push_back(p.cold);
    rows.push_back(p.patched);
  }

  if (format == cli::Format::kJson) {
    write_quick_doc(
        "bench_eco", "E9", quick, rows, eco_counters_json(pairs),
        [&](report::Document& doc) {
          doc.set("patched_matches_cold", all_equivalent);
        },
        [&](report::Document& doc) {
          json::Value eco = json::Value::array();
          for (const EcoPair& p : pairs) {
            json::Value v = json::Value::object();
            v.set("edits", p.edits);
            v.set("cold_build_ms", p.cold_build_ms);
            v.set("patch_ms", p.patch_ms);
            v.set("invalidated_labels", p.stats.invalidated_labels);
            eco.push(std::move(v));
          }
          doc.set("eco", std::move(eco));
        });
    return;
  }

  std::printf("E9: incremental (ECO) patching vs cold rebuild "
              "(%zu-device soup)\n\n",
              g.netlist.device_count());
  print_rows(rows);
  report::Table t({"edits", "cold build ms", "patch ms", "labels recomputed"});
  for (std::size_t c = 0; c < 4; ++c) t.align_right(c);
  for (const EcoPair& p : pairs) {
    t.add_row({with_commas(static_cast<long long>(p.edits)),
               format_fixed(p.cold_build_ms, 2), format_fixed(p.patch_ms, 2),
               with_commas(static_cast<long long>(
                   p.stats.invalidated_labels))});
  }
  std::printf("\n%s", t.to_string().c_str());
  std::printf("\npatched sessions %s their cold rebuilds\n",
              all_equivalent ? "MATCH" : "DIVERGED FROM");
  if (!all_equivalent) std::exit(1);
}

}  // namespace
}  // namespace subg::bench

int main(int argc, char** argv) {
  subg::cli::Format format = subg::cli::Format::kText;
  bool quick = false;
  if (int code = subg::bench::parse_bench_args("bench_eco", argc, argv,
                                               &format, &quick)) {
    return code;
  }
  subg::bench::run(format, quick);
  return 0;
}
