#!/usr/bin/env python3
"""CI bench-regression gate: compare bench JSON output against a baseline.

The quick-mode benches (bench_linearity --quick, bench_table2 --quick) emit
a "counters" member of deterministic work counters per (circuit, cell) row —
Phase I rounds and relabel contributions, label-cache hits/misses, Phase II
passes, bindings, guesses, backtracks, and edge-visit counts. These are
identical on every machine and at every --jobs value, so the gate
compares them EXACTLY: any drift is an algorithmic
change that must be acknowledged by regenerating the baseline.

Wall-clock members ("timings") are machine artifacts and are only reported,
never gated.

Usage:
  check_bench_baseline.py BASELINE.json OUTPUT.json...           # gate
  check_bench_baseline.py --subset BASELINE.json OUTPUT.json...  # partial gate
  check_bench_baseline.py --update BASELINE.json OUTPUT.json...  # regenerate

Each OUTPUT.json is one bench document (report::Document schema v1) whose
"tool" member names the bench. Exits 0 when every output's counters match
the baseline, 1 on any mismatch or missing bench.

By default every bench in the baseline must have an output — the gate exists
to catch silent coverage loss, not just drift. CI lanes that deliberately
split the benches (the scale-gate lane runs only bench_shard; bench-gate
runs the rest) pass --subset to gate just the outputs they produced;
tools/check_ci_coverage.py separately asserts that the union of all lanes
still covers every baseline bench, so --subset never hides a dropped bench.
--subset is a gating flag only: --update always replaces the whole baseline
and therefore needs the full output set.

Stdlib only — runs on a bare CI python3.
"""

import json
import sys

GATED_KEYS = (
    "cv", "found", "expected", "rounds", "relabel_ops", "host_relabel_ops",
    "cache_hits", "cache_misses", "passes", "bindings", "guesses",
    "backtracks", "expansion_ops", "domain_prunes", "nogood_hits",
    "trail_undos",
    # Forced-pin walk verdicts: candidates settled without relabeling, and
    # walks that got stuck and fell back to the relabel search.
    "walk_settled", "walk_fallbacks",
    # ECO patching counters (bench_eco patched rows only; absent elsewhere,
    # and None == None keeps non-ECO rows unaffected).
    "eco_patched_devices", "eco_patched_nets", "eco_renames",
    "eco_invalidated_labels",
    # Static-analyzer counters (path-label prunes in the Phase II prefilter,
    # automorphism-folded enumeration skips, certificate short-circuits).
    "path_label_prunes", "symmetry_skips", "infeasible_shortcuts",
    # Sharded-sweep counters: the region plan is a pure function of the host
    # and the round-0 skip rule a pure function of (plan, pattern), so these
    # are exact too. Zero on monolithic rows.
    "shards_total", "shards_skipped", "shards_prefilter_rejects",
)


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def row_key(row):
    return (row.get("circuit", "?"), row.get("cell", "?"))


def check_counters(tool, baseline_rows, output_rows):
    """Exact comparison; returns a list of human-readable problems."""
    problems = []
    base_by_key = {row_key(r): r for r in baseline_rows}
    out_by_key = {row_key(r): r for r in output_rows}
    for key in base_by_key:
        if key not in out_by_key:
            problems.append(f"{tool}: row {key} missing from output")
    for key in out_by_key:
        if key not in base_by_key:
            problems.append(f"{tool}: row {key} not in baseline "
                            "(workload changed? regenerate with --update)")
    for key, base in base_by_key.items():
        out = out_by_key.get(key)
        if out is None:
            continue
        for field in GATED_KEYS:
            bv, ov = base.get(field), out.get(field)
            if bv != ov:
                problems.append(
                    f"{tool}: {key[0]}/{key[1]} {field}: "
                    f"baseline {bv} != output {ov}")
    return problems


def report_timings(tool, baseline_rows, output_rows):
    """Advisory: print relative drift of per-row wall-clock times."""
    base_by_key = {row_key(r): r for r in baseline_rows}
    for out in output_rows:
        base = base_by_key.get(row_key(out))
        if base is None:
            continue
        bt = float(base.get("phase1_ms", 0)) + float(base.get("phase2_ms", 0))
        ot = float(out.get("phase1_ms", 0)) + float(out.get("phase2_ms", 0))
        if bt <= 0:
            continue
        delta = 100.0 * (ot - bt) / bt
        marker = "  <-- advisory: large timing drift" if abs(delta) > 50 else ""
        print(f"  timing {row_key(out)[0]}/{row_key(out)[1]}: "
              f"{bt:.2f} ms -> {ot:.2f} ms ({delta:+.0f}%){marker}")


def main(argv):
    args = list(argv[1:])
    update = False
    subset = False
    while args and args[0] in ("--update", "--subset"):
        if args[0] == "--update":
            update = True
        else:
            subset = True
        args = args[1:]
    if update and subset:
        print("error: --subset only applies to gating; --update replaces "
              "the whole baseline and needs the full output set",
              file=sys.stderr)
        return 2
    if len(args) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    baseline_path, output_paths = args[0], args[1:]
    outputs = {}
    for path in output_paths:
        doc = load(path)
        tool = doc.get("tool")
        if not tool:
            print(f"error: {path} has no 'tool' member", file=sys.stderr)
            return 2
        if "counters" not in doc:
            print(f"error: {path} ({tool}) has no 'counters' member "
                  "(did the bench run with --quick --format=json?)",
                  file=sys.stderr)
            return 2
        if not doc.get("quick", False):
            print(f"error: {path} ({tool}) was not a --quick run; the "
                  "baseline only covers quick workloads", file=sys.stderr)
            return 2
        outputs[tool] = doc

    if update:
        baseline = {
            "schema_version": 1,
            "comment": "Deterministic bench work counters; regenerate with "
                       "tools/check_bench_baseline.py --update after an "
                       "intentional algorithmic change.",
            "benches": {
                tool: {
                    "counters": doc["counters"],
                    "timings": doc.get("timings", []),
                }
                for tool, doc in sorted(outputs.items())
            },
        }
        with open(baseline_path, "w", encoding="utf-8") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {baseline_path} ({len(outputs)} bench(es))")
        return 0

    baseline = load(baseline_path)
    benches = baseline.get("benches", {})
    problems = []
    for tool, doc in sorted(outputs.items()):
        base = benches.get(tool)
        if base is None:
            problems.append(f"{tool}: not in baseline "
                            "(regenerate with --update)")
            continue
        print(f"== {tool}")
        problems += check_counters(tool, base.get("counters", []),
                                   doc["counters"])
        report_timings(tool, base.get("timings", []), doc.get("timings", []))
    if not subset:
        for tool in benches:
            if tool not in outputs:
                problems.append(
                    f"{tool}: baseline entry has no output to check")

    if problems:
        print(f"\nFAIL: {len(problems)} counter mismatch(es):")
        for p in problems:
            print(f"  {p}")
        print("\nIf the drift is an intentional algorithmic change, "
              "regenerate the baseline:\n"
              "  tools/check_bench_baseline.py --update BENCH_baseline.json "
              "<outputs...>")
        return 1
    print(f"\nOK: {len(outputs)} bench(es) match the baseline exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
