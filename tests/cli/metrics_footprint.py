#!/usr/bin/env python3
"""`subgemini find --metrics` must report at least the host graph's footprint.

The csr.bytes gauge is the heap footprint of the pattern graph plus the
host graph. Whatever the layout, a host graph holds two edge slots per pin,
each with a neighbor vertex (4 bytes) and a coefficient (8 bytes), and one
8-byte label per vertex; `stats` gives the pin, device and net counts, so
that sum is a lower bound the gauge must reach.

    metrics_footprint.py --binary subgemini --library cells.sp \
        --host host.sp --pattern-top nand2

Exits 0 when the bound holds, 1 otherwise.
"""

import argparse
import json
import subprocess
import sys


def run_json(cmd):
    # --metrics also dumps the counter tree to stderr; only stdout matters.
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True).stdout
    return json.loads(out)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary", required=True)
    ap.add_argument("--library", required=True)
    ap.add_argument("--host", required=True)
    ap.add_argument("--pattern-top", required=True)
    args = ap.parse_args()

    stats = run_json([args.binary, "stats", "--format=json", args.host])
    vertices = stats["devices"] + stats["nets"]
    host_bound = 2 * stats["pins"] * (4 + 8) + vertices * 8

    doc = run_json([args.binary, "find", "--format=json", "--metrics",
                    f"--pattern-top={args.pattern_top}", args.library,
                    args.host])
    reported = doc["metrics"]["gauges"]["csr.bytes"]
    print(f"csr.bytes {reported}, host graph lower bound {host_bound}")
    if reported < host_bound:
        print("FAIL: csr.bytes does not account for the host graph",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
