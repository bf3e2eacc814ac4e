#!/usr/bin/env python3
"""End-to-end benchmark of the subgemini CLI and its serve daemon.

    python3 perfbench/run.py --workload find|extract|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; perfbench/README.md describes the
workloads and metrics. The first run builds the CLI and the layer probe
(perfbench/CMakeLists.txt, Release) under the directory named by
CARGO_TARGET_DIR, default .bench_build; later runs reuse that build. The
inputs depend only on the workload and the seed. --trace 0 times the real
CLI and daemon processes and prints the end-to-end metrics; --trace 1 makes
the same requests through layer_probe and prints the per-layer metrics.
Every answer is checked against what the generator placed; the last line of
stdout is one JSON result object.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

import decks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Host size in placed cells (about 4.4 transistors each).
HOST_CELLS = {"find": 8000, "extract": 2500, "serve": 8000}
SETUP_LOADS = 7
# On a shared virtual machine each vCPU's speed drifts on its own by tens of
# percent over seconds. Requests rotate over the CPUs, the client and the
# program pinned together for each one, so every run samples all of them.
CPUS = sorted(os.sched_getaffinity(0))


def pin(cpu, pid=None):
    """Move this process, and every thread of `pid` when given, to `cpu`."""
    os.sched_setaffinity(0, {cpu})
    if pid is not None:
        for tid in os.listdir(f"/proc/{pid}/task"):
            os.sched_setaffinity(int(tid), {cpu})


def build(build_dir):
    """Configure once, then bring the two binaries up to date."""
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "subgemini",
                  "layer_probe", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")
    return (os.path.join(build_dir, "bin", "subgemini"),
            os.path.join(build_dir, "bin", "layer_probe"))


def spawn(cmd, stdin=None, stdout=None, stderr=None):
    """posix_spawn with the given fds; the caller reaps it with os.wait4."""
    actions = []
    for fd, target in ((0, stdin), (1, stdout), (2, stderr)):
        if target is not None:
            actions.append((os.POSIX_SPAWN_DUP2, target, fd))
    return os.posix_spawn(cmd[0], cmd, os.environ, file_actions=actions)


def reap(pid):
    """Wait for pid; returns (exit code, peak RSS in MB)."""
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


class Daemon:
    """A `subgemini serve` process on pipes, one request line at a time.

    Use it in a `with` block: leaving the block without close() kills and
    reaps the daemon.
    """

    def __init__(self, cli, host):
        to_child, to_daemon = os.pipe()
        from_daemon, from_child = os.pipe()
        self.pid = spawn([cli, "serve", "--jobs=1", host],
                         stdin=to_child, stdout=from_child)
        os.close(to_child)
        os.close(from_child)
        self.writer = os.fdopen(to_daemon, "w")
        self.reader = os.fdopen(from_daemon, "r")
        self.running = True

    def ask(self, line):
        self.writer.write(line + "\n")
        self.writer.flush()
        return self.reader.readline()

    def close(self):
        """End of input drains the daemon; returns reap()'s pair."""
        self.writer.close()
        result = reap(self.pid)
        self.running = False
        self.reader.close()
        return result

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.running:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.running = False


class Inputs:
    """The decks of one run, written under `work`."""

    def __init__(self, workload, seed, work):
        rng = random.Random(f"{workload}-{seed}")
        deck, self.placed = decks.host_deck(HOST_CELLS[workload],
                                            rng.getrandbits(64))
        self.devices = decks.transistor_count(self.placed)
        self.host = os.path.join(work, "host.sp")
        self.library = os.path.join(work, "library.sp")
        with open(self.host, "w") as f:
            f.write(deck)
        with open(self.library, "w") as f:
            f.write(decks.library_deck())
        # Requests cycle through this schedule: every cell once, inv, the
        # cell with the most candidates, three times, so that neither the
        # median nor the 90th percentile sits at the edge between two cells'
        # latency clusters.
        self.cells = list(decks.CELLS) + ["inv"] * 2
        rng.shuffle(self.cells)
        self.patterns = {}
        for cell in decks.CELLS:
            self.patterns[cell] = os.path.join(work, f"{cell}.sp")
            with open(self.patterns[cell], "w") as f:
                f.write(decks.library_deck([cell]))
        self.request_lines = [find_request(cell, index)
                              for index, cell in enumerate(self.cells)]
        self.requests = os.path.join(work, "requests.jsonl")
        with open(self.requests, "w") as f:
            f.write("\n".join(self.request_lines) + "\n")

    def expected_gates(self):
        """Sorted (cell, pins...) cards of the placed gate netlist."""
        with open(self.host) as f:
            cards = [line.split() for line in f if line.startswith("x")]
        return sorted((card[-1], *card[1:-1]) for card in cards)


def find_request(cell, request_id):
    return json.dumps({"op": "find", "id": request_id,
                       "pattern": decks.library_deck([cell]),
                       "pattern_top": cell})


def placed_exactly(device_lists, placed):
    """Each instance lies in one placed cell, and every placed cell is found
    once: device names are `<placed instance>/<transistor>` after flatten."""
    found = set()
    for devices in device_lists:
        owners = {device.split("/", 1)[0] for device in devices}
        if len(owners) != 1:
            return False
        found |= owners
    return len(device_lists) == len(placed) and found == placed


def check_find_text(text, placed):
    return placed_exactly([line.split()[1:] for line in text.splitlines()
                           if line.startswith("  devices:")], placed)


def check_find_frame(frame, placed):
    answer = json.loads(frame)
    return answer.get("ok") is True and placed_exactly(
        [inst["devices"] for inst in answer["result"]["instances"]], placed)


def check_extract_text(text, expected):
    """The extracted gate netlist is the placed one, card for card."""
    gates = sorted((card[-1], *card[1:-1]) for card in
                   (line.split() for line in text.splitlines()
                    if line.startswith("x")))
    return gates == expected


def measure_setup(cli, inputs):
    """Median time for a daemon to load the host and answer `status`."""
    times = []
    for load in range(SETUP_LOADS):
        pin(CPUS[load % len(CPUS)])
        start = time.perf_counter()
        with Daemon(cli, inputs.host) as daemon:
            answer = json.loads(daemon.ask('{"op": "status", "id": 0}'))
            times.append(time.perf_counter() - start)
            code = daemon.close()[0]
        summary = answer["result"]["hosts"][0]["summary"]
        if code != 0 or summary["devices"] != inputs.devices:
            raise SystemExit(f"perfbench: host load failed: {answer}")
    return statistics.median(times)


def run_one_shot(cli, workload, inputs, seconds, work):
    """Closed loop of CLI processes: one process per request."""
    out_path = os.path.join(work, "stdout")
    expected = inputs.expected_gates() if workload == "extract" else None
    latencies, failed, peak = [], 0, 0.0
    begin = time.perf_counter()
    while len(latencies) < 2 or time.perf_counter() - begin < seconds:
        if workload == "find":
            cell = inputs.cells[len(latencies) % len(inputs.cells)]
            cmd = [cli, "find", "--jobs=1", f"--pattern-top={cell}",
                   inputs.patterns[cell], inputs.host]
        else:
            cmd = [cli, "extract", "--jobs=1", inputs.library, inputs.host]
        pin(CPUS[len(latencies) % len(CPUS)])
        with open(out_path, "w") as out, open(os.devnull, "w") as err:
            start = time.perf_counter()
            code, rss = reap(spawn(cmd, stdout=out.fileno(),
                                   stderr=err.fileno()))
            latencies.append(time.perf_counter() - start)
        peak = max(peak, rss)
        with open(out_path) as f:
            text = f.read()
        ok = code == 0 and (check_find_text(text, inputs.placed[cell])
                            if workload == "find"
                            else check_extract_text(text, expected))
        failed += not ok
    return latencies, failed, peak


def run_serve(cli, inputs, seconds):
    """Closed loop of find frames to one warm daemon."""
    lines = inputs.request_lines
    latencies, failed = [], 0
    with Daemon(cli, inputs.host) as daemon:
        daemon.ask('{"op": "status", "id": 0}')  # the host is loaded
        begin = time.perf_counter()
        while len(latencies) < 2 or time.perf_counter() - begin < seconds:
            index = len(latencies) % len(lines)
            pin(CPUS[len(latencies) % len(CPUS)], daemon.pid)
            start = time.perf_counter()
            frame = daemon.ask(lines[index])
            latencies.append(time.perf_counter() - start)
            failed += not check_find_frame(
                frame, inputs.placed[inputs.cells[index]])
        code, peak = daemon.close()
    return latencies, failed + (code != 0), peak


def end_to_end(cli, workload, inputs, seconds, work):
    setup = measure_setup(cli, inputs)
    if workload == "serve":
        latencies, failed, peak = run_serve(cli, inputs, seconds)
    else:
        latencies, failed, peak = run_one_shot(cli, workload, inputs,
                                               seconds, work)
    ms = [t * 1e3 for t in latencies]
    metrics = {
        "latency_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(ms, n=10)[-1], "ms"),
        "peak_rss_mb": (peak, "MB"),
        "setup_s": (setup, "s"),
    }
    return len(latencies), failed, metrics


def traced(probe, workload, inputs, seconds):
    if workload == "find":
        args = [inputs.patterns[cell] for cell in inputs.cells]
    elif workload == "extract":
        args = [inputs.library]
    else:
        args = [inputs.requests]
    done = subprocess.run([probe, workload, str(seconds), inputs.host, *args],
                          stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    outputs = result["outputs"]
    if workload == "extract":
        want = [sum(len(v) for v in inputs.placed.values())] * len(outputs)
    else:
        want = [len(inputs.placed[inputs.cells[i % len(inputs.cells)]])
                for i in range(len(outputs))]
    failed = sum(got != expect for got, expect in zip(outputs, want))
    layers, counts = result["layers_ms"], result["counts"]
    metrics = {f"{name}_ms": (layers[name], "ms") for name in (
        "pattern_load", "host_parse", "host_flatten", "session_build",
        "match_setup", "phase1", "phase2", "render", "request")}
    metrics.update({
        "phase1_candidates": (counts["candidates"], "count"),
        "candidate_yield": (counts["instances"] / counts["candidates"],
                            "ratio"),
        "phase2_passes": (counts["passes"], "count"),
        "phase2_expansion_ops": (counts["expansion_ops"], "count"),
        "allocs_per_request": (counts["allocs"], "count"),
        "match_allocs": (counts["match_allocs"], "count"),
        "session_heap_mb": (counts["session_mb"], "MB"),
    })
    return len(outputs), failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(HOST_CELLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        raise SystemExit(f"perfbench: no source tree at {ROOT}")
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    cli, probe = build(os.path.join(build_root, "perfbench"))
    work = os.path.join(build_root, "perfbench-work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        inputs = Inputs(args.workload, args.seed, work)
        if args.trace:
            attempted, failed, metrics = traced(probe, args.workload, inputs,
                                                args.seconds)
        else:
            attempted, failed, metrics = end_to_end(cli, args.workload, inputs,
                                                    args.seconds, work)
            os.sched_setaffinity(0, CPUS)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
