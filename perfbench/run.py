#!/usr/bin/env python3
"""Build and run the RECORD benchmark for one workload.

    python3 perfbench/run.py --workload serve-stream --seed 1 --seconds 30 --trace 0

Builds perfbench/perfbench.exe with dune from the sources in this
checkout, measures set-up time over several fresh processes, runs the
workload's closed loop (serve-stream: in fresh processes one after
another, see serve_stream.ml), and prints a human report followed, as
the last line of standard output, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s included);
with --trace 1 they are the per-layer ones.  Exits non-zero when the
program cannot be built or any output differs from the reference.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ("serve-stream", "dsp-long", "dse-farm")
# Set-up is measured in this many fresh processes before the run and as
# many after it, besides the run's own: the host's speed drifts during a
# run.  The reported setup_s is the median of them all.
SETUP_PROBES = 7
RUN_TIMEOUT_S = 170
# A serve-stream request does the same work again only in a fresh
# process (see serve_stream.ml): an untraced run starts one process after
# another until the window has passed, and at least this many.
REPLAYS = {"serve-stream": 3}
# Each distinct unit is timed by this quantile of its repeats.  Other
# tenants of a shared host slow units by up to a half for seconds at a
# time, in some runs far more often than in others; the fast tail of a
# unit's repeats is where they did not, and it moves with the program.
UNIT_QUANTILE = 0.1


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: the program's sources are missing" % ROOT)
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(ROOT, ".perfbench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "perfbench/perfbench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not run: %s" % e)
    if done.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def commit():
    """The checked-out revision when the tree is a git work tree."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        path = os.path.join(ROOT, ".git", ref[5:])
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_exe(args):
    """Run the benchmark executable; returns (start time, stdout lines,
    exit code)."""
    started = time.time()
    proc = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s timed out" % " ".join(args), 3)
    return started, out.splitlines(), proc.returncode


def last_json(lines):
    for line in reversed(lines):
        if line.startswith("{"):
            return json.loads(line)
    return None


def setup_seconds(workload):
    """Process start to ready-for-the-first-unit, in one fresh process."""
    started, lines, code = run_exe(["--workload", workload, "--probe-setup"])
    doc = last_json(lines)
    if code != 0 or doc is None:
        fail("set-up probe for %s failed" % workload, 3)
    return doc["ready_at"] - started


def percentile(xs, p):
    """Nearest rank."""
    xs = sorted(xs)
    return xs[max(0, min(len(xs) - 1, math.ceil(p * len(xs)) - 1))]


def unit_repeats(docs):
    """The window's latencies after the reference units, by distinct unit,
    over every process of the run."""
    repeats = {}
    for d in docs:
        for i, ms in enumerate(d["latencies_ms"]):
            if i >= d["prefix"]:
                repeats.setdefault((i - d["prefix"]) % d["cycle"], []).append(ms)
    if not repeats:
        fail("no unit after the reference units completed inside the window", 3)
    return list(repeats.values())


def end_to_end(docs, setups):
    """The run's end-to-end metrics from its processes' reports."""
    repeats = unit_repeats(docs)
    times = [percentile(r, UNIT_QUANTILE) for r in repeats]
    own = docs[0]["metrics"]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s":
            docs[0]["work_per_unit"] * len(times) / (sum(times) / 1000.0),
        "latency_p50_ms": statistics.median(times),
        "latency_p90_ms": percentile(times, 0.9),
        "compiled_share": own["compiled_share"]["value"],
        "code_words": own["code_words"]["value"],
        "sim_cycles": own["sim_cycles"]["value"],
        "peak_rss_mb": statistics.median(
            d["metrics"]["peak_rss_mb"]["value"] for d in docs),
    }
    units = {"setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_p90_ms": "ms", "compiled_share": "fraction",
             "code_words": "words", "sim_cycles": "cycles", "peak_rss_mb": "MB"}
    counts = [len(r) for r in repeats]
    print("%d units in the window over %d process%s: %d distinct after the "
          "reference units, %d to %d repeats each; setup samples: %s" % (
              sum(len(d["latencies_ms"]) for d in docs), len(docs),
              "es" if len(docs) > 1 else "", len(repeats), min(counts),
              max(counts), ", ".join("%.3f" % x for x in setups)))
    for name, value in metrics.items():
        print("  %-36s %14.4f %s" % (name, value, units[name]))
    return {name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    build()
    rev = commit()
    setups = [setup_seconds(a.workload) for _ in range(SETUP_PROBES)]
    replays = REPLAYS.get(a.workload, 1) if a.trace == 0 else 1
    deadline = time.time() + a.seconds
    docs = []
    ok = True
    while len(docs) < replays or (replays > 1 and time.time() < deadline):
        left = max(1.0, deadline - time.time())
        started, lines, code = run_exe(
            ["--workload", a.workload, "--seed", str(a.seed),
             "--seconds", repr(left), "--trace", str(a.trace), "--commit", rev])
        doc = last_json(lines)
        if doc is None:
            fail("run of %s printed no result (exit %d)" % (a.workload, code), 3)
        ok = ok and code == 0 and doc["correct"]
        setups.append(doc["ready_at"] - started)
        docs.append(doc)
        for line in lines[:-1]:
            print(line)
    setups += [setup_seconds(a.workload) for _ in range(SETUP_PROBES)]
    if a.trace == 0:
        metrics = end_to_end(docs, setups)
    else:
        metrics = docs[0]["metrics"]
    result = {"correct": all(d["correct"] for d in docs),
              "attempted": sum(d["attempted"] for d in docs),
              "failed": sum(d["failed"] for d in docs),
              "metrics": metrics}
    print(json.dumps(result))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
