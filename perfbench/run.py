#!/usr/bin/env python3
"""Benchmark of the SMAPP simulator.

Run from the root of the repository:

    python3 perfbench/run.py --workload bulk_fabric --seed 1 --seconds 15 --trace 0

It builds perfbench/bench.exe with dune, then repeats the workload, each
repetition in a fresh process, until --seconds have passed and at least
three repetitions are done, and checks every repetition's simulated
outputs. Between repetitions it times a fixed reference workload that
does not use the simulator, and scales each repetition's times by the
host's speed so measured. Informational lines start with '#'; the last
line of stdout is one JSON object {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics of untraced runs;
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, each the median over them. A build
or correctness failure exits 1 and prints no result. README.md describes
the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("bulk_fabric", "conn_churn", "lossy_ecmp", "bulk_sharded")
# Domains that run a workload's lanes, where more than one.
LANES = {"bulk_sharded": 2}
# The reference workload's seconds on 1 and on 2 domains, on 2 GHz Xeon
# cores with nothing else running. A repetition's times are scaled by this
# over the mean of the reference's times just before and just after it,
# on as many domains as the workload's lanes: they read as seconds on that
# host. A shared host's speed drifts by up to 2x over minutes; the scaled
# times do not.
REFERENCE_S = {1: 0.14, 2: 0.17}


def scaled(name):
    def value(r):
        return r[name] * r["scale"]
    return value


# End-to-end metrics: unit, a repetition's value, and how one run
# summarises its repetitions. peak_heap_mb takes the largest, the memory a
# user must provision; with two domains the peak depends on when
# collections land.
END_TO_END = (
    ("run_s", "s", scaled("run_s"), statistics.median),
    ("setup_s", "s", scaled("setup_s"), statistics.median),
    ("alloc_mb", "MB", lambda r: r["alloc_mb"], statistics.median),
    ("peak_heap_mb", "MB", lambda r: r["peak_heap_mb"], max),
)
MIN_REPS = 3
# Stop starting repetitions by then, so that a run ends within 180 s.
DEADLINE_S = 140
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


class Failure(Exception):
    """A build, run or correctness failure: the run reports no numbers."""


def run_cmd(cmd, timeout=None):
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise Failure(f"{' '.join(cmd)}: {e}") from e


def build():
    proc = run_cmd(["dune", "build", "--root", ".", "./perfbench/bench.exe"])
    if proc.returncode != 0:
        raise Failure("build failed:\n" + proc.stdout + proc.stderr)


def bench(*args):
    proc = run_cmd([EXE, *args], timeout=DEADLINE_S)
    if proc.returncode != 0:
        raise Failure(f"bench.exe {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def repetition(workload, seed, traced):
    return bench("--workload", workload, "--seed", str(seed), *(["--trace"] if traced else []))


def reference(domains):
    return bench("--reference", str(domains))["reference_s"]


def git_commit():
    if not os.path.isdir(".git"):
        return "none: not a git checkout"
    proc = run_cmd(["git", "rev-parse", "HEAD"])
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def sources_sha1():
    """One hash over the simulator's and the benchmark's sources."""
    h = hashlib.sha1()
    for top in ("lib", "perfbench"):
        for root, _, files in sorted(os.walk(top)):
            for name in sorted(files):
                if name.endswith((".ml", ".mli", ".c", ".py", "dune")):
                    path = os.path.join(root, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def environment(seed):
    env = bench("--env")
    env.update(seed=seed, nproc=len(os.sched_getaffinity(0)), commit=git_commit(),
               sources_sha1=sources_sha1())
    return env


def check(workload, reps, fabric_digest):
    digests = sorted({r["digest"] for r in reps})
    if len(digests) != 1:
        raise Failure(f"simulated outputs differ between repetitions of one seed: {digests}")
    if fabric_digest is not None and fabric_digest != digests[0]:
        raise Failure(f"{workload} digest {digests[0]} differs from bulk_fabric's {fabric_digest}")
    for r in reps:
        if not r["receivers_ok"]:
            raise Failure("a completed transfer's receiver did not get exactly its bytes")
        if r["traced"] and not r["ledger"]["reconciled"]:
            raise Failure("traced layer times do not add up to the run's wall time: "
                          + json.dumps(r["ledger"]))


def layer_value(r, name):
    layer = r["layers"][name]
    return layer["value"] * (r["scale"] if layer["unit"] in ("s", "ns") else 1)


def describe(args, env, plain, traced, refs):
    first = plain[0]
    attempted = sum(r["launched"] for r in plain)
    failed = sum(r["launched"] - r["completed"] for r in plain)
    lines = [
        "environment " + json.dumps(env, sort_keys=True),
        f"{args.workload} seed {args.seed}: {len(plain)} untraced and {len(traced)} traced "
        f"repetitions, digest {first['digest']}",
        f"simulated: {first['completed']}/{first['launched']} transfers, {first['events']} events, "
        f"{first['sim_s']:.3f} s, fct p50 {first['fct_p50_s']:.4f} s p99 {first['fct_p99_s']:.4f} s, "
        f"mean goodput {first['goodput_mbps']:.4f} Mbit/s",
    ]
    for name, unit, value, summary in END_TO_END:
        values = [value(r) for r in plain]
        lines.append(f"{name} {summary(values):.6g} {unit} ({summary.__name__} of {len(values)}; "
                     f"median {statistics.median(values):.6g}, min {min(values):.6g}, "
                     f"max {max(values):.6g})")
    for name in ("run_s", "setup_s"):
        values = [r[name] for r in plain]
        lines.append(f"unscaled {name} median {statistics.median(values):.6g} s, "
                     f"min {min(values):.6g}, max {max(values):.6g}")
    lines.append(f"reference {statistics.median(refs):.6g} s (median of {len(refs)}; "
                 f"min {min(refs):.6g}, max {max(refs):.6g}; "
                 f"{REFERENCE_S[LANES.get(args.workload, 1)]} s at full speed)")
    lines.append(f"failed_share {failed / attempted:.6g} ratio "
                 f"({failed} of {attempted} transfers did not complete)")
    for line in lines:
        print("# " + line)


def result(args, plain, traced):
    reps = plain + traced
    if args.trace:
        layers = traced[0]["layers"]
        metrics = {name: {"value": statistics.median(layer_value(r, name) for r in traced),
                          "unit": layers[name]["unit"]}
                   for name in layers}
        run_s = scaled("run_s")
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(map(run_s, traced)) / statistics.median(map(run_s, plain)),
            "unit": "ratio"}
    else:
        metrics = {name: {"value": summary([value(r) for r in plain]), "unit": unit}
                   for name, unit, value, summary in END_TO_END}
    return {
        "correct": True,
        "attempted": sum(r["launched"] for r in reps),
        "failed": sum(r["launched"] - r["completed"] for r in reps),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
        started = time.monotonic()
        env = environment(args.seed)
        fabric_digest = None
        if args.workload == "bulk_sharded":
            fabric_digest = repetition("bulk_fabric", args.seed, False)["digest"]
        plain, traced = [], []
        measuring = time.monotonic()
        domains = LANES.get(args.workload, 1)
        refs = [reference(domains)]
        while True:
            reps = [repetition(args.workload, args.seed, False)]
            if args.trace:
                reps.append(repetition(args.workload, args.seed, True))
            refs.append(reference(domains))
            for r in reps:
                r["scale"] = REFERENCE_S[domains] / statistics.mean(refs[-2:])
            plain.append(reps[0])
            traced.extend(reps[1:])
            now = time.monotonic()
            if now - started > DEADLINE_S:
                break
            if len(plain) >= MIN_REPS and now - measuring >= args.seconds:
                break
        check(args.workload, plain + traced, fabric_digest)
    except Failure as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    describe(args, env, plain, traced, refs)
    print(json.dumps(result(args, plain, traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
