#!/usr/bin/env python3
"""Allocation, heap and simulated-output A/B between two checkouts of
this repository.

    python3 .github/workflows/alloc_ab.py BASE_DIR HEAD_DIR

Builds perfbench/bench.exe in each tree, runs bulk_fabric, conn_churn,
lossy_ecmp and bulk_sharded once each at seed 1 with each binary, and
prints base -> head digest, events, alloc_mb and peak_heap_mb for each
workload.

digest and events are the simulated outputs: deterministic per seed, so
a change that means to keep behaviour keeps both, and one that means to
move them says so in CHANGES.md (the policy of outputs_ab.py).

A build's alloc_mb is exact on every one of them, so one run per side
decides: the three single-domain workloads do the same work on every run,
and so do bulk_sharded's two lane domains (seven runs of one build read
264.854112 MB each). bulk_sharded is the only workload whose shard
mailboxes carry traffic.

peak_heap_mb is exact per build on the three single-domain workloads
(four runs of each of two builds read one value each), so it is gated
there too. bulk_sharded's peak depends on when its two domains collect
(one build read 8.71-16.11 MB over five runs); it is printed, not gated.

Exits 1 naming every workload whose digest or events differ, and every
workload whose alloc_mb, or gated peak_heap_mb, grew by more than the
bound that HEAD_DIR's BENCHMARK.json fixes for that metric (a fraction
of the base's value).
"""

import json
import os
import subprocess
import sys

WORKLOADS = ("bulk_fabric", "conn_churn", "lossy_ecmp", "bulk_sharded")
# (metric, workloads it is gated on)
GATED = (
    ("alloc_mb", WORKLOADS),
    ("peak_heap_mb", ("bulk_fabric", "conn_churn", "lossy_ecmp")),
)
SEED = "1"
OUTPUTS = ("digest", "events")


def build(tree):
    subprocess.run(["dune", "build", "--root", tree, "./perfbench/bench.exe"], check=True)
    return os.path.abspath(os.path.join(tree, "_build", "default", "perfbench", "bench.exe"))


def measure(exe, workload):
    out = subprocess.run([exe, "--workload", workload, "--seed", SEED], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.splitlines()[-1])


def main(base, head):
    with open(os.path.join(head, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    base_exe, head_exe = build(base), build(head)
    moved, grew = [], []
    for w in WORKLOADS:
        b, h = measure(base_exe, w), measure(head_exe, w)
        for key in OUTPUTS:
            print(f"{w}: {key} {b[key]} -> {h[key]}")
            if b[key] != h[key]:
                moved.append(f"{w} {key}")
        for metric, gated_on in GATED:
            gated = w in gated_on
            change = h[metric] / b[metric] - 1
            print(f"{w}: {metric} {b[metric]:.2f} -> {h[metric]:.2f} MB ({change:+.1%})"
                  + ("" if gated else ", not gated"))
            if gated and change > bounds[metric]:
                grew.append(f"{w} {metric}")
    if moved:
        print(f"simulated outputs differ on: {', '.join(moved)}")
    if grew:
        print(f"grew by more than its bound on: {', '.join(grew)}")
    if moved or grew:
        return 1
    print("same simulated outputs, every gated metric within its bound of the base")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
