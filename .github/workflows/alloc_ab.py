#!/usr/bin/env python3
"""Allocation A/B between two checkouts of this repository.

    python3 .github/workflows/alloc_ab.py BASE_DIR HEAD_DIR

Builds perfbench/bench.exe in each tree, runs bulk_fabric, conn_churn,
lossy_ecmp and bulk_sharded once each at seed 1 with each binary, and
prints base -> head alloc_mb for each workload. A build's alloc_mb is
exact on every one of them, so one run per side decides: the three
single-domain workloads do the same work on every run, and so do
bulk_sharded's two lane domains (seven runs of one build read
264.854112 MB each). bulk_sharded is the only workload whose shard
mailboxes carry traffic. Exits 1 naming every workload whose alloc_mb grew
by more than the alloc_mb bound that HEAD_DIR's BENCHMARK.json fixes (a
fraction of the base's value).
"""

import json
import os
import subprocess
import sys

WORKLOADS = ("bulk_fabric", "conn_churn", "lossy_ecmp", "bulk_sharded")
SEED = "1"


def build(tree):
    subprocess.run(["dune", "build", "--root", tree, "./perfbench/bench.exe"], check=True)
    return os.path.abspath(os.path.join(tree, "_build", "default", "perfbench", "bench.exe"))


def alloc_mb(exe, workload):
    out = subprocess.run([exe, "--workload", workload, "--seed", SEED], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.splitlines()[-1])["alloc_mb"]


def main(base, head):
    with open(os.path.join(head, "BENCHMARK.json")) as f:
        bound = next(m["bound"] for m in json.load(f)["end_to_end"] if m["name"] == "alloc_mb")
    base_exe, head_exe = build(base), build(head)
    grew = []
    for w in WORKLOADS:
        b, h = alloc_mb(base_exe, w), alloc_mb(head_exe, w)
        print(f"{w}: alloc_mb {b:.2f} -> {h:.2f} MB ({h / b - 1:+.1%})")
        if h > b * (1 + bound):
            grew.append(w)
    if grew:
        print(f"alloc_mb grew by more than {bound:.0%} on: {', '.join(grew)}")
        return 1
    print(f"alloc_mb within {bound:.0%} of the base on every workload")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
