#!/usr/bin/env python3
"""Speed, allocation, heap and simulated-output A/B between two checkouts
of this repository.

    python3 .github/workflows/alloc_ab.py BASE_DIR HEAD_DIR

Builds perfbench/bench.exe in each tree, runs bulk_fabric, conn_churn,
lossy_ecmp and bulk_sharded at seed 1 REPS times with each binary, and
prints base -> head digest, events, run_s, setup_s, alloc_mb and
peak_heap_mb for each workload. Each round runs every workload once per
side, alternating which side goes first. It then runs every workload once
per side at each of EXTRA_SEEDS (2 and 3) and prints base -> head digest,
events, alloc_mb and peak_heap_mb there: all four are exact per build
(peak_heap_mb on the single-domain workloads), so one run reads them.

digest and events are the simulated outputs: deterministic per seed, so
a change that means to keep behaviour keeps both, and one that means to
move them says so in CHANGES.md (the policy of outputs_ab.py). Every
repetition of both sides must read the same.

run_s is gated on a paired estimator: each round runs a workload's base
and head back to back, and the gate reads the median over the rounds of
head's run_s over base's, unscaled. A shared host's speed drifts by up
to 2x over minutes; the two runs of one pair share most of that drift,
and the median drops the pairs a slow spell split. Each side's fastest
repetition is printed beside it, not gated: two copies of one tree read
it up to 33% apart. bulk_sharded's time depends on whether the host
gives its second lane domain a CPU (on 2 CPUs it is bimodal), so it is
printed, not gated. setup_s (building the topology, endpoints and
control plane before the run) is read the same paired way and printed
on every workload, not gated.

A build's alloc_mb is exact on every workload: the three single-domain
workloads do the same work on every run, and so do bulk_sharded's two
lane domains (seven runs of one build read one value). bulk_sharded is
the only workload whose shard mailboxes carry traffic.

peak_heap_mb is exact per build on the three single-domain workloads
(four runs of each of two builds read one value each), so it is gated
there too. bulk_sharded's peak depends on when its two domains collect
(one build read 8.71-16.11 MB over five runs); it is printed, not gated.
Both are each side's largest repetition. The peak also moves with GC
pacing: a change that allocates fewer short-lived words runs fewer
minor collections, so fewer major slices, and the same live data can
peak higher. Seeds 2 and 3 print it, not gated, so that a seed-1 move
can be read against that spread.

Exits 1 naming every workload (and seed, beyond seed 1) whose digest or
events differ, and every one whose gated run_s, alloc_mb or peak_heap_mb
got worse by more than the bound that HEAD_DIR's BENCHMARK.json fixes for
that metric (a fraction of the base's value); at seeds 2 and 3 only
alloc_mb is gated.
"""

import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("bulk_fabric", "conn_churn", "lossy_ecmp", "bulk_sharded")
SINGLE_DOMAIN = ("bulk_fabric", "conn_churn", "lossy_ecmp")
# (metric, unit, a side's value from its repetitions, workloads it is gated on)
GATED = (
    ("alloc_mb", "MB", max, WORKLOADS),
    ("peak_heap_mb", "MB", max, SINGLE_DOMAIN),
)
SEED = "1"
# Seeds run once per side for the exact outputs and alloc_mb.
EXTRA_SEEDS = ("2", "3")
# Repetitions of each workload per side.
REPS = 10
OUTPUTS = ("digest", "events")


def build(tree):
    subprocess.run(["dune", "build", "--root", tree, "./perfbench/bench.exe"], check=True)
    return os.path.abspath(os.path.join(tree, "_build", "default", "perfbench", "bench.exe"))


def measure(exe, workload, seed=SEED):
    out = subprocess.run([exe, "--workload", workload, "--seed", seed], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.splitlines()[-1])


def main(base, head):
    with open(os.path.join(head, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    exes = (build(base), build(head))
    runs = {w: ([], []) for w in WORKLOADS}
    for i in range(REPS):
        for w in WORKLOADS:
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                runs[w][side].append(measure(exes[side], w))
    moved, worse = [], []
    for w in WORKLOADS:
        b, h = runs[w]
        for key in OUTPUTS:
            print(f"{w}: {key} {b[0][key]} -> {h[0][key]}")
            if len({r[key] for r in b + h}) != 1:
                moved.append(f"{w} {key}")
        paired = statistics.median(hr["run_s"] / br["run_s"] for br, hr in zip(b, h)) - 1
        bv, hv = min(r["run_s"] for r in b), min(r["run_s"] for r in h)
        timed = w in SINGLE_DOMAIN
        print(f"{w}: run_s {paired:+.1%} (median of head/base over {REPS} rounds)"
              + ("" if timed else ", not gated")
              + f"; fastest of {REPS} {bv:.3f} -> {hv:.3f} s ({hv / bv - 1:+.1%}), not gated")
        if timed and paired > bounds["run_s"]:
            worse.append(f"{w} run_s")
        setup = statistics.median(hr["setup_s"] / br["setup_s"] for br, hr in zip(b, h)) - 1
        print(f"{w}: setup_s {setup:+.1%} (median of head/base over {REPS} rounds), not gated")
        for metric, unit, summary, gated_on in GATED:
            gated = w in gated_on
            bv, hv = summary(r[metric] for r in b), summary(r[metric] for r in h)
            change = hv / bv - 1
            print(f"{w}: {metric} {bv:.3f} -> {hv:.3f} {unit} ({change:+.1%}, "
                  f"{summary.__name__} of {REPS})" + ("" if gated else ", not gated"))
            if gated and change > bounds[metric]:
                worse.append(f"{w} {metric}")
    for seed in EXTRA_SEEDS:
        for w in WORKLOADS:
            b, h = (measure(exe, w, seed) for exe in exes)
            for key in OUTPUTS:
                print(f"{w} seed {seed}: {key} {b[key]} -> {h[key]}")
                if b[key] != h[key]:
                    moved.append(f"{w} seed {seed} {key}")
            change = h["alloc_mb"] / b["alloc_mb"] - 1
            print(f"{w} seed {seed}: alloc_mb {b['alloc_mb']:.3f} -> {h['alloc_mb']:.3f} MB "
                  f"({change:+.1%}, one run)")
            if change > bounds["alloc_mb"]:
                worse.append(f"{w} seed {seed} alloc_mb")
            peak = h["peak_heap_mb"] / b["peak_heap_mb"] - 1
            print(f"{w} seed {seed}: peak_heap_mb {b['peak_heap_mb']:.3f} -> "
                  f"{h['peak_heap_mb']:.3f} MB ({peak:+.1%}, one run), not gated")
    if moved:
        print(f"simulated outputs differ on: {', '.join(moved)}")
    if worse:
        print(f"worse by more than its bound on: {', '.join(worse)}")
    if moved or worse:
        return 1
    print("same simulated outputs, every gated metric within its bound of the base")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
