#!/usr/bin/env python3
"""Output A/B between two checkouts of this repository.

    python3 .github/workflows/outputs_ab.py BASE_DIR HEAD_DIR

Builds bin/smapp_cli.exe and every examples/*.exe in each tree and runs
the same CLI commands with each binary at their default seeds: every
paper figure, the trace decomposition, the conformance check, the three
chaos grids, the metrics expositions, and the 500-connection workload of
ci.yml under the fullmesh and the backup controller; then every example
(head's examples/*.ml; one missing from the base reads as a difference).
Every run is deterministic per seed, so a change that means to keep
behaviour prints the same bytes. The one wall-clock line (`simulated ...
wall ...`, workload's throughput report) is dropped before comparing.
Exits 1 naming every command whose output or exit status differs, with
the diff. Then it runs `<exe> list` for every test/*.exe and for
perfbench/test_perfbench.exe in each tree and prints the test names
removed and added, base -> head, so every deleted test is seen. Last, it
prints each lib/ directory's line count (`wc -l` over its .ml and .mli
files), base -> head, where it changed, and the total. Both are
information, not gates.
"""

import difflib
import os
import re
import subprocess
import sys

WORKLOAD = ["workload", "--conns", "500", "--arrival-rate", "500",
            "--flow-dist", "fixed:200000", "--seed", "42"]
COMMANDS = (
    [["fig2a"], ["fig2b"], ["fig2c"], ["fig3"], ["trace", "fig3", "-o", os.devnull],
     ["backoff"], ["fullmesh"], ["check", "--quick"]]
    + [["chaos", "--scenario", s, "--grid"] for s in ("control", "dataplane", "regionfail")]
    + [["metrics", e] for e in ("fig3", "chaos", "workload", "fullmesh")]
    + [WORKLOAD, WORKLOAD + ["--controller", "backup"]]
)
WALL_CLOCK = re.compile(r"^simulated .* wall")


def examples(tree):
    return sorted(f[:-3] for f in os.listdir(os.path.join(tree, "examples")) if f.endswith(".ml"))


def build(tree, names):
    """Builds the CLI and the named examples the tree has; returns their paths."""
    exes = {"smapp": "./bin/smapp_cli.exe"}
    exes.update({n: f"./examples/{n}.exe" for n in names
                 if os.path.exists(os.path.join(tree, "examples", n + ".ml"))})
    subprocess.run(["dune", "build", "--root", tree] + list(exes.values()), check=True)
    root = os.path.abspath(os.path.join(tree, "_build", "default"))
    return {n: os.path.join(root, exe) for n, exe in exes.items()}


def output(exe, args):
    if exe is None:
        return ["missing from this tree\n"]
    run = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True)
    lines = [l for l in run.stdout.splitlines(keepends=True) if not WALL_CLOCK.match(l)]
    return lines + [f"exit status {run.returncode}\n"]


# One Alcotest `list` line: the padded suite name, the index, the test name.
LISTED = re.compile(r"^(.+?)\s+\d+\s{3}(.*?)\.?$")


def test_names(tree):
    """Every test the tree's suites list, as "suite test"."""
    exes = [f"./test/{f[:-3]}.exe" for f in os.listdir(os.path.join(tree, "test"))
            if f.startswith("test_") and f.endswith(".ml")]
    exes.append("./perfbench/test_perfbench.exe")
    subprocess.run(["dune", "build", "--root", tree] + exes, check=True)
    names = set()
    for exe in exes:
        path = os.path.join(tree, "_build", "default", exe)
        listed = subprocess.run([path, "list"], stdout=subprocess.PIPE, text=True).stdout
        for line in listed.splitlines():
            m = LISTED.match(line)
            if m:
                names.add(f"{m.group(1)} {m.group(2)}")
    return names


def print_test_names(base, head):
    b, h = test_names(base), test_names(head)
    print(f"tests, base -> head (information, not a gate): {len(b)} -> {len(h)}")
    for sign, names in (("-", b - h), ("+", h - b)):
        for n in sorted(names):
            print(f"  {sign} {n}")


def lib_lines(tree):
    """Lines of lib/'s .ml and .mli files, as `wc -l` counts them, per directory."""
    lib = os.path.join(tree, "lib")
    counts = {}
    for path, _, files in os.walk(lib):
        top = os.path.relpath(path, lib).split(os.sep)[0]
        for f in files:
            if f.endswith((".ml", ".mli")):
                with open(os.path.join(path, f), "rb") as fh:
                    counts[top] = counts.get(top, 0) + fh.read().count(b"\n")
    return counts


def print_lib_lines(base, head):
    b, h = lib_lines(base), lib_lines(head)
    print("lib/ lines, base -> head (information, not a gate):")
    for d in sorted(set(b) | set(h)):
        if b.get(d, 0) != h.get(d, 0):
            print(f"  lib/{d}: {b.get(d, 0)} -> {h.get(d, 0)} ({h.get(d, 0) - b.get(d, 0):+d})")
    tb, th = sum(b.values()), sum(h.values())
    print(f"  total: {tb} -> {th} ({th - tb:+d})")


def main(base, head):
    names = examples(head)
    base_exe, head_exe = build(base, names), build(head, names)
    runs = [(" ".join(args), "smapp", args) for args in COMMANDS]
    runs += [(f"examples/{n}", n, []) for n in names]
    differ = []
    for cmd, exe, args in runs:
        b, h = output(base_exe.get(exe), args), output(head_exe.get(exe), args)
        if b == h:
            print(f"same: {cmd}")
        else:
            differ.append(cmd)
            print(f"DIFFERS: {cmd}")
            sys.stdout.writelines(difflib.unified_diff(b, h, "base", "head"))
    print_test_names(base, head)
    print_lib_lines(base, head)
    if differ:
        print(f"outputs differ on {len(differ)} command(s): {'; '.join(differ)}")
        return 1
    print(f"all {len(runs)} outputs identical")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
