#!/usr/bin/env python3
"""Output A/B between two checkouts of this repository.

    python3 .github/workflows/outputs_ab.py BASE_DIR HEAD_DIR

Builds bin/smapp_cli.exe in each tree and runs the same CLI commands with
each binary at their default seeds: every paper figure, the trace
decomposition, the conformance check, the three chaos grids, the metrics
expositions, and the 500-connection workload of ci.yml under the fullmesh
and the backup controller. Every run is deterministic per seed, so a
change that means to keep behaviour prints the same bytes. The one
wall-clock line (`simulated ... wall ...`, workload's throughput report)
is dropped before comparing. Exits 1 naming every command whose output
or exit status differs, with the diff.
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


def build(tree):
    subprocess.run(["dune", "build", "--root", tree, "./bin/smapp_cli.exe"], check=True)
    return os.path.abspath(os.path.join(tree, "_build", "default", "bin", "smapp_cli.exe"))


def output(exe, args):
    run = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True)
    lines = [l for l in run.stdout.splitlines(keepends=True) if not WALL_CLOCK.match(l)]
    return lines + [f"exit status {run.returncode}\n"]


def main(base, head):
    base_exe, head_exe = build(base), build(head)
    differ = []
    for args in COMMANDS:
        cmd = " ".join(args)
        b, h = output(base_exe, args), output(head_exe, args)
        if b == h:
            print(f"same: {cmd}")
        else:
            differ.append(cmd)
            print(f"DIFFERS: {cmd}")
            sys.stdout.writelines(difflib.unified_diff(b, h, "base", "head"))
    if differ:
        print(f"outputs differ on {len(differ)} command(s): {'; '.join(differ)}")
        return 1
    print(f"all {len(COMMANDS)} outputs identical")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
