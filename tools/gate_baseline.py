#!/usr/bin/env python3
"""Runs one gated bench and holds its --json document to its baseline.

Run via ctest, which registers one `baseline_<bench>` test per baseline
in bench/baselines/ that the CI perf gate compares, or directly:

    python3 gate_baseline.py build/bench/ext_sharding \\
        bench/baselines/ext_sharding.json --quick

The bench runs with the given flags and --json, then check_bench.py
compares the document with the baseline at tolerance 0: the simulator
is deterministic, so every gated metric must reproduce exactly.
"""

import os
import subprocess
import sys
import tempfile

CHECK_BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "check_bench.py")


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench, baseline, flags = argv[1], argv[2], argv[3:]
    with tempfile.TemporaryDirectory() as outdir:
        measured = os.path.join(outdir, "measured.json")
        proc = subprocess.run([bench, *flags, "--json=" + measured],
                              capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            print("%s exited %d" % (bench, proc.returncode))
            return 1
        return subprocess.run([sys.executable, CHECK_BENCH, "--tolerance",
                               "0", baseline, measured],
                              check=False).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv))
