#!/usr/bin/env python3
"""Bad-input contract of rhythm_sim: an out-of-range flag exits 2 with an
`error: ...` line on stderr and never panics.

Run via ctest, which registers this file as the `rhythm_sim_bad_input`
test, or directly:

    python3 test_rhythm_sim_cli.py build/tools/rhythm_sim

Each case that does not set --cohorts itself also passes --cohorts=1, so
a regression that lets a bad value through to the simulation still fails
in seconds.
"""

import subprocess
import sys
import unittest

SIM = None

# Each entry: the flags of one run that rhythm_sim must refuse.
BAD_INPUTS = [
    ["--cohort-size=0"],
    ["--contexts=0"],
    ["--users=0"],
    ["--workload=search", "--docs=0"],
    ["--queues=0"],
    ["--sms=0"],
    ["--mem-gbs=0"],
    ["--timeout-ms=-1"],
    ["--arrival=poisson", "--arrival-rate=0"],
    ["--platform=titanA", "--pcie-gbs=0"],
    # Present but unparsable numbers are refused, not read as the default.
    ["--cohort-size=-1"],
    ["--cohorts=abc"],
    ["--timeout-ms=xyz"],
    ["--sim-threads=two"],
]


class BadInputTest(unittest.TestCase):
    def test_bad_inputs_exit_2_with_error(self):
        for flags in BAD_INPUTS:
            with self.subTest(flags=" ".join(flags)):
                # A later --cohorts would override the case's own value.
                cap = [] if any(f.startswith("--cohorts=") for f in flags) \
                    else ["--cohorts=1"]
                proc = subprocess.run(
                    [SIM, *flags, *cap], capture_output=True,
                    text=True, timeout=120)
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertIn("error:", proc.stderr)
                self.assertNotIn("panic:", proc.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: test_rhythm_sim_cli.py <rhythm_sim binary>")
    SIM = sys.argv.pop(1)
    unittest.main()
