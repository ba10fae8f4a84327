#!/usr/bin/env python3
"""Command-line contract of rhythm_sim: an unknown flag or a bad value
exits 2 with an `error: ...` line on stderr before anything runs, and
never panics; on/off flags take every spelling; `--help` lists every
entry of the flag tables exactly once.

Run via ctest, which registers this file as the `rhythm_sim_bad_input`
test, or directly:

    python3 test_rhythm_sim_cli.py build/tools/rhythm_sim

Each case that does not set --cohorts itself also passes --cohorts=1, so
a regression that lets a bad value through to the simulation still fails
in seconds.
"""

import sys
import unittest

import cli_contract

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
    # On/off flags take on|off, true|false, 1|0 and yes|no, nothing else.
    ["--recovery=maybe"],
    ["--pcie-crc=2"],
    ["--fusion=sometimes"],
    # Counts past the field they are read into are refused, not wrapped:
    # 2^32 contexts or requests per cohort used to wrap to 0 and panic,
    # 2^32 + 1 to run 1-request cohorts, and 2^32 KiB chunks to mean
    # whole transfers.
    ["--contexts=4294967296"],
    ["--cohort-size=4294967296"],
    ["--cohort-size=4294967297"],
    ["--cohorts=4294967296"],
    ["--workload=search", "--docs=4294967296"],
    ["--profile-cache-entries=4294967296"],
    ["--sms=2147483648"],
    ["--queues=2147483648"],
    ["--copy-engines=2147483648"],
    ["--copy-chunk-kb=4194304"],
    ["--retry-budget=4294967296"],
    ["--shed-backlog=4294967296"],
    ["--fusion-max-cohorts=4294967296"],
    ["--fingerprint-lanes=4294967296"],
    ["--devices=4294967296"],
    # A cohort executes at most 65,536 lanes: a larger cohort run in
    # full used to panic in the server.
    ["--cohort-size=70000", "--lane-sample=0", "--contexts=1",
     "--type=login", "--timeout-ms=100000"],
    ["--lane-sample=65537"],
    # Refused before any worker thread starts.
    ["--sim-threads=257"],
    # Crashes and torn records come from the recovery journal alone.
    ["--crash=0.05", "--torn=0.5"],
    ["--torn=0.5"],
    ["--workload=chat", "--crash=0.05"],
]

# The flag tables rhythm_sim reads, in --help order.
TABLES = ["kCommonSpecs", "kRunSpecs", "kDeviceSpecs", "kOverlapSpecs",
          "kBatchingSpecs", "kFusionSpecs", "kShardingSpecs",
          "kArrivalSpecs", "kOutputSpecs", "kFaultSpecs"]


class BadInputTest(unittest.TestCase):
    def test_bad_inputs_exit_2_with_error(self):
        for flags in BAD_INPUTS:
            with self.subTest(flags=" ".join(flags)):
                # A later --cohorts would override the case's own value.
                cap = [] if any(f.startswith("--cohorts=") for f in flags) \
                    else ["--cohorts=1"]
                cli_contract.expect_usage_error(self, [SIM, *flags, *cap])

    def test_help_lists_every_table_entry_once(self):
        cli_contract.check_help(self, SIM, TABLES)

    def test_every_listed_flag_rejects_a_value_that_cannot_parse(self):
        flags = cli_contract.check_help(self, SIM, TABLES)
        cli_contract.check_bad_values(self, SIM, flags, ["--cohorts=1"])


class OnOffSpellingTest(unittest.TestCase):
    def assert_same_run(self, base, a, b):
        self.assertEqual(cli_contract.stdout_of([SIM, *base, a]),
                         cli_contract.stdout_of([SIM, *base, b]))

    def test_equals_off_matches_no_prefix(self):
        base = ["--cohorts=1"]
        self.assertNotEqual(cli_contract.stdout_of([SIM, *base]),
                            cli_contract.stdout_of([SIM, *base,
                                                    "--no-transpose"]))
        self.assert_same_run(base, "--transpose=off", "--no-transpose")

    def test_equals_on_matches_bare_switch(self):
        base = ["--platform=titanA", "--cohorts=1"]
        self.assertNotEqual(cli_contract.stdout_of([SIM, *base]),
                            cli_contract.stdout_of([SIM, *base,
                                                    "--pcie-crc"]))
        self.assert_same_run(base, "--pcie-crc=on", "--pcie-crc")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: test_rhythm_sim_cli.py <rhythm_sim binary>")
    SIM = sys.argv.pop(1)
    unittest.main()
