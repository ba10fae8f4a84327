#!/usr/bin/env python3
"""Command-line contract of the bench binaries: they share rhythm_sim's
flag tables and parser, so an unknown flag or a bad value exits 2 with
`error: ...` before anything runs, `--help` lists every table entry once
and sets nothing, and the shared flags reach the runs they configure.

Run via ctest, which registers this file as the `bench_cli` test, or
directly:

    python3 test_bench_cli.py build/bench
"""

import os
import sys
import tempfile
import unittest

import cli_contract

BENCH = None

# Each entry: one bench invocation that must be refused.
BAD_INPUTS = [
    # Out-of-range values the library would otherwise assert on.
    ["ablation_sampling", "--backend-fail=7"],
    ["ablation_sampling", "--pcie-degrade=0.1", "--pcie-degrade-factor=0.5"],
    # Unparsable values and typos.
    ["ablation_sampling", "--copy-engines=abc"],
    ["ablation_sampling", "--fault-seed=xyz"],
    ["ablation_sampling", "--overlpa=on"],
    ["ext_recovery", "--sim-threads=two"],
    ["bench_sim_speedup", "--cohorts=x"],
    # A flag of a family the bench does not read.
    ["ext_recovery", "--fault-seed=2"],
    # Counts past the field they are read into are refused, not wrapped
    # (2^32 cohorts used to time zero cohorts and exit 0).
    ["bench_sim_speedup", "--cohorts=4294967296"],
    ["ablation_sampling", "--copy-chunk-kb=4194304"],
    ["ablation_sampling", "--retry-budget=4294967296"],
    ["ext_warp_fusion", "--fusion-max-cohorts=4294967296"],
    ["ext_sharding", "--devices=4294967296"],
    ["ext_recovery", "--sim-threads=257"],
    # Crashes and torn records come from the recovery journal alone.
    ["ext_warp_fusion", "--quick", "--crash=0.05", "--torn=0.5"],
    ["ablation_sampling", "--torn=0.5"],
    # The journal wraps the banking backend only.
    ["ext_chat_workload", "--recovery"],
    ["ext_search_workload", "--recovery"],
]

# The flag tables ext_warp_fusion reads, in --help order.
FUSION_TABLES = ["kCommonSpecs", "kQuickSpecs", "kFaultSpecs",
                 "kArrivalSpecs", "kFusionSpecs"]


def bench(name):
    return os.path.join(BENCH, name)


class BadInputTest(unittest.TestCase):
    def test_bad_inputs_exit_2_with_error(self):
        for name, *flags in BAD_INPUTS:
            with self.subTest(argv=" ".join([name, *flags])):
                cli_contract.expect_usage_error(self, [bench(name), *flags])

    def test_help_lists_every_table_entry_once(self):
        cli_contract.check_help(self, bench("ext_warp_fusion"),
                                FUSION_TABLES)

    def test_every_listed_flag_rejects_a_value_that_cannot_parse(self):
        binary = bench("ext_warp_fusion")
        flags = cli_contract.check_help(self, binary, FUSION_TABLES)
        cli_contract.check_bad_values(self, binary, flags)

    def test_help_sets_nothing(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out.json")
            out = cli_contract.stdout_of(
                [bench("ablation_sampling"), "--help", f"--json={path}"])
            self.assertTrue(out.startswith("usage: ablation_sampling"))
            self.assertFalse(os.path.exists(path))


class SharedFlagsReachIsolatedRunsTest(unittest.TestCase):
    """ablation_sampling runs through platform::runIsolatedType, so the
    families must reach the variant's configs, defaults included."""

    def run_sampling(self, *flags):
        return cli_contract.stdout_of([bench("ablation_sampling"), *flags])

    def test_shedding_reaches_the_server(self):
        self.assertNotEqual(self.run_sampling(),
                            self.run_sampling("--shed-backlog=1"))

    def test_fault_defaults_match_rhythm_sim(self):
        # --stall-ms defaults to 1 ms, as in rhythm_sim: a stall fires
        # and lasts as long as with the value spelled out.
        stalled = self.run_sampling("--stall=1")
        self.assertNotEqual(stalled, self.run_sampling())
        self.assertEqual(stalled,
                         self.run_sampling("--stall=1", "--stall-ms=1"))


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: test_bench_cli.py <bench binary directory>")
    BENCH = sys.argv.pop(1)
    unittest.main()
