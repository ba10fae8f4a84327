#!/usr/bin/env python3
"""Equivalence table: pairs of rhythm_sim runs whose outputs must match.

Run via ctest, which registers this file as the `rhythm_sim_equivalence`
test, or directly:

    python3 test_equivalence.py build/tools/rhythm_sim

Each row names two rhythm_sim flag sets and what must be identical
between their runs:

  - "digest": the order-insensitive digest of every delivered response
    (--digest-out), so the two runs served the same bytes whatever
    their timing;
  - "json": the whole --json document, so every simulated metric and
    the DES fingerprint (event count, dispatch-order hash) agree;
  - "trace": the whole --trace-out pipeline trace, so every span on
    every track starts, lasts and is named alike.

A flag set shared by several rows runs once; it writes a trace only
when a "trace" row compares it. Every run must exit 0.
"""

import os
import subprocess
import sys
import tempfile

# Titan A in the fig9 shape, one request type per run.
FIG9 = ["--platform=titanA", "--cohorts=10", "--users=2000",
        "--lane-sample=128"]
LOGOUT = FIG9 + ["--type=logout"]
PAYEE = FIG9 + ["--type=post payee"]
# The serial, cache-off reference run (rhythm_sim's defaults).
DEFAULT = ["--cohorts=3"]
# Open-loop Poisson banking with contexts sized so dispatch never waits
# on a completion: cohort composition is a pure function of arrivals.
FUSION = ["--workload=banking", "--cohort-size=128", "--lane-sample=128",
          "--cohorts=30", "--arrival=poisson", "--arrival-rate=50000",
          "--contexts=1024", "--seed=7"]


def fleet(devices):
    """A fleet under open-loop overload with cross-shard transfers."""
    return ["--workload=banking", "--devices=%d" % devices,
            "--arrival=poisson", "--arrival-rate=4000000", "--cohorts=10",
            "--cross-shard=0.005"]


def rows():
    """(what must match, flags of run A, flags of run B) for each row."""
    table = []
    # DESIGN.md 6d: --sim-threads changes wall-clock only.
    # DESIGN.md 6e: so does the warp profile cache, serial or parallel.
    # DESIGN.md 6k: --devices=1 is the single-device path itself.
    for other in (["--sim-threads=8"],
                  ["--sim-threads=1", "--profile-cache=on"],
                  ["--sim-threads=8", "--profile-cache=on"],
                  ["--devices=1"]):
        for what in ("json", "trace"):
            table.append((what, DEFAULT, DEFAULT + other))
    # DESIGN.md 6f: the parser's base-0 recording, rebased per lane,
    # serves cached templates in both buffer layouts and without padding.
    for layout in (["--transpose=off"], ["--padding=off"]):
        for what in ("json", "trace"):
            table.append((what, DEFAULT + layout,
                          DEFAULT + layout + ["--profile-cache=on"]))
    # DESIGN.md 6f: host stages run stage-major; login and logout mix
    # serial and lane-parallel stages, chat and search fan every stage
    # out (chat posts mutate the room store in the merge).
    for run in (["--type=login"], ["--type=logout"], ["--workload=chat"],
                ["--workload=search"]):
        for what in ("json", "trace"):
            table.append((what, DEFAULT + run + ["--sim-threads=1"],
                          DEFAULT + run + ["--sim-threads=8"]))
    # DESIGN.md 6i: every adaptive path is gated on --batching=adaptive,
    # so explicit fixed closed-loop flags are the flagless run; the
    # adaptive flash run is itself thread-count invariant.
    flash = DEFAULT + ["--batching=adaptive", "--arrival=flash",
                       "--arrival-rate=60000"]
    for threads in ("1", "8"):
        flagless = DEFAULT + ["--sim-threads=" + threads]
        for what in ("json", "digest"):
            table.append((what, flagless,
                          DEFAULT + ["--sim-threads=" + threads,
                                     "--batching=fixed", "--arrival=closed"]))
    table.append(("json", DEFAULT + ["--sim-threads=1"],
                  DEFAULT + ["--sim-threads=8"]))
    for what in ("json", "digest"):
        table.append((what, flash + ["--sim-threads=1"],
                      flash + ["--sim-threads=8"]))
    # DESIGN.md 6j: fusion repacks tail warps but never changes a
    # response byte: all eight fusion x cache x threads runs serve the
    # same digest, and each arm is thread-count invariant.
    reference = FUSION + ["--fusion=off", "--profile-cache=off",
                          "--sim-threads=1"]
    for fusion in ("off", "on"):
        for cache in ("off", "on"):
            arm = FUSION + ["--fusion=" + fusion, "--profile-cache=" + cache]
            for threads in ("1", "8"):
                run = arm + ["--sim-threads=" + threads]
                if run != reference:
                    table.append(("digest", reference, run))
            table.append(("json", arm + ["--sim-threads=1"],
                          arm + ["--sim-threads=8"]))
    # An N-device fleet merges its per-device streams canonically, so
    # it is thread-count and cache invariant like one device.
    for devices in (2, 4):
        serial = fleet(devices) + ["--sim-threads=1"]
        for other in (["--sim-threads=8"],
                      ["--sim-threads=8", "--profile-cache=on"]):
            for what in ("json", "digest"):
                table.append((what, serial, fleet(devices) + other))
    # DESIGN.md 6g, 6k: every shard's journal draws the fleet's crash
    # schedule and recovers transparently, at any thread count.
    for devices in (2, 4):
        recovering = fleet(devices) + ["--recovery"]
        crashing = recovering + ["--crash=0.02", "--torn=0.5"]
        for what in ("json", "digest"):
            table.append((what, recovering + ["--sim-threads=1"],
                          crashing + ["--sim-threads=1"]))
            table.append((what, crashing + ["--sim-threads=1"],
                          crashing + ["--sim-threads=8"]))
    for base in (LOGOUT, PAYEE):
        # DESIGN.md 6h: the overlapped pipeline never changes a response
        # byte, and each mode is thread-count invariant.
        for overlap in ("off", "on"):
            mode = base + ["--overlap=" + overlap]
            for what in ("json", "digest"):
                table.append((what, mode + ["--sim-threads=1"],
                              mode + ["--sim-threads=8"]))
        table.append(("digest", base + ["--overlap=off", "--sim-threads=1"],
                      base + ["--overlap=on", "--sim-threads=1"]))
    # The copy configuration changes when bytes cross the link, never
    # which bytes are served.
    for copies in (["--copy-engines=2"], ["--copy-chunk-kb=64"],
                   ["--copy-engines=4", "--copy-chunk-kb=256"]):
        table.append(("digest", PAYEE, PAYEE + copies))
    return table


# The rhythm_sim flag that writes each output kind.
OUTPUT_FLAG = {"json": "--json=", "digest": "--digest-out=",
               "trace": "--trace-out="}


def run(sim, flags, outdir, cache, traced):
    """Runs rhythm_sim once per distinct flag set; returns its outputs.
    A flag set in @p traced also writes its pipeline trace."""
    key = tuple(flags)
    if key not in cache:
        stem = os.path.join(outdir, "run%d" % len(cache))
        kinds = ["json", "digest"] + (["trace"] if key in traced else [])
        proc = subprocess.run(
            [sim, *flags] + [OUTPUT_FLAG[what] + stem + "." + what
                             for what in kinds],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            check=False)
        if proc.returncode != 0:
            raise RuntimeError("rhythm_sim %s exited %d: %s" %
                               (" ".join(flags), proc.returncode,
                                proc.stderr.strip()))
        outputs = {}
        for what in kinds:
            with open(stem + "." + what, "rb") as f:
                outputs[what] = f.read()
        cache[key] = outputs
    return cache[key]


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sim = argv[1]
    failures = 0
    cache = {}
    table = rows()
    traced = {tuple(flags) for what, *pair in table if what == "trace"
              for flags in pair}
    with tempfile.TemporaryDirectory() as outdir:
        for what, flags_a, flags_b in table:
            same = (run(sim, flags_a, outdir, cache, traced)[what] ==
                    run(sim, flags_b, outdir, cache, traced)[what])
            failures += not same
            common = [f for f in flags_a if f in flags_b]
            only_a = [f for f in flags_a if f not in flags_b] or ["(none)"]
            only_b = [f for f in flags_b if f not in flags_a] or ["(none)"]
            print("%s  %-6s  %s:  %s  vs  %s" %
                  ("ok  " if same else "FAIL", what, " ".join(common),
                   " ".join(only_a), " ".join(only_b)))
    print("%d of %d rows match (%d runs)" %
          (len(table) - failures, len(table), len(cache)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
