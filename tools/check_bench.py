#!/usr/bin/env python3
"""Compare bench --json output against checked-in baselines.

Usage:
    check_bench.py [--tolerance 0.10] BASELINE MEASURED [BASELINE MEASURED ...]

Each file is the `{"bench": ..., "config": {...}, "metrics": {...}}`
document emitted by a bench binary's --json flag (see bench/common.hh).
For every metric key in the baseline, the measured value must be within
the tolerance in the metric's "bad" direction:

  - higher-is-better metrics (throughput, efficiency, goodput,
    reqs/Joule, headroom, speedup) fail when measured drops more than
    tolerance below baseline;
  - lower-is-better metrics (latency, p99, *_ms, cores_needed, errors)
    fail when measured rises more than tolerance above baseline;
  - everything else fails on deviation in either direction, since the
    simulator is deterministic and an unexplained shift means behaviour
    changed.

Improvements beyond tolerance are reported as notes (regenerate the
baseline to lock them in) but do not fail the gate. A metric present in
the baseline but missing from the measured run is a failure; new metrics
not yet in the baseline are notes only.

Documents may also carry an optional top-level "host" object
(bench/common.hh Reporter::hostStat) with wall-clock and memory
numbers. Unlike "metrics", host values are machine-dependent, so they
are gated with a separate, much wider band (--host-tolerance, default
0.5) using the same direction rules; a host key present on only one
side is a note, never a failure (the section is opt-in and machines
differ).

The ext_recovery document additionally must carry its fault-schedule
metadata (fault_seed, fault_schedule, recovery, watchdog_ms, pcie_crc)
in "config", report acceptance_pass = 1, and keep
overhead.goodput_ratio inside the recovery overhead band — the
resilience stack is allowed to cost a few percent, never tens.

The ext_overlap document must carry the overlap configuration
(overlap, copy_engines, copy_chunk_kb) in "config", report
acceptance_pass = 1, and keep every "*.speedup" metric at or above the
1.2x floor — the transfer/compute overlap claim is an absolute bar,
not merely a no-regression band.

The ext_adaptive_batching document must carry the arrival/deadline
metadata (arrival_rate, arrival_seed, flash_mult, deadline_default_ms,
deadline_ms, timeout_ms) in "config", report acceptance_pass = 1, keep
the flash-point ratios inside one of the two gate arms (>= 1.3x
attainment at >= 0.95x goodput, or >= 1.2x goodput at >= 0.98x
attainment), and keep the adaptive policy's own flash attainment at or
above an absolute 0.85 floor.

Exit code: 0 when every pair passes, 1 otherwise. The simulation is a
deterministic DES, so checked-in baselines are machine-independent;
only the optional host section varies between machines.
"""

import argparse
import json
import sys

HIGHER_BETTER = (
    "throughput",
    "efficiency",
    "goodput",
    "reqs_per_joule",
    "headroom",
    "speedup",
)
LOWER_BETTER = ("latency", "p99", "cores_needed", "error")


def direction(key):
    k = key.lower()
    for pat in HIGHER_BETTER:
        if pat in k:
            return "higher"
    for pat in LOWER_BETTER:
        if pat in k:
            return "lower"
    if k.endswith("_ms") or k.endswith("_watts"):
        return "lower"
    return "both"


def load(path):
    with open(path) as f:
        doc = json.load(f)
    for field in ("bench", "metrics"):
        if field not in doc:
            raise ValueError(f"{path}: missing '{field}' field")
    metrics = doc["metrics"]
    if not isinstance(metrics, dict):
        raise ValueError(
            f"{path}: 'metrics' must be an object, got "
            f"{type(metrics).__name__}"
        )
    for key, value in metrics.items():
        # bool is an int subclass but a true/false metric is a schema
        # error, not a measurement.
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(
                f"{path}: metric '{key}' is not a number "
                f"(got {type(value).__name__}: {value!r})"
            )
    host = doc.get("host", {})
    if not isinstance(host, dict):
        raise ValueError(
            f"{path}: 'host' must be an object, got "
            f"{type(host).__name__}"
        )
    for key, value in host.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(
                f"{path}: host value '{key}' is not a number "
                f"(got {type(value).__name__}: {value!r})"
            )
    return doc


# The recovery chaos harness (bench/ext_recovery.cc) gets extra schema
# and band checks on top of the generic baseline comparison: its whole
# point is an acceptance verdict plus a bounded overhead, so a document
# that drops the fault-schedule metadata (which run was this, exactly?)
# or drifts outside the overhead band is a gate failure even when every
# baseline-relative delta is within tolerance.
RECOVERY_BENCH = "ext_recovery"
RECOVERY_CONFIG_KEYS = (
    "fault_seed",
    "fault_schedule",
    "recovery",
    "watchdog_ms",
    "pcie_crc",
)
RECOVERY_OVERHEAD_BAND = (0.90, 1.02)


def validate_recovery(doc, path):
    """ext_recovery-specific checks; returns failure messages."""
    failures = []
    config = doc.get("config", {})
    for key in RECOVERY_CONFIG_KEYS:
        if key not in config:
            failures.append(
                f"{RECOVERY_BENCH}: {path} missing fault-schedule "
                f"metadata '{key}' in config — the run is not "
                "reproducible without it"
            )
    metrics = doc["metrics"]
    ratio = metrics.get("overhead.goodput_ratio")
    if ratio is None:
        failures.append(
            f"{RECOVERY_BENCH}: {path} missing metric "
            "'overhead.goodput_ratio'"
        )
    else:
        lo, hi = RECOVERY_OVERHEAD_BAND
        if not lo <= ratio <= hi:
            failures.append(
                f"{RECOVERY_BENCH}: overhead.goodput_ratio {ratio:g} "
                f"outside the recovery overhead band [{lo:g}, {hi:g}]"
            )
    if metrics.get("acceptance_pass") != 1:
        failures.append(
            f"{RECOVERY_BENCH}: {path} acceptance_pass is "
            f"{metrics.get('acceptance_pass')!r}, expected 1 — a chaos "
            "schedule was not byte-equivalent to fault-free"
        )
    return failures


# The transfer/compute overlap bench (bench/ext_overlap.cc) claims an
# absolute speedup, not just parity with a baseline: copy-engine
# overlap must lift the PCIe-bound types >=1.2x at unchanged link
# bandwidth, and the document must say which overlap configuration
# produced the number.
OVERLAP_BENCH = "ext_overlap"
OVERLAP_CONFIG_KEYS = ("overlap", "copy_engines", "copy_chunk_kb")
OVERLAP_MIN_SPEEDUP = 1.2


def validate_overlap(doc, path):
    """ext_overlap-specific checks; returns failure messages."""
    failures = []
    config = doc.get("config", {})
    for key in OVERLAP_CONFIG_KEYS:
        if key not in config:
            failures.append(
                f"{OVERLAP_BENCH}: {path} missing overlap configuration "
                f"'{key}' in config — the speedup is meaningless without "
                "the engine/chunk settings that produced it"
            )
    metrics = doc["metrics"]
    speedups = {
        key: value
        for key, value in metrics.items()
        if key.endswith(".speedup")
    }
    if not speedups:
        failures.append(
            f"{OVERLAP_BENCH}: {path} has no '*.speedup' metrics — the "
            "overlap gate measured nothing"
        )
    for key, value in sorted(speedups.items()):
        if value < OVERLAP_MIN_SPEEDUP:
            failures.append(
                f"{OVERLAP_BENCH}: '{key}' is {value:g}, below the "
                f"{OVERLAP_MIN_SPEEDUP:g}x overlap speedup floor"
            )
    if metrics.get("acceptance_pass") != 1:
        failures.append(
            f"{OVERLAP_BENCH}: {path} acceptance_pass is "
            f"{metrics.get('acceptance_pass')!r}, expected 1 — a gated "
            "type missed its speedup or changed its response bytes"
        )
    return failures


# The adaptive-batching bench (bench/ext_adaptive_batching.cc) carries
# an absolute two-arm acceptance gate at the flash-crowd point, and its
# sweep is only reproducible when the document says which arrival
# schedule and deadline assignment produced it. Mirroring the binary's
# own verdict here means a stale baseline or a hand-edited document
# cannot sneak a failing policy through CI.
ADAPTIVE_BENCH = "ext_adaptive_batching"
ADAPTIVE_CONFIG_KEYS = (
    "arrival_rate",
    "arrival_seed",
    "flash_mult",
    "deadline_default_ms",
    "deadline_ms",
    "timeout_ms",
)
# Two-arm floor, same as the bench binary: attainment arm or goodput arm.
ADAPTIVE_ATT_ARM = (1.3, 0.95)  # (attainment_ratio, goodput_ratio) floors
ADAPTIVE_GOODPUT_ARM = (0.98, 1.2)
# Absolute floor on the adaptive policy's own flash attainment — a run
# where both arms pass only because *fixed* collapsed must still fail.
ADAPTIVE_MIN_ATTAINMENT = 0.85


def validate_adaptive(doc, path):
    """ext_adaptive_batching-specific checks; returns failure messages."""
    failures = []
    config = doc.get("config", {})
    for key in ADAPTIVE_CONFIG_KEYS:
        if key not in config:
            failures.append(
                f"{ADAPTIVE_BENCH}: {path} missing arrival/deadline "
                f"metadata '{key}' in config — the sweep is not "
                "reproducible without it"
            )
    metrics = doc["metrics"]
    att = metrics.get("flash_attainment_ratio")
    goodput = metrics.get("flash_goodput_ratio")
    for key, value in (("flash_attainment_ratio", att),
                       ("flash_goodput_ratio", goodput)):
        if value is None:
            failures.append(
                f"{ADAPTIVE_BENCH}: {path} missing metric '{key}'"
            )
    if att is not None and goodput is not None:
        att_arm = (att >= ADAPTIVE_ATT_ARM[0]
                   and goodput >= ADAPTIVE_ATT_ARM[1])
        goodput_arm = (att >= ADAPTIVE_GOODPUT_ARM[0]
                       and goodput >= ADAPTIVE_GOODPUT_ARM[1])
        if not (att_arm or goodput_arm):
            failures.append(
                f"{ADAPTIVE_BENCH}: flash ratios (attainment {att:g}, "
                f"goodput {goodput:g}) satisfy neither gate arm "
                f"(>= {ADAPTIVE_ATT_ARM[0]:g}x attainment at "
                f">= {ADAPTIVE_ATT_ARM[1]:g}x goodput, or "
                f">= {ADAPTIVE_GOODPUT_ARM[1]:g}x goodput at "
                f">= {ADAPTIVE_GOODPUT_ARM[0]:g}x attainment)"
            )
    flash_att = metrics.get("flash.adaptive.attainment")
    if flash_att is None:
        failures.append(
            f"{ADAPTIVE_BENCH}: {path} missing metric "
            "'flash.adaptive.attainment'"
        )
    elif flash_att < ADAPTIVE_MIN_ATTAINMENT:
        failures.append(
            f"{ADAPTIVE_BENCH}: flash.adaptive.attainment {flash_att:g} "
            f"below the {ADAPTIVE_MIN_ATTAINMENT:g} absolute floor — "
            "a good ratio against a collapsed fixed run is not a pass"
        )
    if metrics.get("acceptance_pass") != 1:
        failures.append(
            f"{ADAPTIVE_BENCH}: {path} acceptance_pass is "
            f"{metrics.get('acceptance_pass')!r}, expected 1 — the "
            "flash-point gate failed in the measured run"
        )
    return failures


# The warp-fusion bench (bench/ext_warp_fusion.cc) carries an absolute
# acceptance gate at the flash-crowd point: fusing similarity-compatible
# partial cohorts must recover SIMD efficiency (or on-time goodput)
# over padding each cohort's tail warp. As with the adaptive gate, the
# binary's verdict is mirrored here so a stale baseline or hand-edited
# document cannot sneak a regressed packing policy through CI.
FUSION_BENCH = "ext_warp_fusion"
FUSION_CONFIG_KEYS = (
    "arrival_rate",
    "arrival_seed",
    "flash_mult",
    "cohort_size",
    "timeout_ms",
    "fusion_threshold",
)
FUSION_MIN_SIMD_RATIO = 1.15
FUSION_MIN_GOODPUT_RATIO = 1.10
# Absolute floor on the fused run's own flash SIMD efficiency — a good
# ratio against a collapsed unfused run must still fail.
FUSION_MIN_SIMD_EFFICIENCY = 0.30


def validate_fusion(doc, path):
    """ext_warp_fusion-specific checks; returns failure messages."""
    failures = []
    config = doc.get("config", {})
    for key in FUSION_CONFIG_KEYS:
        if key not in config:
            failures.append(
                f"{FUSION_BENCH}: {path} missing arrival/fusion "
                f"metadata '{key}' in config — the sweep is not "
                "reproducible without it"
            )
    metrics = doc["metrics"]
    simd = metrics.get("flash_simd_ratio")
    goodput = metrics.get("flash_goodput_ratio")
    for key, value in (("flash_simd_ratio", simd),
                       ("flash_goodput_ratio", goodput)):
        if value is None:
            failures.append(
                f"{FUSION_BENCH}: {path} missing metric '{key}'"
            )
    if simd is not None and goodput is not None:
        if not (simd >= FUSION_MIN_SIMD_RATIO
                or goodput >= FUSION_MIN_GOODPUT_RATIO):
            failures.append(
                f"{FUSION_BENCH}: flash ratios (SIMD {simd:g}, goodput "
                f"{goodput:g}) satisfy neither gate arm "
                f"(>= {FUSION_MIN_SIMD_RATIO:g}x SIMD efficiency or "
                f">= {FUSION_MIN_GOODPUT_RATIO:g}x on-time goodput)"
            )
    flash_simd = metrics.get("flash.on.simd_efficiency")
    if flash_simd is None:
        failures.append(
            f"{FUSION_BENCH}: {path} missing metric "
            "'flash.on.simd_efficiency'"
        )
    elif flash_simd < FUSION_MIN_SIMD_EFFICIENCY:
        failures.append(
            f"{FUSION_BENCH}: flash.on.simd_efficiency {flash_simd:g} "
            f"below the {FUSION_MIN_SIMD_EFFICIENCY:g} absolute floor — "
            "a good ratio against a collapsed unfused run is not a pass"
        )
    if metrics.get("acceptance_pass") != 1:
        failures.append(
            f"{FUSION_BENCH}: {path} acceptance_pass is "
            f"{metrics.get('acceptance_pass')!r}, expected 1 — the "
            "flash-point gate failed in the measured run"
        )
    return failures


# ---------------------------------------------------------------------
# ext_sharding acceptance gate (DESIGN.md 6k): the sharded fleet must
# deliver >= 1.8x single-device goodput at 2 devices and >= 3.2x at 4
# on the saturated mixed banking profile, and the single-device arm
# must itself clear an absolute goodput floor — a fleet that scales a
# collapsed baseline is not a pass. The binary's verdict is mirrored
# here so a stale baseline or hand-edited document cannot sneak a
# regressed scale-out path through CI.
SHARDING_BENCH = "ext_sharding"
SHARDING_CONFIG_KEYS = (
    "devices",
    "balance",
    "shard_seed",
    "arrival_rate",
    "arrival_seed",
    "window_ms",
    "cohort_size",
)
SHARDING_MIN_SPEEDUP_D2 = 1.8
SHARDING_MIN_SPEEDUP_D4 = 3.2
# --quick's shorter window halves the warm-up, so its absolute floor
# scales down with it (the ratio gates stay identical in both modes).
SHARDING_MIN_D1_GOODPUT = 800e3
SHARDING_MIN_D1_GOODPUT_QUICK = 300e3


def validate_sharding(doc, path):
    """ext_sharding-specific checks; returns failure messages."""
    failures = []
    config = doc.get("config", {})
    for key in SHARDING_CONFIG_KEYS:
        if key not in config:
            failures.append(
                f"{SHARDING_BENCH}: {path} missing sharding metadata "
                f"'{key}' in config — the sweep is not reproducible "
                "without it"
            )
    metrics = doc["metrics"]
    d2 = metrics.get("sharding.speedup_d2")
    d4 = metrics.get("sharding.speedup_d4")
    d1 = metrics.get("sharding.d1.goodput")
    for key, value in (("sharding.speedup_d2", d2),
                       ("sharding.speedup_d4", d4),
                       ("sharding.d1.goodput", d1)):
        if value is None:
            failures.append(
                f"{SHARDING_BENCH}: {path} missing metric '{key}'"
            )
    if d2 is not None and d2 < SHARDING_MIN_SPEEDUP_D2:
        failures.append(
            f"{SHARDING_BENCH}: 2-device speedup {d2:g}x below the "
            f"{SHARDING_MIN_SPEEDUP_D2:g}x gate"
        )
    if d4 is not None and d4 < SHARDING_MIN_SPEEDUP_D4:
        failures.append(
            f"{SHARDING_BENCH}: 4-device speedup {d4:g}x below the "
            f"{SHARDING_MIN_SPEEDUP_D4:g}x gate"
        )
    floor = (SHARDING_MIN_D1_GOODPUT_QUICK
             if config.get("quick") == 1 else SHARDING_MIN_D1_GOODPUT)
    if d1 is not None and d1 < floor:
        failures.append(
            f"{SHARDING_BENCH}: single-device goodput {d1:g} req/s "
            f"below the {floor:g} absolute floor — "
            "good ratios against a collapsed baseline are not a pass"
        )
    if metrics.get("acceptance_pass") != 1:
        failures.append(
            f"{SHARDING_BENCH}: {path} acceptance_pass is "
            f"{metrics.get('acceptance_pass')!r}, expected 1 — the "
            "scale-out gate failed in the measured run"
        )
    return failures


def compare_section(bench, base, meas, tolerance, label, missing_fails):
    """Compares one key→number section; returns (failures, notes)."""
    failures = []
    notes = []
    for key, expect in base.items():
        if key not in meas:
            msg = f"{bench}: {label} '{key}' missing from measured run"
            (failures if missing_fails else notes).append(msg)
            continue
        got = meas[key]
        if expect == 0:
            if got != 0:
                notes.append(
                    f"{bench}: '{key}' baseline is 0, measured {got:g} "
                    "(not compared)"
                )
            continue
        rel = (got - expect) / abs(expect)
        dirn = direction(key)
        worse = (
            rel < -tolerance
            if dirn == "higher"
            else rel > tolerance
            if dirn == "lower"
            else abs(rel) > tolerance
        )
        better = (
            rel > tolerance
            if dirn == "higher"
            else rel < -tolerance
            if dirn == "lower"
            else False
        )
        if worse:
            failures.append(
                f"{bench}: {label} '{key}' regressed {rel:+.1%} "
                f"(baseline {expect:g}, measured {got:g}, "
                f"{dirn}-is-better, tolerance {tolerance:.0%})"
            )
        elif better:
            notes.append(
                f"{bench}: {label} '{key}' improved {rel:+.1%} "
                f"(baseline {expect:g}, measured {got:g}) — consider "
                "regenerating the baseline"
            )

    for key in meas:
        if key not in base:
            notes.append(f"{bench}: new {label} '{key}' not in baseline")
    return failures, notes


def compare(base_doc, meas_doc, tolerance, host_tolerance, base_path,
            meas_path):
    """Returns (failures, notes) message lists for one baseline pair."""
    if base_doc["bench"] != meas_doc["bench"]:
        return [
            f"bench name mismatch: baseline {base_path} is "
            f"'{base_doc['bench']}', measured {meas_path} is "
            f"'{meas_doc['bench']}'"
        ], []

    bench = base_doc["bench"]
    failures, notes = compare_section(
        bench,
        base_doc["metrics"],
        meas_doc["metrics"],
        tolerance,
        "metric",
        missing_fails=True,
    )
    # Host numbers (wall-clock, RSS) are machine-dependent: compared
    # with the wider band, and a key present on only one side is never
    # a failure.
    host_failures, host_notes = compare_section(
        bench,
        base_doc.get("host", {}),
        meas_doc.get("host", {}),
        host_tolerance,
        "host value",
        missing_fails=False,
    )
    return failures + host_failures, notes + host_notes


def main():
    parser = argparse.ArgumentParser(
        description="Perf-regression gate over bench --json documents."
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed relative change in the bad direction (default 0.10)",
    )
    parser.add_argument(
        "--host-tolerance",
        type=float,
        default=0.5,
        help="allowed relative change for machine-dependent host "
        "values — wall-clock, RSS (default 0.5)",
    )
    parser.add_argument(
        "files",
        nargs="+",
        metavar="BASELINE MEASURED",
        help="alternating baseline/measured JSON paths",
    )
    args = parser.parse_args()
    if len(args.files) % 2 != 0:
        parser.error("expected an even number of files (baseline measured ...)")

    all_failures = []
    checked = 0
    for i in range(0, len(args.files), 2):
        base_path, meas_path = args.files[i], args.files[i + 1]
        try:
            base_doc = load(base_path)
            meas_doc = load(meas_path)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            msg = f"cannot load pair: {e}"
            print(f"FAIL: {msg}")
            all_failures.append(msg)
            continue
        failures, notes = compare(
            base_doc,
            meas_doc,
            args.tolerance,
            args.host_tolerance,
            base_path,
            meas_path,
        )
        if meas_doc["bench"] == RECOVERY_BENCH:
            failures.extend(validate_recovery(meas_doc, meas_path))
        if meas_doc["bench"] == OVERLAP_BENCH:
            failures.extend(validate_overlap(meas_doc, meas_path))
        if meas_doc["bench"] == ADAPTIVE_BENCH:
            failures.extend(validate_adaptive(meas_doc, meas_path))
        if meas_doc["bench"] == FUSION_BENCH:
            failures.extend(validate_fusion(meas_doc, meas_path))
        if meas_doc["bench"] == SHARDING_BENCH:
            failures.extend(validate_sharding(meas_doc, meas_path))
        checked += len(base_doc["metrics"])
        for msg in notes:
            print(f"note: {msg}")
        for msg in failures:
            print(f"FAIL: {msg}")
        all_failures.extend(failures)

    if all_failures:
        print(f"\nperf gate: {len(all_failures)} regression(s) across "
              f"{checked} baseline metric(s)")
        return 1
    if checked == 0:
        # A gate that compared nothing must not report success: an empty
        # baseline (or one whose metrics were all skipped) means the CI
        # step is miswired, not that performance is fine.
        print("FAIL: perf gate checked 0 baseline metrics — empty or "
              "miswired baseline")
        return 1
    print(f"perf gate: OK ({checked} baseline metric(s) within "
          f"{args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
