#!/usr/bin/env python3
"""Host-cost benchmark of the Rhythm simulator (see perfbench/README.md).

Builds perfbench_runner from the simulator sources next to this
directory, runs one workload for a time budget, checks its outputs and
prints the metrics. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.

    python3 perfbench/run.py --workload mix_1dev --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record 0 99
"""

import argparse
import concurrent.futures
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
# Recorded per workload and seed: the response digest and the
# simulated-clock metrics, which must repeat exactly.
RECORDED = ("digest", "delivered", "sim_seconds", "p50_ms", "p99_ms",
            "simd_efficiency")
WORKLOADS = ("mix_1dev", "summary_repeat", "fleet4_open", "mix_bigdb")
# Workloads whose services the fleet builds itself: the core::Service
# decorator cannot wrap them, so its metrics read 0 there.
FLEET_WORKLOADS = ("fleet4_open",)
DECORATOR_METRICS = ("rhythm.handler_s", "rhythm.handler_calls",
                     "backend.exec_s", "backend.calls")
RUNNER_TIMEOUT_S = 175


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures (once) and builds the runner; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("error: simulator sources not found at "
                         f"{ROOT / 'src'}; run from a full checkout")
    out = build_dir() / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "perfbench_runner"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit("error: build failed: " + " ".join(cmd))
    return out / "perfbench_runner"


def source_revision():
    """Git revision when available, and a hash of the simulator sources."""
    rev = None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return rev, digest.hexdigest()[:16]


def run_runner(runner, workload, seed, extra):
    cmd = [str(runner), "--workload", workload, "--seed", str(seed)] + extra
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUNNER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: runner failed ({proc.returncode}): "
                         + " ".join(cmd))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_expected():
    if EXPECTED.is_file():
        return json.loads(EXPECTED.read_text())
    return {"outputs": {}}


def recorded_outputs(workload, seed):
    return load_expected()["outputs"].get(workload, {}).get(str(seed))


def expected_outputs(res):
    """The recorded subset of a run's simulated outputs."""
    return {key: res["sim"][key] for key in RECORDED}


def output_checks(res):
    """Checks that hold for every run, whatever its seed."""
    sim = res["sim"]
    return {
        "optimized_build": res["optimized"],
        "deterministic": res["deterministic"],
        "conservation": sim["conserved"],
        "money_conservation": sim["money_conserved"],
        "responses_valid": sim["invalid"] == 0 and sim["validated"] > 0,
        "all_delivered":
            sim["delivered"] == sim["attempted"] - sim["refused"],
    }


def median(values):
    return statistics.median(values) if values else 0.0


def fastest(values):
    """The fastest of a run's iteration times.

    Other tenants of a shared machine only ever slow an iteration down,
    in phases from seconds to minutes long, and by as much as half. The
    program cannot run faster than its own work allows, so the fastest
    iteration is the one least disturbed: on six-seed sets taken in such
    phases its quartile spread across runs was 0.06-0.13, against
    0.06-0.33 for the run's median, mean or lower quartile.
    """
    return min(values)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(res):
    sim = res["sim"]
    its = res["iterations"]
    host_s = fastest([i["serve_s"] for i in its])
    return {
        "host_s": metric(host_s, "s"),
        "sim_req_per_host_s": metric(sim["responses"] / host_s, "1/s"),
        "host_cpu_s": metric(fastest([i["cpu_s"] for i in its]), "s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        "setup_s": metric(fastest([i["setup_s"] for i in its]), "s"),
        "sim_goodput_rps":
            metric(sim["responses"] / sim["sim_seconds"], "sim_req/s"),
        "sim_p50_ms": metric(sim["p50_ms"], "sim_ms"),
        "sim_p99_ms": metric(sim["p99_ms"], "sim_ms"),
        "sim_requests": metric(sim["latency_samples"], "count"),
        "sim_simd_efficiency": metric(sim["simd_efficiency"], "ratio"),
    }


def per_layer(res):
    sim = res["sim"]
    traced = res["traced_iterations"]
    counts = res["counts"]
    replay = res["replay"]

    def med(key):
        return median([i[key] for i in traced])

    des_run_s = med("des_run_s")
    pipeline_self_s = median([
        max(0.0, i["des_run_s"] - i["inject_s"] - i["handler_s"]
            - i["backend_s"] - i["respond_s"]) for i in traced])
    lookups = counts["cache_hits"] + counts["cache_misses"]
    untraced_host_s = median([i["serve_s"] for i in res["iterations"]])
    return {
        "setup.db_s": metric(med("setup_db_s"), "s"),
        "setup.server_s": metric(median([
            max(0.0, i["setup_s"] - i["setup_db_s"]) for i in traced]), "s"),
        "des.run_s": metric(des_run_s, "s"),
        "des.events": metric(sim["events"], "count"),
        "des.ns_per_event": metric(des_run_s * 1e9 / sim["events"], "ns"),
        "rhythm.inject_s": metric(med("inject_s"), "s"),
        "rhythm.handler_s": metric(med("handler_s"), "s"),
        "rhythm.handler_calls": metric(med("handler_calls"), "count"),
        "backend.exec_s": metric(med("backend_s"), "s"),
        "backend.calls": metric(med("backend_calls"), "count"),
        "rhythm.respond_s": metric(med("respond_s"), "s"),
        "rhythm.pipeline_self_s": metric(pipeline_self_s, "s"),
        "obs.emit_s": metric(res["trace_emit_s"] + res["render_s"], "s"),
        "simt.launches": metric(counts["launches"], "count"),
        "simt.warps": metric(counts["warps"], "count"),
        "profile_cache.hits": metric(counts["cache_hits"], "count"),
        "profile_cache.misses": metric(counts["cache_misses"], "count"),
        "profile_cache.hit_ratio": metric(
            counts["cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "rhythm.cohorts": metric(counts["cohorts"], "count"),
        "rhythm.fill_ratio": metric(
            sim["delivered"] / counts["cohort_slots"], "ratio"),
        "simt.kernels": metric(counts["kernels"], "count"),
        "simt.copy_bytes": metric(counts["copy_bytes"], "bytes"),
        "backend.requests": metric(counts["backend_requests"], "count"),
        "fleet.cross_completed": metric(counts["cross_completed"], "count"),
        "http.parse_s": metric(replay["parse_s"], "s"),
        "simt.warp_s": metric(replay["warp_s"], "s"),
        "simt.coalesce_s": metric(replay["coalesce_s"], "s"),
        "simt.engine_s": metric(replay["engine_s"], "s"),
        "simt.device_s": metric(replay["device_s"], "s"),
        "trace_overhead_frac": metric(med("serve_s") / untraced_host_s - 1,
                                      "frac"),
    }


def benchmark(args):
    runner = build()
    out_dir = build_dir() / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_file = out_dir / f"{args.workload}-seed{args.seed}.trace.json"
        extra += ["--trace-out", str(trace_file)]
    res = run_runner(runner, args.workload, args.seed, extra)

    checks = output_checks(res)
    expected = recorded_outputs(args.workload, args.seed)
    digest = res["sim"]["digest"]
    if expected is not None:
        checks["recorded_outputs"] = expected == expected_outputs(res)
    correct = all(checks.values())

    sim = res["sim"]
    attempted = sim["attempted"]
    failed = sim["errors"] + sim["shed"] + sim["refused"]
    if not correct:
        failed = attempted
    metrics = per_layer(res) if args.trace else end_to_end(res)

    rev, src_hash = source_revision()
    host = [i["serve_s"] for i in res["iterations"]]
    q1, q3 = quartiles(host)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_rev": rev, "source_sha256": src_hash, "nproc": res["nproc"],
        "compiler": res["compiler"], "build_type": res["build_type"],
        "sim_threads": res["sim_threads"], "requests": res["requests"],
        "iterations": len(host), "host_s_q1": q1, "host_s_q3": q3,
        "failed_frac": failed / attempted, "digest": digest,
        "checks": checks, "metrics": metrics,
    }
    with open(out_dir / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")

    print(f"perfbench: {args.workload} seed={args.seed} "
          f"requests={res['requests']} sim_threads={res['sim_threads']} "
          f"nproc={res['nproc']} build={res['build_type']} "
          f"compiler={res['compiler']} rev={rev or 'none'} "
          f"src={src_hash}")
    print(f"perfbench: serving time per iteration: median={median(host):.4f} "
          f"q1={q1:.4f} q3={q3:.4f} over {len(host)} iterations; "
          f"failed_frac={failed / attempted:.6f}; digest={digest} "
          f"({'unrecorded seed' if expected is None else 'recorded'})")
    for name, ok in checks.items():
        if not ok:
            print(f"perfbench: CHECK FAILED: {name}")
    if args.trace and args.workload in FLEET_WORKLOADS:
        print("perfbench: not measured on this workload (reported as 0): "
              + ", ".join(DECORATOR_METRICS))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def self_test():
    """Determinism checks at a tiny size (each workload, then the fleet
    across thread counts and the traced path)."""
    runner = build()
    tiny = ["--size", "tiny", "--seconds", "0", "--trace", "0"]
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in WORKLOADS:
        a = run_runner(runner, w, 11, tiny)
        b = run_runner(runner, w, 11, tiny)
        c = run_runner(runner, w, 12, tiny)
        expect(all(output_checks(a).values()), f"{w}: output checks")
        expect(a["sim"] == b["sim"], f"{w}: same seed, identical outputs")
        expect(a["sim"]["digest"] != c["sim"]["digest"],
               f"{w}: another seed, another digest")
        traced = run_runner(runner, w, 11, tiny[:-1] + ["1"])
        expect(traced["deterministic"] and traced["sim"] == a["sim"],
               f"{w}: traced outputs equal untraced")
    one = run_runner(runner, "fleet4_open", 11, tiny + ["--sim-threads", "1"])
    four = run_runner(runner, "fleet4_open", 11, tiny + ["--sim-threads", "4"])
    expect(one["sim"] == four["sim"],
           "fleet4_open: 1 and 4 sim threads, identical outputs")
    print("self-test: " + ("PASS" if not failures else
                           f"FAIL ({len(failures)} checks)"))
    return 0 if not failures else 1


def record_outputs(first, last):
    """Records each workload's expected outputs for seeds first..last."""
    runner = build()
    table = load_expected()
    once = ["--seconds", "0", "--trace", "0"]
    jobs = [(w, s) for w in WORKLOADS for s in range(first, last + 1)]

    def one(job):
        w, s = job
        res = run_runner(runner, w, s, once)
        if not all(output_checks(res).values()):
            raise SystemExit(f"error: output checks failed for {w} seed {s}")
        return w, s, expected_outputs(res)

    outputs = table["outputs"]
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        for w, s, recorded in pool.map(one, jobs):
            outputs.setdefault(w, {})[str(s)] = recorded
            log(f"{w} seed {s}: {recorded['digest']}")
    for w in outputs:
        outputs[w] = dict(sorted(outputs[w].items(),
                                 key=lambda kv: int(kv[0])))
    EXPECTED.write_text(json.dumps(table, indent=1) + "\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record", nargs=2, type=int,
                        metavar=("FIRST", "LAST"))
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.record:
        return record_outputs(*args.record)
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
