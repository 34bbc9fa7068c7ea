#!/usr/bin/env python3
"""Perf-CI gate: compare a fresh micro_framework JSON run to a committed
baseline (BENCH_micro.json).

Two checks, in decreasing order of signal:

1. Allocation counters are machine-independent: every benchmark reporting an
   `allocs_per_item` counter must stay at (effectively) zero. A steady-state
   allocation is a code regression no amount of CI noise can excuse. The
   same holds for event churn: every benchmark reporting a
   `scheduled_per_flow` counter (events scheduled per fabric flow) must stay
   at or below MAX_SCHEDULED_PER_FLOW (2.0: one activation and one
   completion per flow once each instant's rate updates are coalesced).

2. Throughput ratios are machine-DEPENDENT: the committed baseline was
   recorded on one box, CI runs on another. The gate therefore only fails
   when a benchmark's items_per_second (or, failing that, real_time) is
   worse than `--threshold` times the baseline — a catastrophic-regression
   tripwire, not a microbenchmark referee. Tighten the threshold only with a
   pinned runner.

Usage: check_perf.py --baseline BENCH_micro.json --run fresh.json
                     [--threshold 0.4]

Shard-scaling mode (--shard-scaling) gates bench/shard_scaling --json against
BENCH_shard.json. The determinism half is machine-independent and pinned
hard: simulated time and the finish-time hash must match the committed
baseline exactly (the bench itself already exits non-zero if any shard count
disagrees within the run). The speedup half is machine-DEPENDENT: the
wall-clock floor for 8 shards (--min-shard-speedup) is enforced only when the
run's recorded hw_threads >= 8, a reduced floor when >= 4, and skipped with a
notice on smaller runners — a 1-core container cannot parallelise anything.
The baseline's wall clock is only the usual catastrophic tripwire.

Usage: check_perf.py --shard-scaling --run shard.json --baseline BENCH_shard.json
                     [--min-shard-speedup 3.0] [--threshold 0.4]
"""

import argparse
import json
import subprocess
import sys

# (disabled variant, reference) benchmark-name pairs for the intra-run
# disabled-path guard; per-arg suffixes ("/64", "/512") are matched
# automatically.
DISABLED_PAIRS = [
    ("BM_SimulatedBcastFaultsDisabled", "BM_SimulatedBcast"),
    ("BM_SimulatedBcastTraceDisabled", "BM_SimulatedBcast"),
    ("BM_SimulatedBcastRecoveryDisabled", "BM_SimulatedBcast"),
    # The flight recorder is the "always on" configuration: sampling +
    # bounded windows must keep it within the same intra-run bound the
    # genuinely-disabled paths get, or always-on tracing stops being free.
    ("BM_SimulatedBcastFlightRecorder", "BM_SimulatedBcast"),
]

# Ceiling for every reported scheduled_per_flow counter: one activation and
# one completion per flow. A fixed constant, not a flag: the counter is
# machine-independent, so no runner needs a looser value.
MAX_SCHEDULED_PER_FLOW = 2.0


def load_benchmarks(path):
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for b in doc.get("benchmarks", []):
        # With --benchmark_report_aggregates_only the names carry a suffix;
        # prefer medians, fall back to the raw entry.
        name = b["name"]
        if name.endswith(("_mean", "_stddev", "_cv", "_min", "_max")):
            continue
        key = name[: -len("_median")] if name.endswith("_median") else name
        out[key] = b
    return out


def check_shard_scaling(args):
    with open(args.run) as f:
        meta = json.load(f)["meta"]
    failures = []

    # Determinism pins: virtual time and the finish-time hash are machine-
    # independent, so any drift from the committed baseline is a real change
    # to the sharded schedule (cost model, event ordering, or merge rule).
    if args.baseline:
        with open(args.baseline) as f:
            base = json.load(f)["meta"]
        # iters is part of the shape: the fingerprint run starts where the
        # measured iterations left off in virtual time, so its absolute
        # finish times (and hash) depend on how many iterations preceded it.
        for key in ("ranks", "msg_bytes", "seg_bytes", "iters"):
            if meta.get(key) != base.get(key):
                failures.append(
                    f"{key}: run {meta.get(key)} != baseline {base.get(key)} "
                    f"— not comparing the same experiment")
        for key in ("sim_ms", "finish_hash"):
            if meta.get(key) != base.get(key):
                failures.append(
                    f"{key}: run {meta.get(key)} != baseline {base.get(key)} "
                    f"— the sharded schedule is no longer reproducible")
            else:
                print(f"{key}={meta.get(key)} matches baseline")

    # Speedup floor, conditional on the runner actually having cores. The
    # bench records hw_threads so the gate's decision is auditable from the
    # artifact alone.
    hw = int(meta["hw_threads"])
    w1 = float(meta["wall_ms_1"])
    w4 = float(meta["wall_ms_4"])
    w8 = float(meta["wall_ms_8"])
    print(f"hw_threads={hw} wall_ms: 1={w1:.1f} 4={w4:.1f} 8={w8:.1f} "
          f"(speedup x{w1 / w8:.2f} at 8 shards, x{w1 / w4:.2f} at 4)")
    if hw >= 8:
        if w1 / w8 < args.min_shard_speedup:
            failures.append(
                f"8-shard speedup {w1 / w8:.2f}x below the "
                f"{args.min_shard_speedup}x floor on a {hw}-thread runner")
        else:
            print(f"8-shard speedup ok (floor {args.min_shard_speedup}x)")
    elif hw >= 4:
        floor = 1.8
        if w1 / w4 < floor:
            failures.append(
                f"4-shard speedup {w1 / w4:.2f}x below the {floor}x floor "
                f"on a {hw}-thread runner")
        else:
            print(f"4-shard speedup ok (reduced floor {floor}x, {hw} threads)")
    else:
        print(f"speedup floor skipped: runner has {hw} hardware thread(s); "
              f"parallel shards cannot beat the single-shard fast path here")

    # Cross-machine wall-clock tripwire (same generosity as the other modes).
    if args.baseline and "wall_ms_1" in base:
        ratio = float(base["wall_ms_1"]) / w1
        marker = "ok" if ratio >= args.threshold else "REGRESSED"
        print(f"single-shard wall clock ratio vs baseline = "
              f"{ratio:.3f} {marker}")
        if ratio < args.threshold:
            failures.append(
                f"single-shard wall clock fell to {ratio:.3f}x of baseline "
                f"(threshold {args.threshold}x)")

    if failures:
        print("\nPERF GATE FAILED:", file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        return 1
    print("\nshard-scaling perf gate ok")
    return 0


def run_trace_diff(args):
    """On gate failure, attribute the regression: run `adapt-trace diff`
    between the committed trace baseline and the fresh run's trace, print
    the per-collective alpha/beta/compute/contention/noise breakdown, and
    (optionally) save it where CI can upload it as an artifact.

    Best-effort by design: the gate's verdict never depends on the diff
    succeeding — a missing binary or trace only costs the attribution."""
    if not (args.adapt_trace and args.trace_baseline and args.trace_run):
        return
    cmd = [args.adapt_trace, "diff", args.trace_baseline, args.trace_run]
    try:
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    except OSError as e:
        print(f"\n(adapt-trace diff unavailable: {e})", file=sys.stderr)
        return
    report = res.stdout + (res.stderr if res.returncode != 0 else "")
    print("\n=== adapt-trace diff (regression attribution) ===",
          file=sys.stderr)
    print(report, file=sys.stderr)
    if args.trace_report:
        with open(args.trace_report, "w") as f:
            f.write(report)
        print(f"attribution report written to {args.trace_report}",
              file=sys.stderr)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline")
    ap.add_argument("--run", required=True)
    ap.add_argument("--shard-scaling", action="store_true",
                    help="gate a bench/shard_scaling --json report")
    ap.add_argument("--min-shard-speedup", type=float, default=3.0,
                    help="shard mode: 8-shard wall-clock speedup floor, "
                         "enforced only when the run's hw_threads >= 8")
    ap.add_argument("--threshold", type=float, default=0.4,
                    help="fail when fresh throughput < threshold * baseline")
    ap.add_argument("--disabled-ratio", type=float, default=0.8,
                    help="intra-run floor for each XDisabled benchmark vs "
                         "its reference (same machine, same process)")
    ap.add_argument("--max-allocs", type=float, default=0.001,
                    help="allocs_per_item ceiling")
    ap.add_argument("--adapt-trace",
                    help="path to the adapt-trace binary; with "
                         "--trace-baseline/--trace-run, a failing gate "
                         "auto-runs `adapt-trace diff` to attribute the "
                         "regression")
    ap.add_argument("--trace-baseline",
                    help="virtual-time trace baseline (gunzipped "
                         "BENCH_fig10.trace.json.gz)")
    ap.add_argument("--trace-run",
                    help="fresh trace from this build (fig10_scaling_cpu "
                         "--trace)")
    ap.add_argument("--trace-report",
                    help="also write the diff output here (CI artifact)")
    args = ap.parse_args()

    if args.shard_scaling:
        return check_shard_scaling(args)

    if not args.baseline:
        ap.error("--baseline is required in micro mode")
    baseline = load_benchmarks(args.baseline)
    fresh = load_benchmarks(args.run)
    failures = []

    for name, b in sorted(fresh.items()):
        allocs = b.get("allocs_per_item")
        if allocs is not None and allocs > args.max_allocs:
            failures.append(
                f"{name}: allocs_per_item={allocs:.6f} "
                f"(limit {args.max_allocs}) — steady state allocated")
        else:
            if allocs is not None:
                print(f"{name}: allocs_per_item={allocs:.6f} ok")

    for name, b in sorted(fresh.items()):
        churn = b.get("scheduled_per_flow")
        if churn is None:
            continue
        if churn > MAX_SCHEDULED_PER_FLOW:
            failures.append(
                f"{name}: scheduled_per_flow={churn:.2f} "
                f"(limit {MAX_SCHEDULED_PER_FLOW}) — fabric rate updates "
                f"reschedule flows more than once per instant")
        else:
            print(f"{name}: scheduled_per_flow={churn:.2f} ok")

    # Disabled-path guards: each "...Disabled" variant runs in the same
    # process on the same machine as its reference benchmark, so the ratio
    # is machine-independent and can be pinned far tighter than the
    # cross-machine baseline tripwire. A disabled subsystem (fault injection,
    # tracing, recovery) must cost nothing but a null-pointer test.
    for disabled, reference in DISABLED_PAIRS:
        for name, run in sorted(fresh.items()):
            if not name.startswith(disabled + "/"):
                continue
            ref = fresh.get(reference + name[len(disabled):])
            if ref is None:
                continue
            ratio = ref["real_time"] / run["real_time"]
            marker = "ok" if ratio >= args.disabled_ratio else "REGRESSED"
            print(f"{name}: time ratio vs {reference} (same run) = "
                  f"{ratio:.3f} {marker}")
            if ratio < args.disabled_ratio:
                failures.append(
                    f"{name}: {1 / ratio:.3f}x slower than {reference} in "
                    f"the same run (floor {args.disabled_ratio}) — the "
                    f"disabled path is no longer free")

    common = sorted(set(baseline) & set(fresh))
    if not common:
        failures.append("no benchmark names in common with the baseline")
    for name in common:
        base, run = baseline[name], fresh[name]
        if "items_per_second" in base and "items_per_second" in run:
            ratio = run["items_per_second"] / base["items_per_second"]
            kind = "items/s"
        else:
            # Lower is better for time; invert so ratio > 1 still means
            # "fresh run is faster".
            ratio = base["real_time"] / run["real_time"]
            kind = "time"
        marker = "ok" if ratio >= args.threshold else "REGRESSED"
        print(f"{name}: {kind} ratio vs baseline = {ratio:.3f} {marker}")
        if ratio < args.threshold:
            failures.append(
                f"{name}: {kind} fell to {ratio:.3f}x of baseline "
                f"(threshold {args.threshold}x)")

    if failures:
        print("\nPERF GATE FAILED:", file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        run_trace_diff(args)
        return 1
    print(f"\nperf gate ok: {len(common)} benchmarks compared")
    return 0


if __name__ == "__main__":
    sys.exit(main())
