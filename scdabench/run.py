#!/usr/bin/env python3
"""End-to-end SCDA benchmark.

Replays one paper-figure workload through the real simulation kernel and
prints, as the last line of standard output, one JSON object
{"correct", "attempted", "failed", "metrics"}.

    python3 scdabench/run.py --workload dc_k1_writes_full --seed 1 --seconds 55 --trace 0

Run from the repository root. The script builds the benchmark package in
this directory (into $CARGO_TARGET_DIR, default .bench_build) and then
spawns one process per repetition, so each repetition's peak resident
memory is its own:

* one `reference` step replaying the seed's trace instances through
  `run_scda` / `run_randtcp`;
* untraced `run` repetitions, cycling over the instances, until
  --seconds is spent (at least MIN_RUNS), each setting the workload up
  several times and timing a fixed calibration kernel before its
  set-ups, before its replay and after it;
* with --trace 1, traced repetitions of instance 0 alternating with the
  untraced ones (at least MIN_TRACED of each).

Every repetition's outcome hash (FCT records, throughput series,
violations, rounds) must equal the reference's for its instance. A traced
repetition exits non-zero unless its layer times reconcile to its wall
clock and, on SCDA workloads, admission never left the placement index.
With --trace 0 the metrics are the end-to-end ones (host times are
medians over repetitions, simulated figures are pooled over instances);
the host times are scaled to a host on which the calibration kernel takes
CAL_NOMINAL_S, with the kernel times around each set-up and replay, so a
shared host's drift in speed cancels out;
with --trace 1 they are the per-layer ones of the traced repetition with
the median run time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["fig7_video_full", "dc_k1_writes_full", "randtcp_pareto_full", "fig7_video_full100"]
MIN_RUNS = 3
MIN_TRACED = 2
CHILD_TIMEOUT_S = 120
# Nominal calibration-kernel time (about its typical time on a 2-vCPU
# Xeon VM) and the checksum every calibration must reproduce.
CAL_NOMINAL_S = 0.1
CAL_SUM = "414882dfa8665092"
# Per-layer reporting. Layers with per-call times of a few microseconds
# or more report their self-time distribution; sub-microsecond hooks
# report calls and busy time only. The control round is reported as calls
# and share of the traced run, since RandTCP never calls it.
TIMED_LAYERS = ["runner.admit", "transport.tick"]
BUSY_LAYERS = ["transport.open", "runner.on_open", "runner.on_complete", "runner.accounting"]
SHARE_LAYERS = ["runner.admit", "runner.round", "transport.tick", "runner.on_complete"]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        raise BenchError("benchmark build failed")
    return os.path.join(target, "release", "scda-e2e-bench")


def child(binary, args):
    """Run one repetition; returns (its JSON line, peak RSS in MiB)."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:3])} exited with {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(args[:3])} printed nothing")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def median_rep(reps):
    """The repetition with the (lower) median run time."""
    ordered = sorted(reps, key=lambda r: r["run_s"])
    return ordered[(len(ordered) - 1) // 2]


def setup_scale(rep):
    """Factor to nominal host speed for a repetition's set-ups."""
    cal = rep["cal_s"]
    return 2.0 * CAL_NOMINAL_S / (cal[0] + cal[1])


def run_scale(rep):
    """Factor to nominal host speed for a repetition's replay."""
    cal = rep["cal_s"]
    return 2.0 * CAL_NOMINAL_S / (cal[1] + cal[2])


def setup_median(runs, key):
    """Median over every set-up of every repetition, at nominal speed."""
    return statistics.median(s * setup_scale(r) for r, _ in runs for s in r[key])


def end_to_end(runs, ref):
    return {
        "run_s": metric(statistics.median(r["run_s"] * run_scale(r) for r, _ in runs), "s"),
        "setup_s": metric(setup_median(runs, "setup_s"), "s"),
        "peak_rss_mb": metric(statistics.median(rss for _, rss in runs), "MiB"),
        "afct_s": metric(ref["afct_s"], "s"),
        "fct_p50_s": metric(ref["fct_p50_s"], "s"),
        "fct_p99_s": metric(ref["fct_p99_s"], "s"),
        "goodput_mbps": metric(ref["goodput_mbps"], "Mb/s"),
    }


def per_layer(runs, traced):
    t = median_rep(traced)
    layers, run_s = t["layers"], t["run_s"]

    m = {
        "workloads.generate_s": metric(setup_median(runs, "generate_s"), "s"),
        "simnet.build_s": metric(setup_median(runs, "build_s"), "s"),
        "runner.control_new_s": metric(setup_median(runs, "control_new_s"), "s"),
        "runner.prime_s": metric(layers["runner.prime"]["busy_s"], "s"),
    }
    for name in TIMED_LAYERS + BUSY_LAYERS:
        l = layers[name]
        m[name + ".calls"] = metric(l["calls"], "count")
        m[name + ".busy_s"] = metric(l["busy_s"], "s")
        if name in TIMED_LAYERS:
            m[name + ".p50_us"] = metric(l["p50_us"], "us")
            m[name + ".p99_us"] = metric(l["p99_us"], "us")
    m["runner.round.calls"] = metric(layers["runner.round"]["calls"], "count")
    for name in SHARE_LAYERS:
        m[name + ".share_pct"] = metric(100.0 * layers[name]["busy_s"] / run_s, "%")
    admits = layers["runner.admit"]["calls"]
    place_calls = layers["runner.place"]["calls"]
    m["runner.place.calls"] = metric(place_calls, "count")
    # Share of admissions answered by the placement index (1.0 on SCDA;
    # RandTCP has no index and places every admission).
    hit_ratio = (admits - place_calls) / admits
    m["core.index_hit_ratio"] = metric(hit_ratio, "ratio")
    m["runner.replications_completed"] = metric(t["replications_completed"], "count")
    m["core.changed_dirs_total"] = metric(t["changed_dirs_total"], "count")
    m["core.mitigations_applied"] = metric(t["mitigations_applied"], "count")
    m["core.sla_violations"] = metric(t["sla_violations"], "count")
    m["transport.active_mean"] = metric(t["active_mean"], "flows")
    m["transport.active_peak"] = metric(t["active_peak"], "flows")
    m["runner.other_s"] = metric(t["other_s"], "s")
    m["runner.other.share_pct"] = metric(100.0 * t["other_s"] / run_s, "%")
    m["trace.run_s"] = metric(run_s, "s")
    untraced = statistics.median(r["run_s"] for r, _ in runs)
    traced_med = statistics.median(r["run_s"] for r in traced)
    m["trace.overhead_pct"] = metric(100.0 * (traced_med / untraced - 1.0), "%")
    # Raw host figures behind the scaled end-to-end times.
    m["host.run_wall_s"] = metric(untraced, "s")
    m["host.setup_wall_s"] = metric(
        statistics.median(s for r, _ in runs for s in r["setup_s"]), "s")
    m["host.cal_s"] = metric(statistics.median(c for r, _ in runs for c in r["cal_s"]), "s")
    return m, t


def layer_table(t):
    rows = [f"{'layer':<22}{'calls':>9}{'busy_s':>11}{'share':>8}{'p50_us':>11}{'p99_us':>11}"]
    for name, l in t["layers"].items():
        rows.append(
            f"{name:<22}{l['calls']:>9}{l['busy_s']:>11.4f}"
            f"{100 * l['busy_s'] / t['run_s']:>7.1f}%{l['p50_us']:>11.2f}{l['p99_us']:>11.2f}"
        )
    rows.append(f"{'runner.other':<22}{'':>9}{t['other_s']:>11.4f}"
                f"{100 * t['other_s'] / t['run_s']:>7.1f}%")
    rows.append(f"{'total (traced run_s)':<22}{'':>9}{t['run_s']:>11.4f}")
    return "\n".join(rows)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    attempted = failed = 0
    correct = True
    metrics = {}
    runs, traced = [], []
    out_dir = os.path.abspath(".bench_out")
    spans = os.path.join(out_dir, f"{args.workload}.spans.tsv")
    instances = []

    def record(rep, k):
        nonlocal attempted, failed
        if rep["hash"] != instances[k]["hash"]:
            raise BenchError(
                f"instance {k}: outcome hash {rep['hash']} differs from the reference "
                f"{instances[k]['hash']}"
            )
        if "cal_sum" in rep and rep["cal_sum"] != CAL_SUM:
            raise BenchError(f"calibration checksum {rep['cal_sum']} is not {CAL_SUM}")
        attempted += rep["requested"]
        failed += rep["requested"] - rep["completed"]

    try:
        # Traced invocations replay instance 0 only.
        only = ["--instances", "1"] if args.trace else []
        ref, _ = child(binary, ["reference"] + common + only)
        instances = ref["instances"]
        for k, inst in enumerate(instances):
            record(inst, k)

        if args.trace:
            os.makedirs(out_dir, exist_ok=True)
        # Repetitions cycle over the trace instances; traced ones alternate
        # with untraced ones.
        count = len(instances)
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            k = len(runs) % count
            inst = ["--instance", str(k)]
            rep = child(binary, ["run"] + common + inst)
            record(rep[0], k)
            runs.append(rep)
            if args.trace:
                path = os.path.join(out_dir, f"{args.workload}.spans.{len(traced)}.tsv")
                t, _ = child(binary, ["trace"] + common + inst + ["--spans", path])
                record(t, k)
                t["spans"] = path
                traced.append(t)
            spent, step = time.monotonic() - start, time.monotonic() - t0
            enough = len(traced) >= MIN_TRACED if args.trace else len(runs) >= MIN_RUNS
            if enough and len(runs) >= count and spent + step > args.seconds:
                break
        if args.trace:
            metrics, t = per_layer(runs, traced)
            for rep in traced:
                if rep is t:
                    os.replace(rep["spans"], spans)
                else:
                    os.remove(rep["spans"])
            log(f"{args.workload} seed {args.seed}: traced run with the median time "
                f"(spans in {spans})\n{layer_table(t)}")
        else:
            metrics = end_to_end(runs, ref)
        log(f"{args.workload} seed {args.seed}: untraced wall clock median "
            f"{statistics.median(r['run_s'] for r, _ in runs):.4f} s, calibration median "
            f"{statistics.median(c for r, _ in runs for c in r['cal_s']):.4f} s")
        log(f"{args.workload} seed {args.seed}: {len(runs)} untraced + {len(traced)} "
            f"traced repetitions over {count} trace instance(s), outcome hashes "
            f"{' '.join(inst['hash'] for inst in instances)}")
    except (BenchError, OSError, ValueError, KeyError) as e:
        # The failing run counts every flow it was asked for as failed.
        log(f"error: {e}")
        correct = False
        lost = instances[0]["requested"] if instances else 1
        attempted += lost
        failed += lost
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(f"error: {e}")
        sys.exit(2)
