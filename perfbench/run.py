"""facefollow benchmark: per-tick latency of the 4 Hz loop on three workloads.

    python3 perfbench/run.py --workload loop-rendered-320 --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the benchmark imports facefollow
from ``src/`` next to this directory and refuses to run without it.  The
last line of standard output is one JSON object: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  See perfbench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUPS_AFTER = 2   # set-ups after the timed run; setup_s is the median with the first
TAIL_MIN_BEYOND = 10


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile (at most 99) with at least ten of the n
    samples beyond its nearest-rank value."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= TAIL_MIN_BEYOND:
            return p
    return None


def percentile(sorted_vals: list[float], p: int) -> float:
    return sorted_vals[max(0, math.ceil(p * len(sorted_vals) / 100) - 1)]


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "facefollow", "__init__.py")):
        sys.exit(f"error: no facefollow sources under {SRC}; run the benchmark "
                 "from a checkout of the repository")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import facefollow
    if os.path.dirname(os.path.dirname(os.path.abspath(facefollow.__file__))) != SRC:
        sys.exit(f"error: facefollow was imported from {facefollow.__file__}, "
                 f"not from {SRC}")
    import numpy
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} facefollow={facefollow.__version__}")


def _fresh_tmp() -> str:
    tmp = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    return tmp


def _report_checks(wl, rec) -> bool:
    for kind, (digest, n) in wl.digests(rec).items():
        print(f"digest {kind}: {digest} over {n} distinct inputs")
    for p in rec.problems:
        print(f"check failed: {p}")
    ok = rec.failed == 0 and rec.ticks > 0
    print(f"checks: {'ok' if ok else 'FAILED'} ({rec.failed} of {rec.ticks} ticks failed)")
    return ok


def _timed_setup(wl, seed: int, tmp: str):
    t0 = time.perf_counter()
    st = wl.setup(seed, tmp)
    return st, time.perf_counter() - t0


def end_to_end(wl, seed: int, seconds: float, tmp: str) -> dict:
    import workloads

    st, first = _timed_setup(wl, seed, tmp)
    rec = wl.run(st, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workloads.cover_accuracy_set(wl, st, rec)
    wl.final_checks(st, rec)
    ok = _report_checks(wl, rec)
    accuracy = rec.accuracy(wl.accuracy_set(st))
    n_inputs = len(wl.accuracy_set(st))
    # set up again at the end of the run, so setup_s spans the machine's
    # state before and after the timed run rather than one moment of it
    st = None
    setup_s = [first] + [_timed_setup(wl, seed, tmp)[1] for _ in range(SETUPS_AFTER)]

    ticks = sorted(rec.tick_s)
    n = len(ticks)
    p = tail_percentile(n)
    metrics = {
        "tick_ms_p50": (statistics.median(ticks) * 1e3 if ticks else 0.0, "ms"),
        "tick_ms_tail": ((percentile(ticks, p) if p else ticks[-1]) * 1e3
                         if ticks else 0.0, "ms"),
        "ticks_per_s": (rec.ticks / rec.wall_s if rec.wall_s else 0.0, "1/s"),
        "target_accuracy": (accuracy, "share"),
        "failed_frac": (rec.failed / rec.ticks if rec.ticks else 1.0, "share"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "tick_ms_tail": f"p{p} of {n} ticks" if p else f"max of {n} ticks",
        "ticks_per_s": f"{rec.ticks} ticks in {rec.wall_s:.3f} s timed",
        "target_accuracy": f"over {n_inputs} distinct inputs, centre "
                           "within max(8 px, half the true box width)",
        "failed_frac": f"{rec.failed} of {rec.ticks}",
        "setup_s": "median of one set-up before and two after the run: "
                   + " ".join(f"{s:.3f}" for s in setup_s),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    return {"correct": ok, "attempted": max(1, rec.ticks), "failed": rec.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                        if k in BENCH_END_TO_END}}


def trace_run(wl, seed: int, seconds: float, tmp: str):
    """A checked untraced pass for a third of the seconds, then a replay of
    exactly its inputs in which every unit (episode or frame) runs once
    untraced and once traced, alternating which goes first, so the machine's
    drift cancels out of the tracing overhead.  Returns the verdict, the
    checked record, the untraced and traced replay wall times, the tracer,
    the per-layer metrics, per-span totals and the tick-time accounting."""
    import spans
    import workloads
    from facefollow import cascade

    tracer = spans.Tracer()
    tracer.patch(cascade, "parse_cascade", "cascade.parse_cascade")
    try:
        st = wl.setup(seed, tmp)
    finally:
        tracer.restore()
    rec = wl.run(st, seconds / 3)
    wl.final_checks(st, rec)
    ok = _report_checks(wl, rec)

    walls = {False: 0.0, True: 0.0}
    for k, idx in enumerate(rec.plan):
        for with_spans in ((False, True) if k % 2 == 0 else (True, False)):
            if with_spans:
                spans.install(tracer, getattr(st, "face_c", None))
                tracer.patch(workloads, "detect_tick", spans.TICK_ROOT)
            try:
                unit = wl.run(st, plan=[idx], observe=False)
            finally:
                tracer.restore()
            walls[with_spans] += unit.wall_s
            for kind, seen in unit.digests.items():
                if any(rec.digests.get(kind, {}).get(i) != h for i, h in seen.items()):
                    ok = False
                    print(f"check failed: replayed {kind} of unit {idx} differs")
            if unit.failed:
                ok = False
                print(f"check failed: replay: {unit.problems[:1]}")

    metrics, totals, acct = spans.layer_metrics(tracer)
    metrics["mission.failsafe_ticks"] = rec.failsafe_ticks / max(1, rec.ticks)
    metrics["trace.overhead_pct"] = ((walls[True] / walls[False] - 1) * 100
                                     if walls[False] else 0.0)
    return ok, rec, walls, tracer, metrics, totals, acct


def traced(wl, seed: int, seconds: float, tmp: str) -> dict:
    ok, rec, walls, tracer, metrics, totals, acct = trace_run(wl, seed, seconds, tmp)
    overhead = metrics["trace.overhead_pct"]
    print(f"spans: {len(tracer)} recorded over {acct['ticks']} ticks "
          f"({len(rec.plan)} units replayed)")
    print(f"{'span':32s} {'calls':>9s} {'ms/tick':>10s} {'self ms/tick':>13s}")
    n = max(1, acct["ticks"])
    for name, (calls, dur, self_t) in totals.items():
        print(f"{name:32s} {calls:9d} {dur / n * 1e3:10.4f} {self_t / n * 1e3:13.4f}")
    print(f"accounting: traced tick {acct['tick_ms']:.4f} ms = layer self times "
          f"{acct['spans_self_ms']:.4f} ms + untraced remainder "
          f"{acct['remainder_ms']:.4f} ms")
    print(f"tracing overhead: {overhead:.1f}% (traced {walls[True]:.3f} s vs "
          f"untraced {walls[False]:.3f} s on the same {rec.ticks} ticks, interleaved)")
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    return {"correct": ok, "attempted": max(1, rec.ticks), "failed": rec.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}


with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
BENCH_END_TO_END = {m["name"] for m in BENCH["end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or loop-oracle")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    _import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    tmp = _fresh_tmp()
    try:
        run = traced if args.trace else end_to_end
        result = run(wl, args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
