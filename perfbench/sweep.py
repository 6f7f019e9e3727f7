"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workload NAME ...] [--trace 1] [--out FILE]

Runs execute one at a time.  For every workload and metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median, next
to the metric's bound from BENCHMARK.json.  ``--out`` writes the values
and the summary as JSON, the form kept in perfbench/trajectory/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload of BENCHMARK.json")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    report = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
              "workloads": {}}
    for name in names:
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", f"{args.seconds:g}",
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{name} seed {seed}: {wall:.1f} s wall, correct={result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed", flush=True)
            runs.append(result)
        metrics = {k: [r["metrics"][k]["value"] for r in runs] for k in runs[0]["metrics"]}
        summary = {k: summarise(v) for k, v in metrics.items()}
        report["workloads"][name] = {"values": metrics, "summary": summary,
                                     "correct": all(r["correct"] for r in runs)}
        for k, s in summary.items():
            bound = bounds.get(k) if not args.trace else None
            flag = "" if bound is None else ("  ok" if s["spread"] <= bound / 3
                                             else "  WIDE" if s["spread"] > bound
                                             else "  over bound/3")
            print(f"  {k:30s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}"
                  + (f" (bound {bound})" if bound is not None else "") + flag)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
