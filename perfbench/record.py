"""Run the benchmark over several seeds and summarize, or record the baseline.

Usage, from the root of a checkout:

    python3 perfbench/record.py --workloads wide --runs 5      # spread check
    python3 perfbench/record.py --runs 10 --write              # new baseline

Each run is ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
with seeds ``first-seed .. first-seed + runs - 1``.  For every end-to-end
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, the distance between the quartiles as a share of the
median.  ``--write`` adds one traced run per workload at the pinned seed and
writes ``perfbench/baseline.json``, keeping its pinned seed and digests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
BASELINE = os.path.join(HERE, "baseline.json")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("error: %s failed:\n%s" % (" ".join(cmd), proc.stderr))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "runs": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        bench = json.load(fp)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--write", action="store_true", help="write perfbench/baseline.json")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    with open(BASELINE) as fp:
        baseline = json.load(fp)
    end_to_end, per_layer, notes = {}, {}, {}
    for workload in args.workloads:
        per_metric = {}
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.perf_counter()
            result, _ = run_once(workload, seed, args.seconds, 0)
            failed += result["failed"]
            for key, m in result["metrics"].items():
                per_metric.setdefault(key, []).append(m["value"])
            print("%s seed %d (%.0f s): %s" % (
                workload, seed, time.perf_counter() - t0,
                " ".join("%s=%.5g" % (k, m["value"]) for k, m in result["metrics"].items())),
                flush=True)
        end_to_end[workload] = {k: summarize(v) for k, v in per_metric.items()}
        for key, s in end_to_end[workload].items():
            print("%s %-14s median %.5g q1 %.5g q3 %.5g spread %.4f (bound %s)"
                  % (workload, key, s["median"], s["q1"], s["q3"], s["spread"], bounds.get(key)))
        print("%s: %d failed trials over %d runs" % (workload, failed, args.runs), flush=True)
        if args.write:
            result, lines = run_once(workload, baseline["default_seed"], args.seconds, 1)
            per_layer[workload] = {k: m["value"] for k, m in result["metrics"].items()}
            notes[workload] = [ln for ln in lines if "shares" in ln or "digest" in ln]

    if args.write:
        import numpy

        baseline.update(
            {
                "schema": "perfbench-baseline-1",
                "recorded": time.strftime("%Y-%m-%d"),
                "host": {
                    "nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    "machine": platform.machine(),
                },
                "run_seconds": args.seconds,
                "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
                "end_to_end": end_to_end,
                "per_layer_traced_at_default_seed": per_layer,
                "traced_notes": notes,
            }
        )
        with open(BASELINE, "w") as fp:
            json.dump(baseline, fp, indent=1, sort_keys=False)
            fp.write("\n")
        print("wrote %s" % os.path.relpath(BASELINE, ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
