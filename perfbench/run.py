"""bnbench benchmark: one workload, one seed, a fixed measuring time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload small --seed 1 --seconds 35 --trace 0

Each workload runs single-process and single-threaded as a closed loop: one
bench trial at a time, the next as soon as the previous returns.  With
``--trace 0`` the run is untraced and reports the end-to-end metrics; with
``--trace 1`` every case runs twice, untraced and traced in alternating
order, and the run reports per-layer metrics from the traced half plus the
tracing overhead.  Outputs are checked after the timed loop.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the run stops with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BASELINE = os.path.join(HERE, "baseline.json")
OUT_DIR = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("small", "wide", "long")
SETUP_PROBES = 5
TOLERANCE = 1e-9
HD_GRID = 20001


def import_program():
    """Put the checkout's ``src/`` first on the path and import bnbench from it."""
    if not os.path.isfile(os.path.join(SRC, "bnbench", "__init__.py")):
        raise SystemExit("error: no bnbench sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import bnbench

    if not os.path.abspath(bnbench.__file__).startswith(SRC + os.sep):
        raise SystemExit("error: bnbench imported from %s, not %s" % (bnbench.__file__, SRC))


def load_pins() -> dict:
    with open(BASELINE) as fp:
        doc = json.load(fp)
    return {"default_seed": doc["default_seed"], "digests": doc["digests"]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, help="master seed (default: the pinned seed)")
    ap.add_argument("--seconds", type=float, default=20.0, help="length of the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-case", help=argparse.SUPPRESS)
    ap.add_argument("--oracle-file", help=argparse.SUPPRESS)
    ap.add_argument("--list-trials", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def probe_setup(spec: str):
    """Set-up probe, run in a fresh interpreter: import bnbench, run one trial."""
    import_program()
    import workloads
    from bnbench.generate import GenParams

    n, c1, c2, m, p, seed, t = (int(x) for x in spec.split(","))
    workloads.run_trial(GenParams(n=n, c1=c1, c2=c2, m=m, p=p, seed=seed), t)


def measure_setup(name, case) -> list:
    """Wall times of fresh interpreters that import bnbench and finish ``case``."""
    params, t = case
    spec = ",".join(str(x) for x in (params.n, params.c1, params.c2, params.m, params.p, params.seed, t))
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--probe-case", spec]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median: a Beta-weighted mean of the order statistics.

    Order statistic ``i`` of ``n`` gets the mass that Beta((n+1)/2, (n+1)/2)
    puts on ``((i-1)/n, i/n]``.  The plain sample median of a few dozen
    trials jumps by whole trial-to-trial gaps when the shared host drifts
    between a fast and a slow state during a run; this estimate moves
    smoothly with the mix and, on ``long`` (about 30 trials a run), cut the
    median's run-to-run deviation from the mean by about a third.  With
    thousands of trials it equals the sample median to a fraction of a
    percent.  The Beta CDF is integrated numerically on ``HD_GRID`` cells.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    u = (np.arange(HD_GRID) + 0.5) / HD_GRID
    log_pdf = ((n + 1) / 2.0 - 1.0) * np.log(u * (1.0 - u))
    cdf = np.cumsum(np.exp(log_pdf - log_pdf.max()))
    cdf = np.concatenate(([0.0], cdf / cdf[-1]))
    edges = np.interp(np.arange(n + 1) / n, np.linspace(0.0, 1.0, HD_GRID + 1), cdf)
    return float(np.diff(edges) @ x)


class Gate:
    """Correctness gate, applied to each trial as soon as its timing is taken.

    It keeps the rows of the digest cases and one hash per case seen, so its
    memory does not grow with the number of trials a run completes and does
    not show up in ``peak_rss_mb``.
    """

    def __init__(self, name, seed, cases, digest_count, workloads_mod, np):
        self.name = name
        self.seed = seed
        self.cases = cases
        self.digest_count = digest_count
        self.w = workloads_mod
        self.np = np
        self.attempted = 0
        self.notes = []
        self.digest_rows = {}
        self.seen = {}
        self.oracle_path = None
        self.oracle_file = None
        if name == "small":
            os.makedirs(OUT_DIR, exist_ok=True)
            self.oracle_path = os.path.join(OUT_DIR, "oracle-%s-%d-%d.bin" % (name, seed, os.getpid()))
            self.oracle_file = open(self.oracle_path, "wb")

    @property
    def failed(self):
        return len(self.notes)

    def check(self, case, out, problem=None):
        """Check one trial; ``out`` is ``(rows, marginals)`` or the exception it raised."""
        self.attempted += 1
        if isinstance(out, Exception):
            problem = repr(out)
        if problem is None:
            problem = self._problem(case, *out)
        if problem is not None:
            self.notes.append("case %d: %s" % (case, problem))

    def _problem(self, case, rows, marginals):
        tuples = tuple(self.w.row_tuple(r) for r in rows)
        if case < self.digest_count:
            self.digest_rows.setdefault(case, tuples)
        key = hash(tuples)
        if case in self.seen:
            return None if self.seen[case] == key else "rows differ from an earlier run of this case"
        self.seen[case] = key
        np = self.np
        got = [
            np.concatenate([m.values.reshape(-1) for _, m in sorted(marginals[arch].items())])
            for arch in self.w.ARCHES
        ]
        if self.oracle_file is not None:
            # The brute-force joint can take tens of MiB, so the oracle runs
            # in a child process after the loop and stays out of peak_rss_mb.
            self.oracle_file.write(np.array([case, got[0].size], dtype=np.int64).tobytes())
            self.oracle_file.write(np.concatenate(got).tobytes())
            return None
        worst = max(float(np.abs(g - got[0]).max()) for g in got[1:])
        if not worst <= TOLERANCE:
            return "architectures disagree by %.3e" % worst
        return None

    def finish_oracle(self):
        """Check the recorded marginals against the brute-force oracle in a child process."""
        if self.oracle_file is None:
            return
        self.oracle_file.close()
        self.oracle_file = None
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", self.name,
               "--seed", str(self.seed), "--oracle-file", self.oracle_path]
        try:
            proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True, text=True)
        finally:
            os.remove(self.oracle_path)
        if proc.returncode != 0:
            raise SystemExit("error: oracle check failed to run:\n%s" % proc.stderr)
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        print("oracle check: %d cases, all three architectures" % report["checked"])
        for case, worst in report["deviations"]:
            self.notes.append("case %d: deviates from the oracle by %.3e" % (case, worst))

    def finish_digest(self, run_trial):
        """Run the digest cases the loop did not reach (untimed); return the digest or None."""
        extra = 0
        for c in range(self.digest_count):
            if c not in self.digest_rows:
                extra += 1
                try:
                    out = run_trial(*self.cases[c])
                except Exception as exc:  # counted as a failed trial
                    out = exc
                self.check(c, out)
        if len(self.digest_rows) < self.digest_count:
            return None, extra
        order = self.w.digest_order(self.cases[: self.digest_count])
        rows = [row for c in order for row in self.digest_rows[c]]
        return self.w.rows_digest(rows), extra


def check_oracle(name, seed, path):
    """Oracle child: compare every recorded trial's marginals with the brute-force joint."""
    import_program()
    import numpy as np

    import workloads
    from bnbench.generate import random_case
    from bnbench.network import oracle_marginals

    cases = workloads.workload_cases(name, seed)
    data = np.fromfile(path, dtype=np.uint8)
    pos = checked = 0
    deviations = []
    while pos < data.size:
        case, width = (int(x) for x in data[pos : pos + 16].view(np.int64))
        pos += 16
        got = data[pos : pos + 24 * width].view(np.float64).reshape(3, width)
        pos += 24 * width
        oracle = oracle_marginals(*random_case(*cases[case]))
        want = np.concatenate([v for _, v in sorted(oracle.items())])
        worst = float(np.abs(got - want).max())
        checked += 1
        if not worst <= TOLERANCE:
            deviations.append((case, worst))
    print(json.dumps({"checked": checked, "deviations": deviations}))


def load_cases(name, seed, workloads_mod):
    """The workload's cases, with the draws classified in a child process.

    Classifying generates every skipped draw too, and some of those hold
    CPTs of hundreds of MiB that would otherwise set this process's peak RSS.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--list-trials"]
    out = subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    return workloads_mod.workload_cases(name, seed, json.loads(out.stdout))


def timed_loop(cases, seconds, run_trial, gate):
    """Untraced closed loop over ``seconds`` of trial time; returns per-trial nanoseconds."""
    times = []
    clock = time.perf_counter_ns
    budget = int(seconds * 1e9)
    spent = i = 0
    while spent < budget:
        case = i % len(cases)
        t0 = clock()
        try:
            out = run_trial(*cases[case])
        except Exception as exc:  # a failing trial is counted, not fatal
            out = exc
        dt = clock() - t0
        times.append(dt)
        spent += dt
        gate.check(case, out)
        i += 1
    return times


def traced_loop(cases, seconds, run_trial, tracer, gate):
    """Each case untraced and traced, order alternating; returns both time totals."""
    clock = time.perf_counter_ns
    budget = int(seconds * 1e9)
    spent = {False: 0, True: 0}
    i = 0
    while spent[False] + spent[True] < budget:
        case = i % len(cases)
        outs = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            t0 = clock()
            try:
                if traced:
                    with tracer.installed():
                        outs[traced] = tracer.run_trial(i, run_trial, *cases[case])
                else:
                    outs[traced] = run_trial(*cases[case])
            except Exception as exc:  # a failing trial is counted, not fatal
                outs[traced] = exc
            spent[traced] += clock() - t0
        problem = None
        if isinstance(outs[False], Exception):
            problem = repr(outs[False])
        elif not isinstance(outs[True], Exception):
            if outs[False][0] != outs[True][0]:
                problem = "traced rows differ from untraced rows"
            elif not tracer.consistent():
                problem = "traced op deltas differ from the OpCounter totals"
        gate.check(case, outs[True], problem)
        i += 1
    return spent[False], spent[True]


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    if args.probe_case:
        probe_setup(args.probe_case)
        return 0
    if args.oracle_file:
        check_oracle(args.workload, args.seed, args.oracle_file)
        return 0
    if args.list_trials:
        import_program()
        import workloads

        print(json.dumps(workloads.trial_lists(args.workload, args.seed)))
        return 0
    import_program()
    import numpy as np

    import workloads

    pins = load_pins()
    seed = pins["default_seed"] if args.seed is None else args.seed
    name = args.workload
    cases = load_cases(name, seed, workloads)
    run_trial = workloads.run_trial
    print("workload %s seed %d: %d cases, %s loop of %g s"
          % (name, seed, len(cases), "traced" if args.trace else "untraced", args.seconds))

    count = min(workloads.DIGEST_TRIALS[name], len(cases))
    gate = Gate(name, seed, cases, count, workloads, np)
    metrics = {}
    if args.trace:
        from tracer import Tracer

        run_trial(*cases[0])  # warm-up, untimed
        tracer = Tracer()
        untraced_ns, traced_ns = traced_loop(cases, args.seconds, run_trial, tracer, gate)
        layer, shares = tracer.summary(untraced_ns, traced_ns)
        for key, value in layer.items():
            metrics[key] = {"value": value, "unit": layer_unit(key)}
        print("traced trials %d; layer self-time shares of traced trial time: %s"
              % (len(tracer.per_trial), ", ".join("%s %.3f" % kv for kv in shares.items())))
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, "trace-%s-%d.json" % (name, seed))
        tracer.write(trace_path, {"workload": name, "seed": seed, "shares": shares})
        print("wrote %d spans to %s" % (len(tracer.spans), os.path.relpath(trace_path, ROOT)))
    else:
        setup = measure_setup(name, cases[0])
        run_trial(*cases[0])  # warm-up, untimed
        times = timed_loop(cases, args.seconds, run_trial, gate)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "trials_per_s": {"value": len(times) / (sum(times) / 1e9), "unit": "1/s"},
            "trial_ms.p50": {"value": hd_median(times) / 1e6, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
        print("trial_ms p50 %.4f (Harrell-Davis; sample median %.4f) over %d trials"
              % (metrics["trial_ms.p50"]["value"], statistics.median(times) / 1e6, len(times)))
        if len(times) >= 100:
            p90 = sorted(times)[-(len(times) // 10) - 1]
            print("trial_ms p90 %.4f (%d trials above it)"
                  % (p90 / 1e6, sum(x > p90 for x in times)))
        print("setup_s probes: " + " ".join("%.4f" % s for s in setup))

    digest, extra = gate.finish_digest(run_trial)
    gate.finish_oracle()
    failed = gate.failed
    if digest is None:
        print("rows digest: not computed, a digest trial failed")
    elif seed == pins["default_seed"]:
        match = digest == pins["digests"][name]
        print("rows digest of first %d cases: %s (%s pinned)"
              % (count, digest, "matches" if match else "DIFFERS from"))
        if not match:
            failed += 1
    else:
        print("rows digest of first %d cases at seed %d: %s" % (count, seed, digest))
    for note in gate.notes[:20]:
        print("check: " + note)
    print("attempted %d trials (%d untimed, for the digest), failed %d, failed_frac %.6f"
          % (gate.attempted, extra, failed, failed / gate.attempted))
    result = {"correct": failed == 0, "attempted": gate.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def layer_unit(key):
    suffix = key.rsplit(".", 1)[1]
    if suffix.endswith("ms"):
        return "ms"
    return {
        "us_per_call": "us",
        "ops_per_s": "1/s",
        "bytes_computed": "B",
        "useful_ops_ratio": "ratio",
        "overhead_frac": "ratio",
    }.get(suffix, "count")


if __name__ == "__main__":
    sys.exit(main())
