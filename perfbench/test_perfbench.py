"""Tests of the benchmark itself: ``python3 -m pytest -q perfbench``."""

import json
import os
from dataclasses import replace

import pytest

import workloads
from run import hd_median
from bnbench.cli import bench_rows
from bnbench.compile import compile_structures
from bnbench.fileio import rows_to_csv
from bnbench.generate import random_case
from tracer import Tracer, exclusive_ns, layer_of

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "baseline.json")) as fp:
    PINS = json.load(fp)
SEED = PINS["default_seed"]


def test_exclusive_time_on_synthetic_span_tree():
    #   trial [0, 100)
    #     compile [10, 50)  -> stage a [20, 30), stage b [30, 45)
    #     engines [50, 90)  -> potentials [60, 70)
    spans = [
        ("trial", 0, 100, -1, 0),
        ("compile", 10, 50, 0, 0),
        ("compile.a", 20, 30, 1, 0),
        ("compile.b", 30, 45, 1, 0),
        ("engines.ls", 50, 90, 0, 0),
        ("potentials.multiply", 60, 70, 4, 0),
    ]
    assert exclusive_ns(spans) == [20, 15, 10, 15, 30, 10]
    assert sum(exclusive_ns(spans)) == 100
    assert [layer_of(s[0]) for s in spans] == [
        "cli", "compile", "compile", "compile", "engines", "potentials"
    ]


def test_hd_median_matches_the_median_where_it_is_known():
    assert hd_median([5.0]) == pytest.approx(5.0)
    assert hd_median([3.0, 1.0, 2.0]) == pytest.approx(2.0)
    assert hd_median([4.0, 1.0, 3.0, 2.0]) == pytest.approx(2.5)
    assert hd_median([1.5] * 30) == pytest.approx(1.5)
    times = [1.0 + (i * 7919 % 1000) / 1000.0 for i in range(5000)]
    assert hd_median(times) == pytest.approx(sorted(times)[2500], rel=1e-3)


def _cases_of(params, trials):
    return [(params, t) for t in range(trials)]


@pytest.mark.parametrize(
    "params,trials",
    [
        (replace(workloads.SMALL[0], seed=SEED), 3),
        (replace(workloads.SMALL[1], seed=SEED), 3),
        (replace(workloads.WIDE, seed=SEED), 3),
        (replace(workloads.LONG, seed=SEED), 1),
    ],
)
def test_trial_body_reproduces_bench_rows(params, trials):
    rows = [r for params_t in _cases_of(params, trials) for r in workloads.run_trial(*params_t)[0]]
    assert rows_to_csv(rows) == rows_to_csv(bench_rows(params, trials))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_pinned_digest_matches_trial_body(name):
    count = workloads.DIGEST_TRIALS[name]
    cases = workloads.workload_cases(name, SEED)[:count]
    rows = {c: workloads.run_trial(*cases[c])[0] for c in range(count)}
    ordered = [workloads.row_tuple(r) for c in workloads.digest_order(cases) for r in rows[c]]
    assert workloads.rows_digest(ordered) == PINS["digests"][name]
    if name != "wide":  # wide draws reach trial indices in the hundreds
        by_params = {}
        for params, t in cases:
            by_params.setdefault(params, []).append(t)
        bench = [
            r for p, ts in by_params.items() for r in bench_rows(p, max(ts) + 1) if r["trial"] in ts
        ]
        assert rows_to_csv(bench) == rows_to_csv(
            [dict(zip(workloads.ROW_FIELDS, r)) for r in ordered]
        )


def test_tracer_restores_every_wrapped_name():
    tracer = Tracer()
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tracer.wrapped_names()]
    case = workloads.workload_cases("small", SEED)[1]
    with tracer.installed():
        for owner, attr, wrapper in tracer.wrapped_names():
            assert owner.__dict__[attr] is wrapper
        tracer.run_trial(0, workloads.run_trial, *case)
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("boom")
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original


def test_traced_op_deltas_equal_opcounter_totals():
    tracer = Tracer()
    for i, case in enumerate(workloads.workload_cases("small", SEED)[:4]):
        with tracer.installed():
            rows, _ = tracer.run_trial(i, workloads.run_trial, *case)
        assert tracer.consistent()
        c = tracer.per_trial[-1]
        assert c["engine_ops"] == sum(r["total"] for r in rows)
        assert c["counted_ops"] == c["engine_ops"] + c["rerun_ops"]
        assert c["storage_engine_calls"] == 1
    metrics, shares = tracer.summary(untraced_ns=1, traced_ns=2)
    assert metrics["trace.overhead_frac"] == 1.0
    assert sum(shares.values()) == pytest.approx(1.0)


def test_junction_cells_equals_compiled_tree():
    params = replace(workloads.WIDE, seed=SEED)
    for t in range(40):
        net, evidence = random_case(params, t)
        jt = compile_structures(net, evidence).junction
        assert workloads.junction_cells(net) == sum(jt.statespace(n) for n in jt.nodes)


def test_small_cases_alternate_presets_below_the_cap():
    cases = workloads.workload_cases("small", SEED)
    assert len(cases) == 2 * workloads.SMALL_CASES
    assert [p for p, _ in cases[:4]] == [replace(q, seed=SEED) for q in workloads.SMALL * 2]
    for params, t in cases[:200]:
        assert workloads.junction_cells(random_case(params, t)[0]) < workloads.SMALL_CAP


def test_wide_cases_follow_the_quotas():
    trials = workloads.wide_trials(SEED)
    assert len(trials) == len(set(trials)) == sum(workloads.WIDE_QUOTAS.values())
    params = replace(workloads.WIDE, seed=SEED)
    octaves = [workloads.junction_cells(random_case(params, t)[0]).bit_length() - 1 for t in trials]
    assert {k: octaves.count(k) for k in set(octaves)} == workloads.WIDE_QUOTAS
