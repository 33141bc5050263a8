"""Command line front end.

Subcommands: ``fixture`` writes bundled example networks, ``compile`` builds
and checks both secondary structures, ``infer`` runs one or all
architectures, ``verify`` compares every architecture against the
brute-force joint, ``bench`` generates random cases and emits CSV rows, and
``report`` aggregates those rows into comparison tables.

Exit codes: 0 success, 1 verification failure, 2 usage or input errors,
141 when the reader closed stdout before all output was written.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager

import numpy as np

from bnbench.compile import compile_structures
from bnbench.engines import hugin_run, ls_run, ss_run
from bnbench.fileio import (
    ARCHES,
    load_network,
    read_rows,
    rows_to_csv,
    save_network,
    tagged_csv,
    tree_dump,
    write_rows,
)
from bnbench.generate import GenParams, random_case, trial_params
from bnbench.network import (
    ORACLE_CAP,
    NetworkError,
    chest_clinic,
    chest_clinic_evidence,
    check_evidence,
    figure9_net,
    figure9_evidence,
    oracle_marginals,
    validate,
)
from bnbench.potentials import ZeroMassError
from bnbench.storage import peak_working_memory, storage_report

RUNNERS = {"ls": ls_run, "hugin": hugin_run, "ss": ss_run}
REPORT_SCHEMA = "bnbench-report-1"
COUNT_HEADER = ("arch", "tree", "adds", "mults", "divs", "total")
# The storage figures in fpn; a bench row names each one with an ``_fpn`` suffix.
STORAGE_FIELDS = ("input", "evidence", "clique", "separator", "output", "total", "peak")
STORAGE_HEADER = ("arch", *STORAGE_FIELDS)


def _table(fmt, header, rows, left=1, tag=None):
    """Text of a table of string rows, each line ending in a newline.

    ``csv`` is schema-tagged with ``tag``. ``markdown`` and ``text`` align
    the first ``left`` columns left and the rest right; ``text`` pads the
    columns to a common width.
    """
    if fmt == "csv":
        return tagged_csv(tag, header, rows)
    if fmt == "markdown":
        rule = ["---"] * left + ["---:"] * (len(header) - left)
        lines = ["| " + " | ".join(row) + " |" for row in (header, rule, *rows)]
    else:
        widths = [max(map(len, col)) for col in zip(header, *rows)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
        for row in rows:
            cells = [c.ljust(w) for c, w in zip(row[:left], widths)]
            cells += [c.rjust(w) for c, w in zip(row[left:], widths[left:])]
            lines.append("  ".join(cells).rstrip())
    return "".join(line + "\n" for line in lines)


def _pairs(header, row):
    """``key=value`` text of one table row."""
    return " ".join("%s=%s" % kv for kv in zip(header, row))


def _storage_fields(arch, tree, net, evidence, targets=None):
    """The STORAGE_FIELDS of ``arch`` on ``tree``: storage_report's figures, then the peak."""
    stor = storage_report(arch, tree, net, evidence, targets)
    figures = [getattr(stor, "%s_fpn" % k) for k in STORAGE_FIELDS[:-1]]
    return (*figures, peak_working_memory(arch, tree))


def _natural_tree(comp, arch, choice="auto"):
    if choice == "junction":
        return comp.junction
    if choice == "binary":
        return comp.binary
    return comp.binary if arch == "ss" else comp.junction


def _load_case(path):
    net, evidence = load_network(path)
    problems = validate(net) + check_evidence(net, evidence)
    if problems:
        for p in problems:
            print("error: %s" % p, file=sys.stderr)
        raise SystemExit(2)
    return net, evidence


def _fixture_case(name):
    if name == "chest":
        net = chest_clinic()
        labels = {v.id: ["yes", "no"] for v in net.variables}
        return net, chest_clinic_evidence(), labels
    net = figure9_net()
    return net, figure9_evidence(), None


def cmd_fixture(args):
    net, evidence, labels = _fixture_case(args.name)
    if args.no_evidence:
        evidence = {}
    save_network(args.out, net, evidence, labels)
    print("wrote %s (%d variables, %d evidence)" % (args.out, net.n, len(evidence)))
    return 0


def cmd_compile(args):
    net, evidence = _load_case(args.network)
    comp = compile_structures(net, evidence)
    names = {v.id: v.name for v in net.variables}
    print("elimination order: %s" % ", ".join(names[i] for i in comp.order))
    dumps = {}
    for tree in (comp.junction, comp.binary):
        # compile_structures has verified both trees and raises on a broken one
        print("%s tree verification: ok" % tree.kind)
        dumps[tree.kind] = tree_dump(tree, names)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for kind, text in dumps.items():
            target = os.path.join(args.out, "%s.txt" % kind)
            with open(target, "w") as fp:
                fp.write(text)
            print("wrote %s" % target)
    else:
        for kind in ("junction", "binary"):
            print(dumps[kind], end="")
    return 0


@contextmanager
def _naming_evidence(net, evidence, where=""):
    """Turn a zero-mass error inside the block into an input error naming the evidence."""
    try:
        yield
    except ZeroMassError:
        names = ", ".join(repr(net.var(x).name) for x in sorted(evidence))
        raise ZeroMassError(
            "%sevidence on %s has zero probability under the model, "
            "or its probability underflows" % (where, names)
        ) from None


def _target_ids(net, spec):
    if not spec:
        return [v.id for v in net.variables]
    by_name = {v.name: v.id for v in net.variables}
    ids = []
    for name in spec.split(","):
        name = name.strip()
        if name not in by_name:
            raise ValueError("unknown target variable %r" % name)
        if by_name[name] in ids:
            raise ValueError("target variable %r listed twice" % name)
        ids.append(by_name[name])
    return ids


def _infer_results(net, evidence, arch, tree_choice, targets):
    comp = compile_structures(net, evidence)
    out = []
    with _naming_evidence(net, evidence):
        for a in ARCHES if arch == "all" else (arch,):
            tree = _natural_tree(comp, a, tree_choice)
            out.append((RUNNERS[a](tree, comp.potentials, targets), tree))
    return out


def cmd_infer(args):
    if args.storage and args.format == "csv":
        raise ValueError("--storage does not go with --format csv: the CSV holds marginals only")
    net, evidence = _load_case(args.network)
    targets = _target_ids(net, args.targets)
    results = _infer_results(net, evidence, args.arch, args.tree, targets)
    names = {v.id: v.name for v in net.variables}
    counts = []
    storage = []
    marginals = []  # (arch, tree, variable, probability of each state)
    for res, tree in results:
        c = res.counter
        counts.append((res.arch, res.tree_kind, *map(str, (c.adds, c.mults, c.divs, c.total()))))
        if args.storage:
            fields = _storage_fields(res.arch, tree, net, evidence, targets)
            storage.append((res.arch, *map(str, fields)))
        for x in targets:
            probs = res.singleton_marginals[x].values.reshape(-1)
            marginals.append((res.arch, res.tree_kind, names[x], probs))
    states = [(a, t, v, str(k), pr) for a, t, v, probs in marginals for k, pr in enumerate(probs)]
    if args.format == "csv":
        rows = [(a, t, v, k, "%.12g" % pr) for a, t, v, k, pr in states]
        header = ("arch", "tree", "variable", "state", "probability")
        sys.stdout.write(_table("csv", header, rows, tag="bnbench-marginals-1"))
    elif args.format == "markdown":
        tables = [_table("markdown", COUNT_HEADER, counts, left=2)]
        if storage:
            tables.append(_table("markdown", STORAGE_HEADER, storage))
        rows = [(a, v, k, "%.6f" % pr) for a, _t, v, k, pr in states]
        tables.append(_table("markdown", ("arch", "variable", "state", "probability"), rows, left=2))
        sys.stdout.write("\n".join(tables))
    else:
        for i, row in enumerate(counts):
            print(_pairs(COUNT_HEADER, row))
            if storage:
                print("storage " + _pairs(STORAGE_HEADER, storage[i]))
        for a, _t, v, probs in marginals:
            print("P(%s|%s) = %s" % (v, a, " ".join("%.6f" % pr for pr in probs)))
    return 0


def _deviations(marginals: dict, oracle: dict) -> dict:
    """Variable -> largest gap from the oracle; NaN stays NaN and is never <= a tolerance."""
    return {x: float(np.abs(p.values.reshape(-1) - oracle[x]).max()) for x, p in marginals.items()}


def cmd_verify(args):
    net, evidence = _load_case(args.network)
    with _naming_evidence(net, evidence):
        oracle = oracle_marginals(net, evidence, args.oracle_cap)
    results = _infer_results(net, evidence, "all", "auto", None)
    failed = False
    for res, _tree in results:
        devs = _deviations(res.singleton_marginals, oracle)
        # np.max keeps a NaN deviation, which the builtin max would drop
        worst = float(np.max(list(devs.values()), initial=0.0))
        ok = worst <= args.tolerance
        failed = failed or not ok
        print(
            "%s (%s tree): max deviation %.3e %s tolerance %g"
            % (
                res.arch,
                res.tree_kind,
                worst,
                "within" if ok else "EXCEEDS",
                args.tolerance,
            )
        )
    print("verification %s" % ("FAILED" if failed else "passed"))
    return 1 if failed else 0


def _finite_non_negative(text):
    """argparse type for ``--tolerance`` and ``--div-weight``: a finite float >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not a number: %r" % text) from None
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError("must be a finite number >= 0, got %r" % text)
    return value


def _positive_int(text):
    """argparse type for ``--oracle-cap``: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % text) from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be an integer >= 1, got %r" % text)
    return value


GEN_KEYS = ("n", "c1", "c2", "m", "p")


def _param_int(key, text):
    """Integer value of generator parameter ``key``; the error names the key."""
    try:
        return int(text)
    except ValueError:
        raise ValueError("generator parameter %r is not an integer: %r" % (key, text.strip())) from None


def _parse_params(spec, seed):
    parts = [tok.strip() for tok in spec.split(",") if tok.strip()]
    if all("=" in tok for tok in parts) and parts:
        kv = {}
        for tok in parts:
            key, _, val = tok.partition("=")
            key = key.strip()
            if key not in GEN_KEYS:
                raise ValueError("unknown generator parameter %r" % key)
            if key in kv:
                raise ValueError("generator parameter %r listed twice" % key)
            kv[key] = _param_int(key, val)
        if "n" not in kv:
            raise ValueError("generator parameters need at least n")
        return GenParams(seed=seed, **kv)
    if len(parts) != 5:
        raise ValueError("expected n,c1,c2,m,p or key=value pairs, got %r" % spec)
    return GenParams(seed=seed, **{k: _param_int(k, tok) for k, tok in zip(GEN_KEYS, parts)})


def _bench_trial(params: GenParams, t: int):
    """One bench trial's case, rows and singleton marginals.

    Only one engine result is alive at a time: its counter and singleton
    marginals are taken and the result is dropped before the SS storage
    probe and before the next engine runs.
    """
    net, evidence = random_case(params, t)
    comp = compile_structures(net, evidence)
    tseed = trial_params(params, t).seed
    rows = []
    marginals = {}
    for arch in ARCHES:
        tree = _natural_tree(comp, arch)
        with _naming_evidence(net, evidence, "trial %d: " % t):
            res = RUNNERS[arch](tree, comp.potentials)
        c = res.counter
        marginals[arch] = res.singleton_marginals
        del res
        storage = _storage_fields(arch, tree, net, evidence)
        rows.append(
            {
                "trial": t,
                "seed": tseed,
                "n": params.n,
                "c1": params.c1,
                "c2": params.c2,
                "m": params.m,
                "p": params.p,
                "evidence_vars": len(evidence),
                "arch": arch,
                "tree": tree.kind,
                "tree_nodes": len(tree.nodes),
                "adds": c.adds,
                "mults": c.mults,
                "divs": c.divs,
                "total": c.total(),
                **{"%s_fpn" % k: v for k, v in zip(STORAGE_FIELDS, storage)},
            }
        )
    return net, evidence, rows, marginals


def bench_rows(params: GenParams, trials: int) -> list:
    """One CSV row per (trial, architecture) on its natural tree."""
    rows = []
    for t in range(trials):
        rows.extend(_bench_trial(params, t)[2])
    return rows


def cmd_bench(args):
    if args.trials < 1:
        raise ValueError("need at least one trial")
    params = _parse_params(args.params, args.seed)
    rows = []
    failures = 0
    skipped = 0
    for t in range(args.trials):
        net, evidence, trial_rows, marginals = _bench_trial(params, t)
        rows.extend(trial_rows)
        if not args.verify_oracle:
            continue
        try:
            oracle = oracle_marginals(net, evidence, args.oracle_cap)
        except NetworkError:
            skipped += 1
            continue
        for arch in ARCHES:
            for x, dev in _deviations(marginals[arch], oracle).items():
                if not dev <= args.tolerance:
                    failures += 1
                    print(
                        "trial %d arch %s variable %d deviates %.3e" % (t, arch, x, dev),
                        file=sys.stderr,
                    )
    if args.out:
        write_rows(args.out, rows)
        sys.stdout.write(_render_summary(summarize_rows(rows, 1.0), "text"))
        print("wrote %d rows to %s" % (len(rows), args.out))
    else:
        sys.stdout.write(rows_to_csv(rows))
    if args.verify_oracle:
        # with the rows on stdout, the check goes to stderr so the CSV stays as it is
        line = "oracle check: %d failures, %d skipped (joint above cap)" % (failures, skipped)
        print(line, file=sys.stdout if args.out else sys.stderr)
    return 1 if failures else 0


def summarize_rows(rows: list, div_weight: float) -> list:
    """Group rows by generator parameters; mean weighted totals per arch."""
    groups = {}
    for row in rows:
        key = tuple(int(row[k]) for k in ("n", "c1", "c2", "m", "p"))
        total = int(row["adds"]) + int(row["mults"]) + div_weight * int(row["divs"])
        groups.setdefault(key, {}).setdefault(row["arch"], []).append(total)
    out = []
    for key in sorted(groups):
        per = groups[key]
        entry = {
            "params": key,
            "trials": max(len(v) for v in per.values()),
            "means": {},
        }
        for arch in ARCHES:
            totals = per.get(arch)
            entry["means"][arch] = sum(totals) / len(totals) if totals else None
        mh, ms = entry["means"]["hugin"], entry["means"]["ss"]
        # a Hugin mean of 0 gives -1; only a missing or zero SS mean leaves no ratio
        entry["ratio"] = (mh / ms - 1.0) if mh is not None and ms else None
        out.append(entry)
    return out


def _render_summary(summary: list, fmt: str) -> str:
    def mean(x):
        return "" if x is None else "%.3f" % x

    rows = [
        (
            *map(str, e["params"]),
            str(e["trials"]),
            *(mean(e["means"][arch]) for arch in ARCHES),
            "" if e["ratio"] is None else "%.4f" % e["ratio"],
        )
        for e in summary
    ]
    if fmt == "csv":
        header = (*GEN_KEYS, "trials", "mean_ls", "mean_hugin", "mean_ss", "hugin_ss_ratio")
        return _table(fmt, header, rows, tag=REPORT_SCHEMA)
    # text and markdown fold the generator parameters into one column
    rows = [(" ".join("%s=%s" % kv for kv in zip(GEN_KEYS, row)), *row[5:]) for row in rows]
    header = ("params", "trials", "LS mean", "Hugin mean", "SS mean", "Hugin/SS-1")
    return _table(fmt, header, rows)


def cmd_report(args):
    rows = []
    for path in args.rows:
        rows.extend(read_rows(path))
    sys.stdout.write(_render_summary(summarize_rows(rows, args.div_weight), args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnbench",
        description="Exact inference architecture comparison workbench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fx = sub.add_parser("fixture", help="write a bundled example network file")
    fx.add_argument("--name", choices=("chest", "figure9"), required=True)
    fx.add_argument("--out", required=True, help="output JSON path")
    fx.add_argument("--no-evidence", action="store_true", help="omit the bundled evidence")
    fx.set_defaults(func=cmd_fixture)

    cp = sub.add_parser("compile", help="build and check both secondary structures")
    cp.add_argument("--network", required=True, help="network JSON path")
    cp.add_argument("--out", help="directory for tree dump files")
    cp.set_defaults(func=cmd_compile)

    inf = sub.add_parser("infer", help="run one or all architectures")
    inf.add_argument("--network", required=True)
    inf.add_argument("--arch", choices=ARCHES + ("all",), default="all")
    inf.add_argument(
        "--tree",
        choices=("auto", "junction", "binary"),
        default="auto",
        help="auto = junction for ls/hugin, binary for ss",
    )
    inf.add_argument("--targets", help="comma separated variable names (default: all)")
    inf.add_argument("--format", choices=("text", "csv", "markdown"), default="text")
    inf.add_argument("--storage", action="store_true", help="include storage accounting")
    inf.set_defaults(func=cmd_infer)

    vf = sub.add_parser("verify", help="compare architectures to the brute-force joint")
    vf.add_argument("--network", required=True)
    vf.add_argument("--tolerance", type=_finite_non_negative, default=1e-9)
    vf.add_argument("--oracle-cap", type=_positive_int, default=ORACLE_CAP)
    vf.set_defaults(func=cmd_verify)

    bn = sub.add_parser("bench", help="run random trials and emit CSV rows")
    bn.add_argument(
        "--params",
        required=True,
        help="generator parameters: 'n,c1,c2,m,p' or 'n=8,c2=2,m=3,p=3'",
    )
    bn.add_argument("--trials", type=int, required=True)
    bn.add_argument("--seed", type=int, default=0, help="master seed")
    bn.add_argument("--out", help="CSV path (default: rows to stdout)")
    bn.add_argument("--verify-oracle", action="store_true")
    bn.add_argument("--tolerance", type=_finite_non_negative, default=1e-9)
    bn.add_argument("--oracle-cap", type=_positive_int, default=ORACLE_CAP)
    bn.set_defaults(func=cmd_bench)

    rp = sub.add_parser("report", help="aggregate CSV rows into a comparison table")
    rp.add_argument("rows", nargs="+", help="CSV files from bench")
    rp.add_argument("--format", choices=("text", "csv", "markdown"), default="text")
    rp.add_argument(
        "--div-weight",
        type=_finite_non_negative,
        default=1.0,
        help="weight of a division relative to an addition or multiplication",
    )
    rp.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout: print nothing more, and leave no output for the flush at
        # exit to fail on. 141 is what a shell reports for a tool killed by SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, ArithmeticError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
