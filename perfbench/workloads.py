"""Workload definitions and the per-trial body of the benchmark.

A workload is a list of cases ``(params, trial)``; the benchmark runs them in
order and starts again from the top when the list runs out.  Every case is
one trial of ``bnbench bench``: the per-trial body makes the same public
calls as ``cli.bench_rows`` and builds the same row dicts, so a trial's rows
are byte-identical to the rows ``bench`` writes for it.

The body looks every program function up as a module attribute at call time.
That is what lets the tracer wrap a layer by rebinding the module attribute,
with no edit to the program.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

from bnbench import compile as bn_compile
from bnbench import engines, generate, storage
from bnbench.fileio import ROW_FIELDS, rows_to_csv
from bnbench.generate import GenParams, trial_params

ARCHES = ("ls", "hugin", "ss")
RUNNERS = {"ls": "ls_run", "hugin": "hugin_run", "ss": "ss_run"}

# The two acceptance-criterion-6 presets: the population behind the paper's
# average-case table.
SMALL = (GenParams(n=8, c2=2, m=3, p=3), GenParams(n=8, c2=5, m=6, p=3))
WIDE = GenParams(n=14, c1=6, c2=5, m=6, p=3)
LONG = GenParams(n=200, c1=5, c2=2, m=2, p=1)

# Wide draws are stratified by the octave (floor of log2) of their junction
# tree's total state space, which sets a trial's working memory.  Quotas
# follow the population shares of 1500 draws at seeds 0-2, scaled to about
# 300 trials, so every run holds the same mix of table sizes and the heavy
# tail shows up in every run in the same proportion.  Draws of 2**20 cells
# or more (3.3% of the population) are skipped: the run's peak memory is the
# largest trial's, and above that size it moves by 15-20% from seed to seed
# even with the octave's quota fixed.
WIDE_QUOTAS = {
    10: 1, 11: 6, 12: 17, 13: 33, 14: 52,
    15: 54, 16: 54, 17: 36, 18: 23, 19: 14,
}
WIDE_MAX_DRAWS = 20000

# Small keeps the first 1000 draws of each preset whose junction tree stays
# below 2**17 cells.  That skips about 0.5% of the m=6 preset and none of the m=3
# one.  Skipped draws reach 10**6 cells: they are wide trials, and the
# largest of them would set the run's peak memory, which then moved by 10%
# from seed to seed.  A fixed list also keeps the set of trials behind
# peak_rss_mb from growing when the program gets faster.
SMALL_CAP = 1 << 17
SMALL_CASES = 1000
LONG_CASES = 1000

# Trials covered by the pinned rows digest: the first cases of the list.
DIGEST_TRIALS = {"small": 64, "wide": 20, "long": 6}

WORKLOADS = ("small", "wide", "long")


def junction_cells(net) -> int:
    """Total state space of the junction tree the compiler would build.

    The junction tree's cliques are the maximal elimination cliques under
    the compiler's min-fill order, so no tree has to be built.
    """
    cards = net.cards
    graph = bn_compile.moral_graph(net)
    adj = {v: set(nbrs) for v, nbrs in graph.items()}
    remaining = set(adj)
    cliques = []
    for v in bn_compile.elimination_order(graph, cards):
        nbrs = adj[v] & remaining
        clique = nbrs | {v}
        if not any(clique <= c for c in cliques):
            cliques.append(clique)
        for u in nbrs:
            adj[u] |= nbrs - {u}
        remaining.remove(v)
    total = 0
    for clique in cliques:
        cells = 1
        for u in clique:
            cells *= cards[u]
        total += cells
    return total


def wide_trials(seed: int) -> list:
    """Trial indices of the stratified wide draws, interleaved round-robin across octaves.

    Draws run through trial indices 0, 1, 2, ... and each is kept if its
    octave's quota is not yet full.  Interleaving makes any prefix of the
    list hold roughly the same mix as the whole list.
    """
    params = replace(WIDE, seed=seed)
    buckets = {k: [] for k in WIDE_QUOTAS}
    missing = sum(WIDE_QUOTAS.values())
    t = 0
    while missing:
        if t >= WIDE_MAX_DRAWS:
            raise RuntimeError("wide quotas not filled after %d draws" % t)
        net, _ = generate.random_case(params, t)
        octave = junction_cells(net).bit_length() - 1
        if octave in buckets and len(buckets[octave]) < WIDE_QUOTAS[octave]:
            buckets[octave].append(t)
            missing -= 1
        t += 1
    trials = []
    for rank in range(max(WIDE_QUOTAS.values())):
        for octave in sorted(buckets):
            if rank < len(buckets[octave]):
                trials.append(buckets[octave][rank])
    return trials


def small_trials(seed: int) -> list:
    """Kept trial indices of each small preset, in draw order."""
    lists = []
    for preset in SMALL:
        params = replace(preset, seed=seed)
        kept = []
        t = 0
        while len(kept) < SMALL_CASES:
            if junction_cells(generate.random_case(params, t)[0]) < SMALL_CAP:
                kept.append(t)
            t += 1
        lists.append(kept)
    return lists


def trial_lists(name: str, seed: int) -> list:
    """Trial indices of a workload, one list per preset.

    Small and wide generate draws they skip, and some of those hold CPTs of
    hundreds of MiB, so a run calls this in a child process to keep them
    out of its own peak memory.
    """
    if name == "small":
        return small_trials(seed)
    if name == "wide":
        return [wide_trials(seed)]
    if name == "long":
        return [list(range(LONG_CASES))]
    raise ValueError("unknown workload %r" % name)


def workload_cases(name: str, seed: int, lists=None) -> list:
    """The case list of a workload; the same seed gives the same list.

    ``lists`` may pass in ``trial_lists(name, seed)`` computed elsewhere.
    Small alternates its two presets.
    """
    if lists is None:
        lists = trial_lists(name, seed)
    presets = {"small": SMALL, "wide": (WIDE,), "long": (LONG,)}[name]
    cases = []
    for rank in range(max(len(ts) for ts in lists)):
        for preset, ts in zip(presets, lists):
            if rank < len(ts):
                cases.append((replace(preset, seed=seed), ts[rank]))
    return cases


def run_trial(params: GenParams, t: int):
    """One bench trial: rows as ``cli.bench_rows`` builds them, plus singleton marginals.

    Only the singleton marginals of each engine result are kept, so, as in
    ``bench_rows``, one engine's tables are freed before the next engine runs.
    """
    net, evidence = generate.random_case(params, t)
    comp = bn_compile.compile_structures(net, evidence)
    tseed = trial_params(params, t).seed
    rows = []
    marginals = {}
    for arch in ARCHES:
        tree = comp.binary if arch == "ss" else comp.junction
        res = getattr(engines, RUNNERS[arch])(tree, comp.potentials)
        stor = storage.storage_report(arch, tree, net, evidence)
        c = res.counter
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
                "input_fpn": stor.input_fpn,
                "evidence_fpn": stor.evidence_fpn,
                "clique_fpn": stor.clique_fpn,
                "separator_fpn": stor.separator_fpn,
                "output_fpn": stor.output_fpn,
                "total_fpn": stor.total_fpn,
                "peak_fpn": storage.peak_working_memory(arch, tree),
            }
        )
        marginals[arch] = res.singleton_marginals
    return rows, marginals


def row_tuple(row: dict) -> tuple:
    return tuple(row[k] for k in ROW_FIELDS)


def digest_order(cases: list) -> list:
    """Indices of ``cases`` ordered by (preset, trial).

    In this order the rows of the cases form the CSV that ``bnbench bench``
    writes: one ``bench_rows`` call per preset, presets in order of first
    appearance, each preset's trials ascending.
    """
    rank = {}
    for params, _ in cases:
        rank.setdefault(params, len(rank))
    return sorted(range(len(cases)), key=lambda i: (rank[cases[i][0]], cases[i][1]))


def rows_digest(row_tuples) -> str:
    """sha256 of the rows CSV (``fileio.rows_to_csv``) of the given rows."""
    rows = [dict(zip(ROW_FIELDS, r)) for r in row_tuples]
    return hashlib.sha256(rows_to_csv(rows).encode()).hexdigest()
