"""Edited network documents through the CLI: every outcome is an answer or a refusal.

Each example takes a network document (the chest, figure 9 or one generated
draw, written by ``network_to_dict``) and applies one or two edits: replace
a value, delete a dict key or a list item, or duplicate one.  An edit picks
a top-level key first and then a place under it, so the few evidence
entries are edited as often as the many CPT cells.  Replacement
values name every float class (zeros, subnormals, tiny and huge normals,
infinities and NaN) and a few values of the wrong type.  ``infer``,
``compile`` and ``verify`` then run on it through ``cli.main``.

Each must exit 0 or 2 (``verify`` also 1), with no uncaught exception, no
``RuntimeWarning`` and no ``nan`` in what it prints to stdout (a refusal
on stderr may quote the NaN it refuses).  Where ``infer`` answers
and the joint has at most 2**10 cells, its marginals must equal an exact
rational brute force over the document's own numbers to 1e-12; that
brute force shares no code with the program.

A second harness edits compiled trees instead: the chest's and those of a
few generated draws of at most eight variables, junction and binary alike.
One or two edits drop a variable from a node, add or remove an edge, make
an edge one-way, list a neighbor twice or relabel the tree's kind.  Each
engine must then refuse the tree (``EngineError`` or ``CompileError``) or
give the brute-force oracle's marginals to 1e-9; no other exception is
allowed.
"""

import contextlib
import io
import itertools
import json
import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bnbench import cli
from bnbench.compile import CompileError, JoinTree, compile_structures
from bnbench.engines import EngineError, hugin_run, ls_run, ss_run
from bnbench.fileio import network_to_dict
from bnbench.generate import GenParams, random_case
from bnbench.network import chest_clinic, chest_clinic_evidence, figure9_evidence, figure9_net, oracle_marginals

DOCS = {
    "chest": network_to_dict(chest_clinic(), chest_clinic_evidence()),
    "figure9": network_to_dict(figure9_net(), figure9_evidence()),
    "draw": network_to_dict(*random_case(GenParams(n=7, c2=2, m=3, p=2, seed=0), 0)),
}
VALUES = [
    0, -0.0, 5e-324, 1e-320, 1e-300, 1, 1.0000000000000002, 1e308,
    math.inf, -math.inf, math.nan, "s0", [0.5, 0.5], {"A": 1}, 10**400,
]
EXITS = {"infer": (0, 2), "compile": (0, 2), "verify": (0, 1, 2)}
CELL_CAP = 2**10


def _places(doc, path=()):
    """The path of every dict entry and list item under ``doc``, outermost first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _places(value, path + (key,))


def _edit(doc, path, op, value):
    """``doc`` with the entry at ``path`` replaced by ``value``, deleted or duplicated."""
    doc = json.loads(json.dumps(doc))
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if op == "replace":
        parent[last] = value
    elif op == "delete":
        del parent[last]
    elif isinstance(parent, list):
        parent.insert(last, json.loads(json.dumps(parent[last])))
    else:
        parent["%s'" % last] = json.loads(json.dumps(parent[last]))
    return doc


def _flat(values):
    return [x for v in values for x in _flat(v)] if isinstance(values, list) else [values]


def _exact_marginals(doc):
    """Name -> exact posterior of each state, by summing every configuration in rationals.

    Reads the document as the file format defines it: a CPT lists its
    parents in arc order, then its own variable, row-major with the last
    fastest.  None when the joint exceeds ``CELL_CAP`` cells.
    """
    names = [v["name"] for v in doc["variables"]]
    cards = [len(v["states"]) if isinstance(v["states"], list) else v["states"] for v in doc["variables"]]
    if math.prod(cards) > CELL_CAP:
        return None
    index = {name: i for i, name in enumerate(names)}
    factors = []
    for name, values in doc["cpts"].items():
        family = [index[p] for p, c in doc.get("arcs") or () if c == name] + [index[name]]
        factors.append((family, [Fraction(x) for x in _flat(values)]))
    for name, values in (doc.get("evidence") or {}).items():
        factors.append(([index[name]], [Fraction(x) for x in _flat(values)]))
    mass = [[Fraction(0)] * k for k in cards]
    for config in itertools.product(*(range(k) for k in cards)):
        weight = Fraction(1)
        for family, table in factors:
            cell = 0
            for v in family:
                cell = cell * cards[v] + config[v]
            weight *= table[cell]
        for v, state in enumerate(config):
            mass[v][state] += weight
    total = sum(mass[0])
    return {name: [m / total for m in mass[i]] for i, name in enumerate(names)}


def _run(argv):
    """Exit code, stdout and stderr of ``cli.main(argv)``; a RuntimeWarning fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "case.json"


@given(st.sampled_from(sorted(DOCS)), st.data())
@settings(
    derandomize=True,
    max_examples=400,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_edited_documents_are_answered_or_refused(scratch, label, data):
    doc = DOCS[label]
    for _ in range(data.draw(st.integers(1, 2), label="edits")):
        key = data.draw(st.sampled_from(sorted(doc)), label="key")
        path = data.draw(st.sampled_from([(key,), *_places(doc[key], (key,))]), label="path")
        op = data.draw(st.sampled_from(["replace", "delete", "duplicate"]), label="op")
        value = data.draw(st.sampled_from(VALUES), label="value") if op == "replace" else None
        doc = _edit(doc, path, op, value)
    scratch.write_text(json.dumps(doc))
    network = ["--network", str(scratch)]
    outputs = {}
    for command, extra in (("infer", ["--format", "csv"]), ("compile", []), ("verify", [])):
        code, out, err = _run([command, *network, *extra])
        assert code in EXITS[command], (command, code, out, err)
        assert "nan" not in out.lower(), (command, out)
        outputs[command] = (code, out)
    code, text = outputs["infer"]
    if code == 0:
        _assert_exact(doc, text)


def _assert_exact(doc, text):
    """Every marginal in ``infer``'s CSV ``text`` equals the exact rational one to 1e-12, if that is computed."""
    exact = _exact_marginals(doc)
    if exact is None:
        return
    rows = [line.split(",") for line in text.splitlines()[2:]]
    assert rows
    for arch, _tree, name, state, probability in rows:
        assert abs(float(probability) - float(exact[name][int(state)])) <= 1e-12, (arch, name, state)


@pytest.mark.parametrize("small, refused", [(1e-320, True), (5e-324, True), (1e-300, False)])
def test_subnormal_cpt_entries_are_refused(scratch, small, refused):
    """The chest with A's CPT ``[small, 1 - small]`` and its evidence ``A=[1, 0]``, ``D=[1, 0]``.

    On a subnormal entry every architecture, and the brute-force joint,
    loses precision in its first product, before the evidence zeroes the
    other row: LS and Hugin answer off the exact posterior by 8.9e-4.  So
    a subnormal entry is refused, and a normal one, however small, is
    answered exactly.
    """
    doc = json.loads(json.dumps(DOCS["chest"]))
    doc["cpts"]["A"] = [small, 1 - small]
    scratch.write_text(json.dumps(doc))
    code, out, err = _run(["infer", "--network", str(scratch), "--arch", "all", "--format", "csv"])
    if code == 0:
        _assert_exact(doc, out)
    assert code == (2 if refused else 0), err
    if refused:
        assert err.startswith("error: CPT of variable 'A': entry at configuration (0,)")
        assert _run(["verify", "--network", str(scratch)])[0] == 2


def _compiled_case(net, evidence):
    return compile_structures(net, evidence), oracle_marginals(net, evidence)


TREE_CASES = {
    "chest": _compiled_case(chest_clinic(), chest_clinic_evidence()),
    **{
        "draw-%d-%d" % (n, t): _compiled_case(*random_case(GenParams(n=n, c2=3, m=3, p=2, seed=11), t))
        for n in (5, 8)
        for t in range(2)
    },
}
TREE_EDITS = ["drop", "add", "remove", "one-way", "duplicate", "kind"]


def _edit_tree(kind, nodes, adj, edit, data):
    """``(kind, nodes, adj)`` after ``edit``, drawn from ``data``; ``nodes`` and ``adj`` are edited in place."""
    ids = sorted(nodes)
    # every listed neighbor, as (node, neighbor); an earlier edit may have made one one-way
    edges = [(u, v) for u in ids for v in adj[u]]
    if edit == "drop":
        n = data.draw(st.sampled_from([n for n in ids if nodes[n]]), label="node")
        x = data.draw(st.sampled_from(nodes[n]), label="variable")
        nodes[n] = tuple(v for v in nodes[n] if v != x)
    elif edit == "add":
        u, v = data.draw(st.sampled_from([(u, v) for u in ids for v in ids if u < v]), label="pair")
        adj[u].append(v)
        adj[v].append(u)
    elif edit in ("remove", "one-way") and edges:
        u, v = data.draw(st.sampled_from(edges), label="edge")
        adj[u].remove(v)
        if edit == "remove" and u in adj[v]:
            adj[v].remove(u)
    elif edit == "duplicate" and edges:
        u, v = data.draw(st.sampled_from(edges), label="edge")
        adj[u].append(v)
    elif edit == "kind":
        kind = "binary" if kind == "junction" else "junction"
    return kind, nodes, adj


@given(st.sampled_from(sorted(TREE_CASES)), st.sampled_from(["junction", "binary"]), st.data())
@settings(derandomize=True, max_examples=300, deadline=None, database=None)
def test_edited_trees_are_refused_or_exact(label, which, data):
    comp, oracle = TREE_CASES[label]
    tree = getattr(comp, which)
    kind, nodes, adj = tree.kind, dict(tree.nodes), {n: list(qs) for n, qs in tree.adj.items()}
    for _ in range(data.draw(st.integers(1, 2), label="edits")):
        kind, nodes, adj = _edit_tree(kind, nodes, adj, data.draw(st.sampled_from(TREE_EDITS), label="edit"), data)
    edited = JoinTree(kind, nodes, adj, dict(tree.cards))
    for run in (ls_run, hugin_run, ss_run):
        try:
            res = run(edited, comp.potentials)
        except (EngineError, CompileError):
            continue
        assert sorted(res.singleton_marginals) == sorted(oracle), run.__name__
        for x, marginal in res.singleton_marginals.items():
            assert abs(marginal.values - oracle[x]).max() <= 1e-9, (run.__name__, x)
