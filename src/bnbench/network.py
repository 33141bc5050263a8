"""Bayesian network model, validation, fixtures, and the brute-force oracle.

A network is an acyclic digraph with one conditional probability table per
variable.  CPT domains are ordered (parents in arc-declaration order, child
last) so file round-trips are unambiguous.  Evidence is a map from variable
id to a likelihood vector; hard observations are indicator vectors.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from bnbench.counting import OpCounter
from bnbench.potentials import (
    Potential,
    Variable,
    ZeroMassError,
    make_potential,
    marginalize,
    multiply,
)

ORACLE_CAP = 1 << 22


class NetworkError(ValueError):
    """Structurally unusable network or evidence."""


class BayesNet:
    """Variables, arcs, and one CPT per variable.

    ``arcs`` keeps declaration order; a variable's parents are listed in the
    order their arcs were declared.  Each CPT is a potential whose domain is
    the parent ids (declaration order) followed by the child id, so values
    are row-major with the child varying fastest.
    """

    def __init__(self, variables: Sequence[Variable], arcs, cpts):
        self.variables = list(variables)
        self.arcs = [tuple(a) for a in arcs]
        self.cpts = dict(cpts)
        self._parents = {v.id: [] for v in self.variables}
        for parent, child in self.arcs:
            if child in self._parents:
                self._parents[child].append(parent)

    @property
    def n(self):
        return len(self.variables)

    @property
    def cards(self) -> dict:
        return {v.id: v.cardinality for v in self.variables}

    def var(self, vid: int) -> Variable:
        return self.variables[vid]

    def parents(self, vid: int):
        return tuple(self._parents[vid])

    def family(self, vid: int):
        """CPT domain of ``vid``: parents in declaration order, child last."""
        return self.parents(vid) + (vid,)


def validate(net: BayesNet) -> list:
    """Return a list of violation strings; empty iff the network is valid."""
    problems = []
    ids = [v.id for v in net.variables]
    if ids != list(range(len(ids))):
        problems.append("variable ids are not dense from 0: %r" % (ids,))
        return problems
    idset = set(ids)
    names = {v.id: v.name for v in net.variables}
    for parent, child in net.arcs:
        if parent not in idset or child not in idset:
            problems.append("arc (%r, %r) references unknown variable" % (parent, child))
        elif parent == child:
            problems.append("self-arc on variable %r" % names[parent])
    if problems:
        return problems

    # Acyclicity via Kahn's sort.
    indeg = {v: 0 for v in ids}
    children = {v: [] for v in ids}
    parents = {v: [] for v in ids}
    for parent, child in net.arcs:
        indeg[child] += 1
        children[parent].append(child)
        parents[child].append(parent)
    queue = [v for v in ids if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for c in children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                queue.append(c)
    if seen != len(ids):
        # Each variable the sort left keeps a parent it left too, so walking
        # back through such parents must close a cycle.
        left = {v for v in ids if indeg[v] > 0}
        walk, at = [], {}
        v = min(left)
        while v not in at:
            at[v] = len(walk)
            walk.append(v)
            v = min(q for q in parents[v] if q in left)
        cycle = [v] + walk[at[v] + 1:][::-1] + [v]
        problems.append(
            "acyclicity violation: directed cycle %s"
            % " -> ".join(repr(names[u]) for u in cycle)
        )

    if len(ids) > 1:
        # Weak connectivity.
        adj = {v: set() for v in ids}
        for parent, child in net.arcs:
            adj[parent].add(child)
            adj[child].add(parent)
        stack, reached = [0], {0}
        while stack:
            for u in adj[stack.pop()]:
                if u not in reached:
                    reached.add(u)
                    stack.append(u)
        if reached != idset:
            problems.append(
                "connectivity violation: variables %r unreachable"
                % sorted(idset - reached)
            )

    cards = net.cards
    for v in ids:
        cpt = net.cpts.get(v)
        if cpt is None:
            problems.append("variable %r has no CPT" % names[v])
            continue
        if tuple(cpt.domain) != net.family(v):
            problems.append(
                "CPT of variable %r has domain %r, not its parents then itself %r"
                % (
                    names[v],
                    [names.get(u, u) for u in cpt.domain],
                    [names.get(u, u) for u in net.family(v)],
                )
            )
            continue
        scratch = OpCounter()
        rows = marginalize(cpt, net.parents(v), scratch)
        if not np.allclose(rows.values, 1.0, atol=1e-9, rtol=0.0):
            bad = np.unravel_index(
                int(np.argmax(np.abs(rows.values - 1.0))), rows.values.shape
            )
            problems.append(
                "CPT of variable %r: row at parent configuration %r sums to %.12g"
                % (names[v], tuple(int(i) for i in bad), float(rows.values[bad]))
            )
        if cards[v] != cpt.card(v):
            problems.append(
                "CPT of variable %r has %d states, the variable has %d"
                % (names[v], cpt.card(v), cards[v])
            )
    return problems


def check_evidence(net: BayesNet, evidence: dict) -> list:
    """Return a list of problems with the evidence, each naming its variable."""
    problems = []
    cards = net.cards
    for vid, vec in evidence.items():
        if vid not in cards:
            problems.append("evidence on unknown variable %r" % (vid,))
            continue
        name = net.var(vid).name
        arr = np.asarray(vec, dtype=np.float64)
        if arr.shape != (cards[vid],):
            problems.append(
                "evidence vector on %r has shape %r, expected (%d,)" % (name, arr.shape, cards[vid])
            )
        elif not np.all(np.isfinite(arr)):
            problems.append("evidence vector on %r has a non-finite entry: %r" % (name, arr.tolist()))
        elif np.any(arr < 0) or not np.any(arr > 0):
            problems.append(
                "evidence vector on %r must be non-negative with a positive entry" % name
            )
    return problems


def chest_clinic() -> BayesNet:
    """The classic eight-variable chest-clinic diagnostic network.

    Binary variables A,S,T,L,B,E,X,D with ids 0..7; state index 0 means
    "yes".  The CPT numbers are conventional valid defaults; every
    structural and counting target is independent of them.
    """
    names = ["A", "S", "T", "L", "B", "E", "X", "D"]
    A, S, T, L, B, E, X, D = range(8)
    variables = [Variable(i, names[i], 2) for i in range(8)]
    arcs = [(A, T), (S, L), (S, B), (T, E), (L, E), (E, X), (E, D), (B, D)]
    v = {i: variables[i] for i in range(8)}
    cpts = {
        A: make_potential([v[A]], [0.01, 0.99]),
        S: make_potential([v[S]], [0.50, 0.50]),
        T: make_potential([v[A], v[T]], [0.05, 0.95, 0.01, 0.99]),
        L: make_potential([v[S], v[L]], [0.10, 0.90, 0.01, 0.99]),
        B: make_potential([v[S], v[B]], [0.60, 0.40, 0.30, 0.70]),
        E: make_potential([v[T], v[L], v[E]], [1, 0, 1, 0, 1, 0, 0, 1]),
        X: make_potential([v[E], v[X]], [0.98, 0.02, 0.05, 0.95]),
        D: make_potential([v[E], v[B], v[D]], [0.90, 0.10, 0.70, 0.30, 0.80, 0.20, 0.10, 0.90]),
    }
    return BayesNet(variables, arcs, cpts)


def chest_clinic_evidence() -> dict:
    """Indicator evidence: recent travel observed and dyspnoea observed."""
    return {0: np.array([1.0, 0.0]), 7: np.array([1.0, 0.0])}


def figure9_net() -> BayesNet:
    """One five-state disease with two five-state symptom children."""
    variables = [Variable(0, "D", 5), Variable(1, "S1", 5), Variable(2, "S2", 5)]
    arcs = [(0, 1), (0, 2)]
    prior = np.full(5, 0.2)
    cond = np.full((5, 5), 0.2)
    cpts = {
        0: make_potential([variables[0]], prior),
        1: make_potential([variables[0], variables[1]], cond),
        2: make_potential([variables[0], variables[2]], cond),
    }
    return BayesNet(variables, arcs, cpts)


def figure9_evidence() -> dict:
    ind = np.zeros(5)
    ind[0] = 1.0
    return {1: ind.copy(), 2: ind.copy()}


def evidence_potentials(net: BayesNet, evidence: dict) -> list:
    pots = []
    for vid in sorted(evidence):
        if vid >= net.n:
            raise NetworkError("evidence on unknown variable %r" % vid)
        pots.append(make_potential([net.var(vid)], evidence[vid]))
    return pots


def input_potentials(net: BayesNet, evidence: dict):
    """All CPTs plus one potential per evidence item, and their domain hypergraph.

    Potential order: CPTs by variable id, then evidence by variable id.  The
    hypergraph lists the distinct sorted domains in first-appearance order.
    """
    pots = [net.cpts[v.id] for v in net.variables]
    pots.extend(evidence_potentials(net, evidence))
    hypergraph = []
    seen = set()
    for pot in pots:
        dom = tuple(sorted(pot.domain))
        if dom not in seen:
            seen.add(dom)
            hypergraph.append(dom)
    return pots, hypergraph


def joint_oracle(net: BayesNet, evidence: dict, cap: int = ORACLE_CAP) -> Potential:
    """Unnormalized posterior joint by direct combination of every input.

    Out-of-band reference: runs on its own scratch counter so instrumented
    totals are never polluted.  Refuses joints above ``cap`` configurations.
    """
    size = 1
    for v in net.variables:
        size *= v.cardinality
    if size > cap:
        raise NetworkError(
            "joint has %d configurations, above the oracle cap %d" % (size, cap)
        )
    scratch = OpCounter()
    pots, _ = input_potentials(net, evidence)
    joint = pots[0]
    for pot in pots[1:]:
        joint = multiply(joint, pot, scratch)
    return joint


def oracle_marginals(net: BayesNet, evidence: dict, cap: int = ORACLE_CAP) -> dict:
    """Normalized singleton marginals from the brute-force joint."""
    joint = joint_oracle(net, evidence, cap)
    mass = float(joint.values.sum())
    if mass <= 0.0:
        raise ZeroMassError("evidence has zero mass under the model")
    scratch = OpCounter()
    out = {}
    for v in net.variables:
        marg = marginalize(joint, (v.id,), scratch)
        out[v.id] = marg.values / mass
    return out
