"""Test-side helpers and full-scan reference implementations.

The potential constructors and configuration walkers build and inspect
tables cell by cell, independently of the vectorized algebra under test.
The ``reference_*`` functions are the straightforward scans over every node
or edge that the holder-indexed choices in ``bnbench`` must reproduce.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from bnbench.compile import JoinTree
from bnbench.potentials import Potential, Variable


def from_values(domain_ids: Sequence[int], cards: Sequence[int], values) -> Potential:
    """Potential from raw ids, cardinalities and row-major values."""
    arr = np.asarray(values, dtype=np.float64).reshape(tuple(cards))
    return Potential(tuple(domain_ids), arr)


def identity_potential(domain: Sequence[Variable]) -> Potential:
    """All-ones potential; carries the identity mark until arithmetic touches it."""
    ids = tuple(v.id for v in domain)
    cards = tuple(v.cardinality for v in domain)
    return Potential(ids, np.ones(cards), is_identity=True)


def identity_scalar() -> Potential:
    """The empty-domain unit element."""
    return Potential((), np.ones(()), is_identity=True)


def iter_configurations(domain: Sequence[int], cards: dict) -> Iterator[dict]:
    """Yield assignments (var id -> state index) in row-major order, last fastest."""
    domain = tuple(domain)
    if not domain:
        yield {}
        return
    head, tail = domain[0], domain[1:]
    for state in range(cards[head]):
        for rest in iter_configurations(tail, cards):
            cfg = {head: state}
            cfg.update(rest)
            yield cfg


def value_at(pot: Potential, config: dict) -> float:
    """Look up a single configuration (projection of ``config`` to the domain)."""
    idx = tuple(config[v] for v in pot.domain)
    return float(pot.values[idx])


def triangulate(graph: dict, order: list) -> tuple:
    """Fill the graph along ``order``; return (chordal adjacency, cliques).

    Cliques are the subset-reduced elimination cliques in discovery order.
    """
    adj = {v: set(nbrs) for v, nbrs in graph.items()}
    remaining = set(adj)
    cliques = []
    for v in order:
        nbrs = adj[v] & remaining
        candidate = tuple(sorted({v} | nbrs))
        if not any(set(candidate) <= set(c) for c in cliques):
            cliques.append(candidate)
        ns = sorted(nbrs)
        for i in range(len(ns)):
            for j in range(i + 1, len(ns)):
                adj[ns[i]].add(ns[j])
                adj[ns[j]].add(ns[i])
        remaining.remove(v)
    return adj, cliques


def reference_designated(tree: JoinTree, x: int):
    """Smallest-state-space node containing x (ties: lowest id), or None."""
    holders = [n for n in sorted(tree.nodes) if x in tree.nodes[n]]
    if not holders:
        return None
    return min(holders, key=lambda n: (tree.statespace(n), n))


def reference_best_separator(tree: JoinTree, x: int):
    """Smallest separator containing x as (state space, edge), or None."""
    best = None
    for u, v in tree.edges():
        if x in tree.separator(u, v):
            cand = (tree.sep_statespace(u, v), (u, v))
            if best is None or cand < best:
                best = cand
    return best


def reference_host(tree: JoinTree, domain) -> int:
    """Smallest node whose domain covers ``domain`` (ties: lowest id)."""
    dom = set(domain)
    hosts = [n for n in tree.nodes if dom <= set(tree.nodes[n])]
    return min(hosts, key=lambda n: (tree.statespace(n), n))
