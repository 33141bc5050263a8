"""Parameterized random network and evidence generation for the benchmark.

Construction follows the stated parameter semantics: variables are added in
index order; variable i draws a connection count k uniformly from [1, c2]
(capped by the candidate window), connects to k distinct earlier variables
within ordering distance c1, and each connection is oriented parent-of-i or
child-of-i with equal probability.  An orientation that would close a
directed cycle falls back to the other one: child to parent, and parent to
child.  Cardinalities are uniform on [2, m]; CPT entries are uniform on
(0, 1) normalized per parent configuration.  Everything is a pure function
of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from bnbench.network import BayesNet
from bnbench.potentials import Variable, make_potential

MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class GenParams:
    n: int
    c1: int = 5
    c2: int = 2
    m: int = 2
    p: int = 1
    seed: int = 0

    def __post_init__(self):
        for name, low in (("n", 2), ("c1", 1), ("c2", 2), ("m", 2), ("p", 1)):
            value = getattr(self, name)
            if value < low:
                raise ValueError("generator parameter %r must be >= %d, got %r" % (name, low, value))
        if self.p > self.n:
            raise ValueError("generator parameter 'p' must be <= n = %d, got %r" % (self.n, self.p))


def splitmix64(state: int) -> int:
    """One step of the splitmix64 sequence; returns the mixed output."""
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, stream: int) -> int:
    """Decorrelated per-stream seed: two splitmix steps over master and stream."""
    return splitmix64(splitmix64(master & MASK64) ^ ((stream * 0xD6E8FEB86659FD93) & MASK64))


def trial_params(params: GenParams, trial: int) -> GenParams:
    return replace(params, seed=derive_seed(params.seed, trial))


def _reaches(children: dict, start: int, goal: int) -> bool:
    stack, seen = [start], {start}
    while stack:
        v = stack.pop()
        if v == goal:
            return True
        for c in children[v]:
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return False


def random_net(params: GenParams) -> BayesNet:
    rng = np.random.default_rng(params.seed)
    n = params.n
    cards = rng.integers(2, params.m + 1, size=n)
    arcs = []
    children = {i: [] for i in range(n)}
    for i in range(1, n):
        lo = max(0, i - params.c1)
        candidates = list(range(lo, i))
        k = int(rng.integers(1, params.c2 + 1))
        k = min(k, len(candidates))
        picked = sorted(rng.choice(len(candidates), size=k, replace=False))
        for idx in picked:
            j = candidates[int(idx)]
            as_child = bool(rng.integers(0, 2))
            if as_child and _reaches(children, j, i):
                as_child = False
            elif not as_child and _reaches(children, i, j):
                as_child = True
            if as_child:
                arcs.append((i, j))
                children[i].append(j)
            else:
                arcs.append((j, i))
                children[j].append(i)

    variables = [Variable(i, "V%d" % i, int(cards[i])) for i in range(n)]
    parents = {i: [] for i in range(n)}
    for parent, child in arcs:
        parents[child].append(parent)
    cpts = {}
    for i in range(n):
        domain = [variables[j] for j in parents[i]] + [variables[i]]
        shape = tuple(v.cardinality for v in domain)
        raw = rng.uniform(0.0, 1.0, size=shape)
        raw = raw / raw.sum(axis=-1, keepdims=True)
        cpts[i] = make_potential(domain, raw.reshape(-1))
    return BayesNet(variables, arcs, cpts)


def random_evidence(net: BayesNet, params: GenParams, rng: np.random.Generator) -> dict:
    count = int(rng.integers(1, params.p + 1))
    count = min(count, net.n)
    chosen = sorted(rng.choice(net.n, size=count, replace=False))
    evidence = {}
    for vid in chosen:
        vid = int(vid)
        card = net.var(vid).cardinality
        vec = np.zeros(card)
        vec[int(rng.integers(0, card))] = 1.0
        evidence[vid] = vec
    return evidence


def random_case(params: GenParams, trial: int):
    """Deterministic (net, evidence) pair for one benchmark trial."""
    tp = trial_params(params, trial)
    net = random_net(tp)
    rng = np.random.default_rng(derive_seed(tp.seed, 0x5EED))
    return net, random_evidence(net, tp, rng)
