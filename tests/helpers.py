"""Test-side helpers and full-scan reference implementations.

The potential constructors and configuration walkers build and inspect
tables cell by cell, independently of the vectorized algebra under test.
The ``reference_*`` functions are:

* the earlier, plainer forms of the potential kernels, which the trimmed
  kernels in ``bnbench.potentials`` must match bit for bit;
* the straightforward scans over every node or edge (edges, separators,
  state spaces, root, rooted orders, designated nodes, best separators, hosts)
  that each tree's cached index in ``bnbench.compile.JoinTree`` must
  reproduce;
* the join-tree check with its own connectivity walk and one walk per
  variable, whose problem lists ``bnbench.compile.verify_join_tree``, which
  reads the cached rooting, must repeat;
* the restart-from-scratch compile loops that the worklist versions in
  ``bnbench.compile`` must match choice for choice;
* the memoized demand-driven Shenoy-Shafer run that the two-pass
  ``bnbench.engines.ss_run`` must match bit for bit;
* the LS and Hugin runs that start every node table as a marked all-ones
  identity (:class:`MarkedIdentity`) and let ``reference_divide`` skip a
  marked denominator, which the engines, whose tables and registers start
  absent, must match bit for bit.

:func:`step_counts` reads an engine plan's counts off its steps alone,
which every engine's ``OpCounter`` must equal.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from bnbench.compile import JoinTree, _statespace
from bnbench.counting import OpCounter
from bnbench.engines import (
    _COPY,
    _DIVIDE,
    _DIVIDE_IN,
    _MARGINALIZE,
    _MULTIPLY,
    _MULTIPLY_IN,
    EngineResult,
    _check_assignments,
    _edge_key,
    _targets,
)
from bnbench.potentials import (
    InconsistencyError,
    Potential,
    PotentialError,
    Variable,
    identity_over,
    marginalize,
    multiply,
    normalize,
)


class MarkedIdentity(Potential):
    """An all-ones table marked as the neutral element.

    The mark is the type: arithmetic builds plain potentials, so it never
    survives an operation.
    """

    __slots__ = ()


def from_values(domain_ids: Sequence[int], cards: Sequence[int], values) -> Potential:
    """Potential from raw ids, cardinalities and row-major values."""
    arr = np.asarray(values, dtype=np.float64).reshape(tuple(cards))
    return Potential(tuple(domain_ids), arr)


def identity_potential(domain: Sequence[Variable]) -> Potential:
    """All-ones potential; carries the identity mark until arithmetic touches it."""
    ids = tuple(v.id for v in domain)
    cards = tuple(v.cardinality for v in domain)
    return MarkedIdentity(ids, np.ones(cards))


def identity_scalar() -> Potential:
    """The empty-domain unit element."""
    return MarkedIdentity((), np.ones(()))


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


def reference_expand(pot: Potential, out_domain: tuple) -> np.ndarray:
    """``_expand`` by a sort keyed on ``out_domain.index`` and a walk of ``out_domain``."""
    perm = sorted(range(len(pot.domain)), key=lambda i: out_domain.index(pot.domain[i]))
    arr = pot.values.transpose(perm)
    shape = []
    k = 0
    ordered = [pot.domain[i] for i in perm]
    for var in out_domain:
        if k < len(ordered) and ordered[k] == var:
            shape.append(arr.shape[k])
            k += 1
        else:
            shape.append(1)
    return arr.reshape(shape)


def reference_embed(pot: Potential, domain: Sequence[int], cards: dict) -> Potential:
    """``embed`` as a copy of a broadcast view."""
    dom = tuple(domain)
    if not set(pot.domain) <= set(dom):
        raise PotentialError("cannot embed %r into %r" % (pot.domain, dom))
    shape = tuple(cards[v] for v in dom)
    arr = np.broadcast_to(reference_expand(pot, dom), shape)
    return Potential(dom, arr.copy())


def reference_marginalize(a: Potential, keep, counter) -> Potential:
    """``marginalize`` with separate passes for the check, the axes and the domain."""
    keep = set(keep)
    if not keep <= set(a.domain):
        raise PotentialError("marginalization target %r not within %r" % (keep, a.domain))
    axes = tuple(i for i, v in enumerate(a.domain) if v not in keep)
    if not axes:
        return Potential(a.domain, a.values)
    out = a.values.sum(axis=axes)
    counter.adds += a.size - out.size
    return Potential(tuple(v for v in a.domain if v in keep), out)


def reference_divide(num: Potential, den: Potential, counter) -> Potential:
    """``divide`` that always masks the zero cells of the denominator.

    A marked identity denominator is free and leaves the numerator as it is.
    """
    if isinstance(den, MarkedIdentity):
        return Potential(num.domain, num.values)
    if not set(den.domain) <= set(num.domain):
        raise PotentialError("denominator domain %r exceeds numerator %r" % (den.domain, num.domain))
    den_b = np.broadcast_to(reference_expand(den, num.domain), num.values.shape)
    zero = den_b == 0.0
    if np.any(num.values[zero] != 0.0):
        raise InconsistencyError("positive value divided by zero")
    out = np.zeros_like(num.values)
    np.divide(num.values, den_b, out=out, where=~zero)
    counter.divs += num.size
    return Potential(num.domain, out)


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


def reference_separator(tree: JoinTree, u: int, v: int) -> tuple:
    """Variables shared by nodes u and v, ascending, intersected afresh."""
    return tuple(sorted(set(tree.nodes[u]) & set(tree.nodes[v])))


def reference_space(tree: JoinTree, domain) -> int:
    """State space of ``domain`` under the tree's cardinalities."""
    return math.prod(tree.cards[x] for x in domain)


def reference_root(tree: JoinTree) -> int:
    """Biggest-state-space node; ties broken by lowest id."""
    return min(sorted(tree.nodes), key=lambda n: (-reference_space(tree, tree.nodes[n]), n))


def reference_orient(tree: JoinTree, root: int):
    """Rooted traversal orders: preorder, postorder, parent and child maps."""
    parent = {root: None}
    children = {}
    preorder = []
    stack = [root]
    while stack:
        n = stack.pop()
        preorder.append(n)
        kids = [q for q in tree.adj[n] if q != parent[n]]
        children[n] = kids
        for q in reversed(kids):
            parent[q] = n
            stack.append(q)
    postorder = []
    stack = [(root, False)]
    while stack:
        n, done = stack.pop()
        if done:
            postorder.append(n)
            continue
        stack.append((n, True))
        for q in reversed(children[n]):
            stack.append((q, False))
    return preorder, postorder, parent, children


def reference_designated(tree: JoinTree, x: int):
    """Smallest-state-space node containing x (ties: lowest id), or None."""
    holders = [n for n in sorted(tree.nodes) if x in tree.nodes[n]]
    if not holders:
        return None
    return min(holders, key=lambda n: (reference_space(tree, tree.nodes[n]), n))


def reference_edges(tree: JoinTree) -> list:
    """Every edge (u, v) with u < v: nodes in ascending id, each one's neighbors in ``adj`` order."""
    return [(u, v) for u in sorted(tree.nodes) for v in tree.adj[u] if u < v]


def reference_best_separator(tree: JoinTree, x: int):
    """Smallest separator containing x as (state space, edge), or None."""
    best = None
    for u, v in reference_edges(tree):
        sep = reference_separator(tree, u, v)
        if x in sep:
            cand = (reference_space(tree, sep), (u, v))
            if best is None or cand < best:
                best = cand
    return best


def reference_host(tree: JoinTree, domain) -> int:
    """Smallest node whose domain covers ``domain`` (ties: lowest id)."""
    dom = set(domain)
    hosts = [n for n in tree.nodes if dom <= set(tree.nodes[n])]
    return min(hosts, key=lambda n: (reference_space(tree, tree.nodes[n]), n))


def reference_verify_join_tree(tree: JoinTree) -> list:
    """Tree-ness, running intersection and binary degree, each by its own walk."""
    problems = []
    ids = sorted(tree.nodes)
    if not ids:
        return ["empty tree"]
    edge_count = sum(len(tree.adj[n]) for n in ids) // 2
    if edge_count != len(ids) - 1:
        problems.append("%d nodes need %d edges, found %d" % (len(ids), len(ids) - 1, edge_count))
    stack, seen = [ids[0]], {ids[0]}
    while stack:
        for q in tree.adj[stack.pop()]:
            if q not in seen:
                seen.add(q)
                stack.append(q)
    if len(seen) != len(ids):
        problems.append("tree is disconnected")
        return problems

    for x, nids in sorted(tree.holders.items()):
        held = set(nids)
        stack, reached = [nids[0]], {nids[0]}
        while stack:
            for q in tree.adj[stack.pop()]:
                if q in held and q not in reached:
                    reached.add(q)
                    stack.append(q)
        if reached != held:
            problems.append("running intersection fails for variable %r" % x)
    if tree.kind == "binary":
        for n in ids:
            if len(tree.adj[n]) > 3:
                problems.append("node %d has %d neighbors" % (n, len(tree.adj[n])))
    return problems


def reference_elimination_order(graph: dict, cards: dict) -> list:
    """Min-fill order by a full scan of every remaining vertex per step."""
    adj = {v: set(nbrs) for v, nbrs in graph.items()}
    remaining = set(adj)
    order = []
    while remaining:
        best = None
        for v in sorted(remaining):
            nbrs = adj[v] & remaining
            fill = 0
            ns = sorted(nbrs)
            for i in range(len(ns)):
                for j in range(i + 1, len(ns)):
                    if ns[j] not in adj[ns[i]]:
                        fill += 1
            space = cards[v]
            for u in nbrs:
                space *= cards[u]
            key = (fill, space, v)
            if best is None or key < best[0]:
                best = (key, v, nbrs)
        _, v, nbrs = best
        ns = sorted(nbrs)
        for i in range(len(ns)):
            for j in range(i + 1, len(ns)):
                adj[ns[i]].add(ns[j])
                adj[ns[j]].add(ns[i])
        remaining.remove(v)
        order.append(v)
    return order


def reference_binary_join_tree(hypergraph: list, cards: dict, order: list) -> JoinTree:
    """Fusion construction that scans and re-sorts the whole pool per step."""
    nodes = {}
    adj = {}
    for v in sorted(cards):
        nodes[v] = (v,)
        adj[v] = []
    seen = set()
    for dom in hypergraph:
        dom = tuple(sorted(dom))
        if len(dom) < 2 or dom in seen:
            continue
        seen.add(dom)
        nid = len(nodes)
        nodes[nid] = dom
        adj[nid] = []
    fresh = len(nodes)
    pool = set(nodes)

    def connect(a, b):
        adj[a].append(b)
        adj[b].append(a)

    for position, y in enumerate(order):
        phi = [n for n in pool if y in nodes[n]]
        while len(phi) > 1:
            phi.sort(key=lambda n: (_statespace(nodes[n], cards), n))
            r, s = phi[0], phi[1]
            t = fresh
            fresh += 1
            nodes[t] = tuple(sorted(set(nodes[r]) | set(nodes[s])))
            adj[t] = []
            connect(r, t)
            connect(s, t)
            pool.discard(r)
            pool.discard(s)
            pool.add(t)
            phi = phi[2:] + [t]
        u = phi[0]
        pool.discard(u)
        if position < len(order) - 1:
            cont = tuple(x for x in nodes[u] if x != y)
            if cont:
                w = fresh
                fresh += 1
                nodes[w] = cont
                adj[w] = []
                connect(u, w)
                pool.add(w)
    return JoinTree("binary", nodes, {n: sorted(adj[n]) for n in nodes}, dict(cards))


def reference_condense(tree: JoinTree) -> JoinTree:
    """Condensation that rescans every pair after each merge."""
    nodes = dict(tree.nodes)
    adj = {n: set(tree.adj[n]) for n in nodes}
    changed = True
    while changed:
        changed = False
        pairs = sorted(
            (min(u, v), max(u, v))
            for u in nodes
            for v in adj[u]
            if nodes[u] == nodes[v]
        )
        for lo, hi in pairs:
            merged_nbrs = (adj[lo] | adj[hi]) - {lo, hi}
            if len(merged_nbrs) > 3:
                continue
            for q in adj[hi] - {lo}:
                adj[q].discard(hi)
                adj[q].add(lo)
            adj[lo] = merged_nbrs
            del nodes[hi], adj[hi]
            changed = True
            break
    return JoinTree(tree.kind, nodes, {n: sorted(adj[n]) for n in nodes}, dict(tree.cards))


def reference_junction_tree(bjt: JoinTree) -> JoinTree:
    """Contraction that rescans every node after each absorption."""
    nodes = dict(bjt.nodes)
    adj = {n: set(bjt.adj[n]) for n in nodes}
    changed = True
    while changed:
        changed = False
        for nid in sorted(nodes):
            dom = set(nodes[nid])
            hosts = [
                q
                for q in adj[nid]
                if dom < set(nodes[q]) or (dom == set(nodes[q]) and q < nid)
            ]
            if not hosts:
                continue
            target = min(hosts)
            for q in adj[nid] - {target}:
                adj[q].discard(nid)
                adj[q].add(target)
                adj[target].add(q)
            adj[target].discard(nid)
            del nodes[nid], adj[nid]
            changed = True
            break
    relabel = {old: new for new, old in enumerate(sorted(nodes))}
    out_nodes = {relabel[n]: nodes[n] for n in nodes}
    out_adj = {relabel[n]: sorted(relabel[q] for q in adj[n]) for n in nodes}
    return JoinTree("junction", out_nodes, out_adj, dict(bjt.cards))


def reference_ss_run(tree: JoinTree, potentials, targets=None) -> EngineResult:
    """Shenoy-Shafer demand-driven propagation with memoized recursion.  Never divides.

    The earlier form of ``bnbench.engines.ss_run``: the two-pass run must
    match its counters, message keys and values, and marginals bit for bit.

    Each requested target demands the messages into its designated node
    (the smallest node containing it); message computation recurses and is
    memoized, so unrequested messages are never produced.  A message from r
    toward s folds the stored messages from r's other neighbors (ascending
    neighbor id) and finally r's combined own potential, then marginalizes
    onto the separator.  Node marginals fold all incoming messages plus the
    own potential.  Input potentials are never touched.

    Singleton extraction: when some separator containing the variable is
    strictly smaller than the designated node, the product of that
    separator's two directed messages is marginalized instead; on a binary
    join tree with singleton nodes this never fires and the singleton's own
    node marginal is already the answer.
    """
    counter = OpCounter()
    _check_assignments(tree, [p.domain for p in potentials])
    targets = _targets(tree, targets)
    own_cache = {}
    messages = {}

    def own(n):
        if n not in own_cache:
            idxs = tree.assignments.get(n, ())
            if not idxs:
                own_cache[n] = None
            else:
                prod = potentials[idxs[0]]
                for i in idxs[1:]:
                    prod = multiply(prod, potentials[i], counter)
                own_cache[n] = prod
        return own_cache[n]

    def message(r, s):
        stack = [(r, s)]
        while stack:
            a, b = stack[-1]
            if (a, b) in messages:
                stack.pop()
                continue
            pending = [(q, a) for q in tree.adj[a] if q != b and (q, a) not in messages]
            if pending:
                stack.extend(pending)
                continue
            factors = [
                messages[(q, a)]
                for q in tree.adj[a]
                if q != b and messages[(q, a)] is not None
            ]
            o = own(a)
            if o is not None:
                factors.append(o)
            if not factors:
                messages[(a, b)] = None
            else:
                prod = factors[0]
                for f in factors[1:]:
                    prod = multiply(prod, f, counter)
                sep = tree.separator(a, b)
                keep = [w for w in prod.domain if w in sep]
                messages[(a, b)] = marginalize(prod, keep, counter)
            stack.pop()
        return messages[(r, s)]

    node_marginals = {}

    def rule2(n):
        if n not in node_marginals:
            factors = [m for m in (message(q, n) for q in tree.adj[n]) if m is not None]
            o = own(n)
            if o is not None:
                factors.append(o)
            if not factors:
                node_marginals[n] = identity_over(tree.nodes[n], tree.cards)
            else:
                prod = factors[0]
                for f in factors[1:]:
                    prod = multiply(prod, f, counter)
                node_marginals[n] = prod
        return node_marginals[n]

    sep_products = {}
    marginals = {}
    for x in targets:
        designated = reference_designated(tree, x)
        node_marg = rule2(designated)
        source = None
        best = tree.best_separators.get(x)
        if best is not None and best[0] < tree.statespace(designated):
            u, v = best[1]
            if (u, v) not in sep_products:
                parts = [m for m in (message(u, v), message(v, u)) if m is not None]
                if not parts:
                    sep_products[(u, v)] = None
                elif len(parts) == 1:
                    sep_products[(u, v)] = parts[0]
                else:
                    sep_products[(u, v)] = multiply(parts[0], parts[1], counter)
            prod = sep_products[(u, v)]
            if prod is not None and x in prod.domain:
                source = prod
        if source is None:
            source = node_marg
        if x in source.domain:
            marginals[x] = normalize(marginalize(source, (x,), counter))
        else:
            marginals[x] = normalize(identity_over((x,), tree.cards))
    return EngineResult("ss", tree.kind, marginals, node_marginals, counter, messages)


def _reference_absorb(table: Potential, pot: Potential, cards: dict, counter) -> Potential:
    """Fold ``pot`` into a node table: free copy when still marked, else product.

    The copy is :func:`reference_embed`, so no loading kernel is shared
    with the engines.
    """
    if isinstance(table, MarkedIdentity):
        return reference_embed(pot, table.domain, cards)
    return multiply(table, pot, counter)


def _reference_init_tables(tree: JoinTree, potentials, counter) -> dict:
    tables = {}
    for n in sorted(tree.nodes):
        dom = tree.nodes[n]
        t = MarkedIdentity(dom, np.ones(tuple(tree.cards[v] for v in dom)))
        for i in tree.assignments.get(n, ()):
            t = _reference_absorb(t, potentials[i], tree.cards, counter)
        tables[n] = t
    return tables


def reference_ls_run(tree: JoinTree, potentials, targets=None) -> EngineResult:
    """Lauritzen-Spiegelhalter run whose node tables start as marked identities.

    The earlier form of ``bnbench.engines.ls_run``: a node whose table is
    still marked when it must send stays silent.
    """
    counter = OpCounter()
    _check_assignments(tree, [p.domain for p in potentials])
    targets = _targets(tree, targets)
    tables = _reference_init_tables(tree, potentials, counter)
    root, preorder, postorder, parent, children = tree.rooting

    for n in postorder:
        if n == root:
            continue
        t = tables[n]
        if isinstance(t, MarkedIdentity):
            continue
        p = parent[n]
        msg = marginalize(t, tree.separator(n, p), counter)
        tables[p] = _reference_absorb(tables[p], msg, tree.cards, counter)
        tables[n] = reference_divide(t, msg, counter)

    for n in preorder:
        for c in children[n]:
            t = tables[n]
            if isinstance(t, MarkedIdentity):
                continue
            msg = marginalize(t, tree.separator(n, c), counter)
            tables[c] = _reference_absorb(tables[c], msg, tree.cards, counter)

    marginals = {}
    for x in targets:
        source = tables[reference_designated(tree, x)]
        marginals[x] = normalize(marginalize(source, (x,), counter))
    return EngineResult("ls", tree.kind, marginals, tables, counter, {})


def reference_hugin_run(tree: JoinTree, potentials, targets=None, on_step=None) -> EngineResult:
    """Hugin run whose node tables start as marked identities.

    The earlier form of ``bnbench.engines.hugin_run``: a node whose table is
    still marked when it must send stays silent, and every message is
    divided by its register unless the register is empty.
    """
    counter = OpCounter()
    _check_assignments(tree, [p.domain for p in potentials])
    targets = _targets(tree, targets)
    tables = _reference_init_tables(tree, potentials, counter)
    root, preorder, postorder, parent, children = tree.rooting
    store = {}

    for n in postorder:
        if n == root:
            continue
        t = tables[n]
        if isinstance(t, MarkedIdentity):
            continue
        p = parent[n]
        key = _edge_key(n, p)
        msg = marginalize(t, tree.separator(n, p), counter)
        old = store.get(key)
        quotient = msg if old is None else reference_divide(msg, old, counter)
        store[key] = msg
        tables[p] = _reference_absorb(tables[p], quotient, tree.cards, counter)
        if on_step is not None:
            on_step("inward", n, p, tables, store)

    for n in preorder:
        for c in children[n]:
            t = tables[n]
            if isinstance(t, MarkedIdentity):
                continue
            key = _edge_key(n, c)
            sep = tree.separator(n, c)
            msg = marginalize(t, sep, counter)
            if len(tree.adj[c]) == 1 and tree.nodes[c] == sep and len(sep) > 1:
                store[key] = msg
                tables[c] = msg
            else:
                old = store.get(key)
                quotient = msg if old is None else reference_divide(msg, old, counter)
                store[key] = msg
                tables[c] = _reference_absorb(tables[c], quotient, tree.cards, counter)
            if on_step is not None:
                on_step("outward", n, c, tables, store)

    marginals = {}
    for x in targets:
        best = tree.best_separators.get(x)
        if best is not None and store.get(best[1]) is not None:
            source = store[best[1]]
        else:
            source = tables[reference_designated(tree, x)]
        marginals[x] = normalize(marginalize(source, (x,), counter))
    return EngineResult("hugin", tree.kind, marginals, tables, counter, store)


def step_counts(tree: JoinTree, plan, domains) -> tuple:
    """``(adds, mults, divs)`` of running an engine plan's steps, its extractions included.

    Like the plan builders, reads only the input potentials' ``domains``.
    Walks the steps tracking the domain each slot holds; no table is built.
    A product counts its output cells as multiplications, a marginalization
    that sums out some axes its input minus output cells as additions, and a
    quotient its numerator cells as divisions.  A copy is free: with a
    kernel plan (the free load) it spans the plan's domain, which must hold
    its operand's, and without one its operand's own.  An in-place product
    or quotient counts as the one it is, and must write its first operand's
    slot over that slot's own domain.  Any other step kind fails.
    """

    def cells(dom):
        return math.prod(tree.cards[v] for v in dom)

    doms = list(domains) + [None] * (plan.size - len(domains))
    adds = mults = divs = 0
    for kind, out, a, b, kernel_plan in plan.steps:
        if kind in (_MULTIPLY_IN, _DIVIDE_IN):
            assert out == a and set(doms[b]) <= set(doms[a])
            kind = _MULTIPLY if kind == _MULTIPLY_IN else _DIVIDE
        if kind == _MULTIPLY:
            dom = doms[a] + tuple(v for v in doms[b] if v not in doms[a])
            mults += cells(dom)
        elif kind == _MARGINALIZE:
            dom = kernel_plan[0]
            assert set(dom) <= set(doms[a])
            if len(dom) < len(doms[a]):
                adds += cells(doms[a]) - cells(dom)
        elif kind == _DIVIDE:
            assert set(doms[b]) <= set(doms[a])
            dom = doms[a]
            divs += cells(dom)
        elif kind == _COPY:
            dom = doms[a] if kernel_plan is None else kernel_plan[0]
            assert set(doms[a]) <= set(dom)
        else:
            raise AssertionError("unknown step kind %r" % (kind,))
        doms[out] = dom
    return adds, mults, divs
