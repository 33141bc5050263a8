"""Compilation of a network into junction and binary join trees.

Pipeline: moral graph -> min-fill elimination order -> fusion-built binary
join tree (every variable seeded with a singleton node) -> condensation ->
junction tree by contracting the binary tree onto its maximal nodes.  Both
structures therefore share one elimination order and one clique set, and
every step is deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from bnbench.network import BayesNet, input_potentials


class CompileError(ValueError):
    """Impossible compilation request or broken intermediate structure."""


def _statespace(domain, cards):
    size = 1
    for v in domain:
        size *= cards[v]
    return size


class Rooting(NamedTuple):
    """A tree rooted at ``root``: traversal orders and parent/child maps."""

    root: int
    preorder: list
    postorder: list
    parent: dict
    children: dict


@dataclass
class JoinTree:
    """Tree of variable subsets with per-node potential assignments.

    nodes: node id -> sorted tuple of variable ids.
    adj:   node id -> sorted list of neighbor node ids.
    cards: variable id -> cardinality.
    assignments: node id -> list of indices into the compiled potential list.
    kind: "junction" or "binary".

    ``nodes``, ``adj`` and ``cards`` are never changed once a tree is built:
    every compile stage builds a new tree.  So the structural index (the
    cached properties ``spaces``, ``separators``, ``sep_spaces``,
    ``holders``, ``rooting``, ``sends``, ``designated`` and
    ``best_separators``) is computed on first use and kept for the life of
    the tree.  Code that edits a tree's structure must build a new JoinTree
    instead.
    """

    kind: str
    nodes: dict
    adj: dict
    cards: dict
    assignments: dict = field(default_factory=dict)

    def edges(self):
        out = []
        for u in sorted(self.nodes):
            for v in self.adj[u]:
                if u < v:
                    out.append((u, v))
        return out

    def separator(self, u, v):
        """Variables shared by adjacent nodes u and v, ascending."""
        return self.separators[u, v]

    def statespace(self, nid):
        return self.spaces[nid]

    def sep_statespace(self, u, v):
        return self.sep_spaces[u, v]

    def degree(self, nid):
        return len(self.adj[nid])

    @cached_property
    def spaces(self) -> dict:
        """Node id -> state space of its domain."""
        return {n: _statespace(dom, self.cards) for n, dom in self.nodes.items()}

    @cached_property
    def separators(self) -> dict:
        """(u, v) -> separator of the edge, under both orientations of every edge."""
        out = {}
        for u, v in self.edges():
            sep = tuple(sorted(set(self.nodes[u]) & set(self.nodes[v])))
            out[u, v] = out[v, u] = sep
        return out

    @cached_property
    def sep_spaces(self) -> dict:
        """(u, v) -> state space of the edge's separator, both orientations."""
        return {edge: _statespace(sep, self.cards) for edge, sep in self.separators.items()}

    @cached_property
    def holders(self) -> dict:
        """Variable id -> ascending ids of the nodes whose domain contains it."""
        out = {}
        for n in sorted(self.nodes):
            for v in self.nodes[n]:
                out.setdefault(v, []).append(n)
        return out

    @cached_property
    def rooting(self) -> Rooting:
        """The tree rooted at its biggest-state-space node (ties: lowest id).

        One depth-first walk from the root builds both orders: children
        keep ``adj`` order, the preorder visits them in that order and the
        postorder lists every subtree before its root.  A node already
        reached is never entered again, so on a graph that is not a tree the
        walk still stops, having reached the root's component only.
        """
        root = min(sorted(self.nodes), key=lambda n: (-self.spaces[n], n))
        parent = {root: None}
        children = {}
        preorder = []
        postorder = []
        stack = [(root, False)]
        while stack:
            n, done = stack.pop()
            if done:
                postorder.append(n)
                continue
            preorder.append(n)
            kids = [q for q in self.adj[n] if q not in parent]
            children[n] = kids
            stack.append((n, True))
            for q in reversed(kids):
                parent[q] = n
                stack.append((q, False))
        return Rooting(root, preorder, postorder, parent, children)

    @cached_property
    def sends(self) -> list:
        """Every directed edge once, in message order.

        Each non-root node to its parent in postorder, then each node to its
        children in preorder: a node sends inward after hearing from all its
        children, and outward after hearing from its parent.
        """
        root, preorder, postorder, parent, children = self.rooting
        inward = [(n, parent[n]) for n in postorder if n != root]
        return inward + [(n, c) for n in preorder for c in children[n]]

    @cached_property
    def designated(self) -> dict:
        """Variable id -> its smallest-state-space holder node; ties by lowest id."""
        spaces = self.spaces
        return {x: min(nids, key=lambda n: (spaces[n], n)) for x, nids in self.holders.items()}

    @cached_property
    def best_separators(self) -> dict:
        """Variable id -> (state space, (u, v)) of the smallest separator holding it.

        Ties go to the lowest edge ``(u, v)`` with ``u < v``; a variable that
        is in no separator has no entry.
        """
        out = {}
        for edge in self.edges():
            key = (self.sep_spaces[edge], edge)
            for x in self.separators[edge]:
                if x not in out or key < out[x]:
                    out[x] = key
        return out


def moral_graph(net: BayesNet) -> dict:
    """Undirected adjacency: dropped arc directions plus married co-parents."""
    adj = {v.id: set() for v in net.variables}
    for parent, child in net.arcs:
        adj[parent].add(child)
        adj[child].add(parent)
    for v in net.variables:
        ps = net.parents(v.id)
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                adj[ps[i]].add(ps[j])
                adj[ps[j]].add(ps[i])
    return adj


def elimination_order(graph: dict, cards: dict) -> list:
    """Greedy min-fill order; ties by resulting clique state space, then id.

    Each live vertex's key ``(fill, space, v)`` sits in a heap.  Eliminating
    v changes only the neighborhoods of v's neighbors and the edges among
    their neighbors, so only those keys are recomputed; superseded heap
    entries are skipped when popped.  Keys are unique by v, so the heap's
    minimum is the vertex a full scan would pick.
    """
    adj = {v: set(nbrs) for v, nbrs in graph.items()}

    def key(v):
        nbrs = adj[v]
        # each missing edge {a, b} among the neighbors is seen from a and from b
        missing = sum(len(nbrs) - 1 - len(nbrs & adj[a]) for a in nbrs)
        space = cards[v]
        for u in nbrs:
            space *= cards[u]
        return (missing // 2, space, v)

    current = {v: key(v) for v in adj}
    heap = list(current.values())
    heapq.heapify(heap)
    order = []
    while heap:
        k = heapq.heappop(heap)
        v = k[2]
        if current.get(v) != k:
            continue
        del current[v]
        order.append(v)
        nbrs = adj.pop(v)
        for a in nbrs:
            adj[a].discard(v)
            adj[a] |= nbrs
            adj[a].discard(a)
        touched = set(nbrs)
        for a in nbrs:
            touched |= adj[a]
        for u in touched:
            k = key(u)
            if current[u] != k:
                current[u] = k
                heapq.heappush(heap, k)
    return order


def binary_join_tree(hypergraph: list, cards: dict, order: list) -> JoinTree:
    """Fusion construction of a binary join tree over the input domains.

    The initial pool holds a singleton node for every variable (node id ==
    variable id) plus one node per distinct multi-variable input domain in
    first-appearance order.  Eliminating each variable repeatedly combines
    the two pool nodes of smallest state space (ties by lowest id) that
    contain it, then leaves a continuation node on the union minus the
    variable.  Seeding all singletons up front is what puts every variable's
    singleton into the final tree while keeping it binary.  The pool is held
    as an index from each variable to the pool nodes containing it.

    The result is not checked here: :func:`compile_structures` checks the
    condensed tree that replaces it.  It is a forest by construction: a node
    gets its one edge to a newer node as it leaves the pool, so every node
    has at most one neighbor with a higher id and no cycle can form.
    :func:`condense` only contracts edges between adjacent equal-domain
    nodes, so a running-intersection break or a second component survives
    into the condensed tree, whose check reports it; a node with too many
    neighbors either survives too or is merged into one with at most three.
    """
    nodes = {}
    adj = {}
    pool = {v: set() for v in cards}

    def add(dom):
        nid = len(nodes)
        nodes[nid] = dom
        adj[nid] = []
        for x in dom:
            pool[x].add(nid)
        return nid

    for v in sorted(cards):
        add((v,))
    seen = set()
    for dom in hypergraph:
        dom = tuple(sorted(dom))
        if len(dom) < 2 or dom in seen:
            continue
        seen.add(dom)
        add(dom)

    def connect(a, b):
        adj[a].append(b)
        adj[b].append(a)

    def leave(nid):
        for x in nodes[nid]:
            pool[x].discard(nid)

    for position, y in enumerate(order):
        phi = [(_statespace(nodes[n], cards), n) for n in pool[y]]
        heapq.heapify(phi)
        while len(phi) > 1:
            r = heapq.heappop(phi)[1]
            s = heapq.heappop(phi)[1]
            leave(r)
            leave(s)
            t = add(tuple(sorted(set(nodes[r]) | set(nodes[s]))))
            connect(r, t)
            connect(s, t)
            heapq.heappush(phi, (_statespace(nodes[t], cards), t))
        u = phi[0][1]
        leave(u)
        if position < len(order) - 1:
            cont = tuple(x for x in nodes[u] if x != y)
            if cont:
                connect(u, add(cont))
    return JoinTree("binary", nodes, {n: sorted(adj[n]) for n in nodes}, dict(cards))


def condense(tree: JoinTree) -> JoinTree:
    """Merge adjacent duplicate-domain nodes while every degree stays <= 3.

    An adjacent equal-domain pair (lo, hi) is eligible when the merged node
    would have at most three neighbors.  Each step merges the smallest
    eligible (lo, hi) pair into lo, until no eligible pair is left, so the
    fixpoint is deterministic.

    Merging an edge of a tree changes the neighbor count of the merged node
    only, so an ineligible pair can become eligible only after one of its
    ends merges; the pairs touching the merged node are then queued again.
    """
    nodes = dict(tree.nodes)
    adj = {n: set(tree.adj[n]) for n in nodes}
    heap = [(u, v) for u in nodes for v in adj[u] if u < v and nodes[u] == nodes[v]]
    heapq.heapify(heap)
    while heap:
        lo, hi = heapq.heappop(heap)
        if lo not in adj or hi not in adj[lo]:
            continue
        merged_nbrs = (adj[lo] | adj[hi]) - {lo, hi}
        if len(merged_nbrs) > 3:
            continue
        for q in adj[hi] - {lo}:
            adj[q].discard(hi)
            adj[q].add(lo)
        adj[lo] = merged_nbrs
        del nodes[hi], adj[hi]
        for q in adj[lo]:
            if nodes[q] == nodes[lo]:
                heapq.heappush(heap, (min(lo, q), max(lo, q)))
    return JoinTree(tree.kind, nodes, {n: sorted(adj[n]) for n in nodes}, dict(tree.cards))


def attach_singletons(tree: JoinTree, targets) -> JoinTree:
    """Check that every target variable has a singleton node; return ``tree``.

    Adds no nodes: :func:`binary_join_tree` seeds a singleton node for every
    variable and :func:`condense` merges only equal domains, so every
    compiled binary tree passes.  A tree without a singleton node for some
    target raises :class:`CompileError` naming the variable.
    """
    for x in sorted(set(targets)):
        if not any(tree.nodes[n] == (x,) for n in tree.holders.get(x, ())):
            raise CompileError("variable %r has no singleton node" % x)
    return tree


def junction_tree(bjt: JoinTree) -> JoinTree:
    """Contract a binary join tree onto its maximal nodes.

    A node is absorbable when a neighbor's domain strictly contains its own,
    or equals it with a lower id.  Each step absorbs the lowest absorbable
    id into its lowest-id such neighbor, until only the
    pairwise-incomparable maximal nodes remain.  Domains never change, so an
    absorption can make only the target and the absorbed node's other
    neighbors absorbable; those are the ids queued again.  The result is a
    maximum-weight spanning tree of the clique graph, and surviving nodes
    are relabeled 0..k-1 in old-id order.
    """
    nodes = dict(bjt.nodes)
    adj = {n: set(bjt.adj[n]) for n in nodes}
    doms = {n: frozenset(nodes[n]) for n in nodes}
    heap = sorted(nodes)
    while heap:
        nid = heapq.heappop(heap)
        if nid not in nodes:
            continue
        dom = doms[nid]
        hosts = [q for q in adj[nid] if dom < doms[q] or (dom == doms[q] and q < nid)]
        if not hosts:
            continue
        target = min(hosts)
        for q in adj[nid] - {target}:
            adj[q].discard(nid)
            adj[q].add(target)
            adj[target].add(q)
            heapq.heappush(heap, q)
        adj[target].discard(nid)
        del nodes[nid], adj[nid]
        heapq.heappush(heap, target)
    relabel = {old: new for new, old in enumerate(sorted(nodes))}
    out_nodes = {relabel[n]: nodes[n] for n in nodes}
    out_adj = {relabel[n]: sorted(relabel[q] for q in adj[n]) for n in nodes}
    return JoinTree("junction", out_nodes, out_adj, dict(bjt.cards))


def assign_potentials(tree: JoinTree, potentials) -> JoinTree:
    """Attach each potential to the smallest containing node (ties: lowest id)."""
    holders, spaces = tree.holders, tree.spaces
    assignments = {}
    for i, pot in enumerate(potentials):
        dom = set(pot.domain)
        candidates = holders.get(pot.domain[0], ()) if pot.domain else tree.nodes
        hosts = [n for n in candidates if dom <= set(tree.nodes[n])]
        if not hosts:
            raise CompileError("potential domain %r fits no tree node" % (pot.domain,))
        assignments.setdefault(min(hosts, key=lambda n: (spaces[n], n)), []).append(i)
    tree.assignments = assignments
    return tree


def verify_join_tree(tree: JoinTree) -> list:
    """Tree-ness, running intersection, and (for binary trees) degree <= 3.

    Reads the tree's cached rooting, which the engines reuse.  A graph with
    n nodes is a tree iff it has n - 1 edges and the rooting reaches every
    node.  In a rooted tree, the holders of a variable are connected iff
    exactly one of them is the root or has a parent that lacks the variable.
    """
    ids = sorted(tree.nodes)
    if not ids:
        return ["empty tree"]
    problems = []
    edge_count = sum(len(tree.adj[n]) for n in ids) // 2
    if edge_count != len(ids) - 1:
        problems.append("%d nodes need %d edges, found %d" % (len(ids), len(ids) - 1, edge_count))
    parent = tree.rooting.parent
    if len(parent) != len(ids):
        problems.append("tree is disconnected")
        return problems
    if not problems:  # running intersection is a property of trees only
        for x, nids in sorted(tree.holders.items()):
            tops = sum(parent[n] is None or x not in tree.nodes[parent[n]] for n in nids)
            if tops != 1:
                problems.append("running intersection fails for variable %r" % x)
    if tree.kind == "binary":
        for n in ids:
            if len(tree.adj[n]) > 3:
                problems.append("node %d has %d neighbors" % (n, len(tree.adj[n])))
    return problems


@dataclass
class CompileResult:
    order: list
    potentials: list
    junction: JoinTree
    binary: JoinTree


def compile_structures(net: BayesNet, evidence: dict) -> CompileResult:
    """Build both assigned structures from one elimination order.

    Each kept tree is checked once, by :func:`verify_join_tree`: the
    junction tree and the condensed binary tree.  The fusion forest from
    :func:`binary_join_tree` needs no check of its own (see there), and it
    is discarded without ever building a structural index.
    """
    pots, hypergraph = input_potentials(net, evidence)
    cards = net.cards
    order = elimination_order(moral_graph(net), cards)
    bjt = condense(binary_join_tree(hypergraph, cards, order))
    bjt = attach_singletons(bjt, list(cards))
    jt = junction_tree(bjt)
    assign_potentials(jt, pots)
    assign_potentials(bjt, pots)
    for tree in (jt, bjt):
        problems = verify_join_tree(tree)
        if problems:
            raise CompileError("compiled %s tree invalid: %s" % (tree.kind, "; ".join(problems)))
    return CompileResult(order, pots, jt, bjt)
