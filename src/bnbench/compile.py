"""Compilation of a network into junction and binary join trees.

Pipeline: moral graph -> min-fill elimination order -> fusion-built binary
join tree (every variable seeded with a singleton node) -> condensation ->
junction tree by contracting the binary tree onto its maximal nodes.  Both
structures therefore share one elimination order and one clique set, and
every step is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from bnbench.network import BayesNet, input_potentials


class CompileError(ValueError):
    """Impossible compilation request or broken intermediate structure."""


@dataclass
class JoinTree:
    """Tree of variable subsets with per-node potential assignments.

    nodes: node id -> sorted tuple of variable ids.
    adj:   node id -> sorted list of neighbor node ids.
    cards: variable id -> cardinality.
    assignments: node id -> list of indices into the compiled potential list.
    kind: "junction" or "binary".
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
        return tuple(sorted(set(self.nodes[u]) & set(self.nodes[v])))

    def statespace(self, nid):
        size = 1
        for v in self.nodes[nid]:
            size *= self.cards[v]
        return size

    def sep_statespace(self, u, v):
        size = 1
        for x in self.separator(u, v):
            size *= self.cards[x]
        return size

    def degree(self, nid):
        return len(self.adj[nid])

    def holders(self) -> dict:
        """Variable id -> ascending ids of the nodes whose domain contains it."""
        out = {}
        for n in sorted(self.nodes):
            for v in self.nodes[n]:
                out.setdefault(v, []).append(n)
        return out

    def smallest(self, nids) -> int:
        """Smallest-state-space node among ``nids``; ties broken by lowest id."""
        return min(nids, key=lambda n: (self.statespace(n), n))

    def root(self):
        """Biggest-state-space node; ties broken by lowest id."""
        return min(sorted(self.nodes), key=lambda n: (-self.statespace(n), n))


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
    """Greedy min-fill order; ties by resulting clique state space, then id."""
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


def _statespace(domain, cards):
    size = 1
    for v in domain:
        size *= cards[v]
    return size


def binary_join_tree(hypergraph: list, cards: dict, order: list) -> JoinTree:
    """Fusion construction of a binary join tree over the input domains.

    The initial pool holds a singleton node for every variable (node id ==
    variable id) plus one node per distinct multi-variable input domain in
    first-appearance order.  Eliminating each variable repeatedly combines
    the two pool nodes of smallest state space (ties by lowest id) that
    contain it, then leaves a continuation node on the union minus the
    variable.  Seeding all singletons up front is what puts every variable's
    singleton into the final tree while keeping it binary.
    """
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
    tree = JoinTree("binary", nodes, {n: sorted(adj[n]) for n in nodes}, dict(cards))
    problems = verify_join_tree(tree)
    if problems:
        raise CompileError("fusion produced a broken tree: %s" % "; ".join(problems))
    return tree


def condense(tree: JoinTree) -> JoinTree:
    """Merge adjacent duplicate-domain nodes while every degree stays <= 3.

    Candidate pairs are scanned in (min id, max id) order; the first
    eligible pair merges into its lower id and the scan restarts, so the
    fixpoint is deterministic.
    """
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
    out = JoinTree(tree.kind, nodes, {n: sorted(adj[n]) for n in nodes}, dict(tree.cards))
    return out


def attach_singletons(tree: JoinTree, targets) -> JoinTree:
    """Ensure every target variable has a singleton node, preserving binarity.

    Hosts are the fewest-variable containing nodes (ties: smallest state
    space, then lowest id).  A degree-3 host is first split into two copies
    that share its neighbors, keeping every degree at 3 or less.  This is a
    no-op on trees built by :func:`binary_join_tree`, which seeds all
    singletons itself.
    """
    nodes = dict(tree.nodes)
    adj = {n: set(tree.adj[n]) for n in nodes}
    holders = tree.holders()
    fresh = max(nodes) + 1
    for x in sorted(set(targets)):
        hosts = holders.get(x)
        if not hosts:
            raise CompileError("variable %r absent from every node" % x)
        if any(nodes[n] == (x,) for n in hosts):
            continue
        host = min(
            hosts,
            key=lambda n: (len(nodes[n]), _statespace(nodes[n], tree.cards), n),
        )
        if len(adj[host]) >= 3:
            twin = fresh
            fresh += 1
            nodes[twin] = nodes[host]
            for v in nodes[twin]:
                holders[v].append(twin)
            moved = sorted(adj[host])[2:]
            adj[twin] = set(moved)
            for q in moved:
                adj[q].discard(host)
                adj[q].add(twin)
            adj[host] -= set(moved)
            adj[host].add(twin)
            adj[twin].add(host)
            host = twin
        singleton = fresh
        fresh += 1
        nodes[singleton] = (x,)
        adj[singleton] = {host}
        adj[host].add(singleton)
    return JoinTree(tree.kind, nodes, {n: sorted(adj[n]) for n in nodes}, dict(tree.cards))


def junction_tree(bjt: JoinTree) -> JoinTree:
    """Contract a binary join tree onto its maximal nodes.

    Every node whose domain is contained in a neighbor's domain is absorbed
    into its lowest-id containing neighbor (equal domains absorb into the
    lower id) until only the pairwise-incomparable maximal nodes remain.
    The result is a maximum-weight spanning tree of the clique graph, and
    surviving nodes are relabeled 0..k-1 in old-id order.
    """
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


def assign_potentials(tree: JoinTree, potentials) -> JoinTree:
    """Attach each potential to the smallest containing node (ties: lowest id)."""
    holders = tree.holders()
    assignments = {}
    for i, pot in enumerate(potentials):
        dom = set(pot.domain)
        candidates = holders.get(pot.domain[0], ()) if pot.domain else tree.nodes
        hosts = [n for n in candidates if dom <= set(tree.nodes[n])]
        if not hosts:
            raise CompileError("potential domain %r fits no tree node" % (pot.domain,))
        assignments.setdefault(tree.smallest(hosts), []).append(i)
    tree.assignments = assignments
    return tree


def verify_join_tree(tree: JoinTree) -> list:
    """Tree-ness, running intersection, and (for binary trees) degree <= 3."""
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

    for x, nids in sorted(tree.holders().items()):
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


@dataclass
class CompileResult:
    order: list
    potentials: list
    hypergraph: list
    junction: JoinTree
    binary: JoinTree


def compile_structures(net: BayesNet, evidence: dict) -> CompileResult:
    """Build both assigned structures from one elimination order."""
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
    return CompileResult(order, pots, hypergraph, jt, bjt)
