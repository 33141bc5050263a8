"""The three propagation architectures behind one interface.

All engines run on a compiled, potential-assigned JoinTree and charge a
single OpCounter.  Shared conventions that the counting targets pin down:

* An absent table means "nothing yet".  LS and Hugin node tables and Hugin
  separator registers start empty.  Loading the first factor into a node is
  a free copy (``embed``); every later factor costs one multiplication per
  node configuration.  Initialization is counted.
* A node with no table when it must send stays silent: the message would
  be vacuous, so nothing is counted, the register stays empty, and the
  receiver skips the product.  A vacuous SS message is stored as None.
* Root selection, child ordering, tie-breaks, and fold orders are all fixed,
  so counters are bit-reproducible.
* One precondition, checked in the shared prologue: at least one potential,
  each placed on exactly one node, on a connected tree.  Every table,
  register and product an engine reads after the message loop then exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from bnbench.compile import JoinTree, compile_structures
from bnbench.counting import OpCounter
from bnbench.network import BayesNet
from bnbench.potentials import (
    Potential,
    divide,
    embed,
    identity_over,  # unused here; kept because perfbench's tracer binds engines.identity_over
    marginalize,
    multiply,
    normalize,
)


class EngineError(ValueError):
    """Unusable tree/potential combination for a propagation run."""


@dataclass
class EngineResult:
    arch: str
    tree_kind: str
    singleton_marginals: dict
    node_marginals: dict
    counter: OpCounter
    messages: dict


def _absorb(table, pot: Potential, domain, cards: dict, counter: OpCounter) -> Potential:
    """Fold ``pot`` into a node table: a free copy onto ``domain`` when there is none yet."""
    if table is None:
        return embed(pot, domain, cards)
    return multiply(table, pot, counter)


def _check_assignments(tree: JoinTree, potentials):
    """Refuse an empty potential list, unplaced potentials and a tree the rooting does not reach."""
    if not potentials:
        raise EngineError("no input potentials to propagate")
    placed = sorted(i for idxs in tree.assignments.values() for i in idxs)
    if placed != list(range(len(potentials))):
        raise EngineError(
            "tree assignments cover %d of %d input potentials"
            % (len(placed), len(potentials))
        )
    reached = len(tree.rooting.preorder)
    if reached != len(tree.nodes):
        raise EngineError(
            "tree is not connected: %d of %d nodes reachable from the root"
            % (reached, len(tree.nodes))
        )


def _init_tables(tree: JoinTree, potentials, counter: OpCounter) -> dict:
    """Tables of the nodes with assigned potentials; every other node has none yet."""
    tables = {}
    for n in sorted(tree.nodes):
        for i in tree.assignments.get(n, ()):
            tables[n] = _absorb(tables.get(n), potentials[i], tree.nodes[n], tree.cards, counter)
    return tables


def _edge_key(a, b):
    return (a, b) if a < b else (b, a)


def _designated(tree: JoinTree, x: int) -> int:
    """Smallest-state-space node containing x; ties by lowest id."""
    if x not in tree.designated:
        raise EngineError("variable %r absent from every tree node" % x)
    return tree.designated[x]


def _targets(tree: JoinTree, targets):
    if targets is None:
        return sorted(tree.cards)
    return sorted(set(targets))


def ls_run(tree: JoinTree, potentials, targets=None) -> EngineResult:
    """Lauritzen-Spiegelhalter propagation: one loop over ``tree.sends``.

    Each send marginalizes the sender's table onto the separator and the
    receiver multiplies the message in.  When the receiver is the sender's
    parent (the inward sends), the sender then divides its own table by the
    message; the outward sends divide nothing.
    Singleton marginals come from a smallest containing clique.
    """
    counter = OpCounter()
    _check_assignments(tree, potentials)
    targets = _targets(tree, targets)
    tables = _init_tables(tree, potentials, counter)
    parent = tree.rooting.parent

    for a, b in tree.sends:
        t = tables.get(a)
        if t is None:
            continue
        msg = marginalize(t, tree.separator(a, b), counter)
        tables[b] = _absorb(tables.get(b), msg, tree.nodes[b], tree.cards, counter)
        if parent[a] == b:
            tables[a] = divide(t, msg, counter)

    marginals = {}
    for x in targets:
        source = tables[_designated(tree, x)]
        marginals[x] = normalize(marginalize(source, (x,), counter))
    return EngineResult("ls", tree.kind, marginals, tables, counter, {})


def hugin_run(tree: JoinTree, potentials, targets=None, on_step=None) -> EngineResult:
    """Hugin propagation with separator registers: one loop over ``tree.sends``.

    Every separator register holds its last message; a sender forwards the
    quotient of the new message by the stored one, or the message itself
    while the register is still empty, as it is for every inward send.  One
    outward special case: a non-singleton leaf whose whole domain equals its
    separator is served by the separator register itself, so neither the
    quotient nor the receiving product is performed.
    Singleton marginals come from a smallest separator containing the
    variable when one exists, else from a smallest clique.  Every register
    is written by then: on a connected tree the inward pass brings every
    potential to the root, so each outward send has a table to send.

    ``on_step(phase, sender, receiver, tables, store)`` is invoked after
    every message for invariant instrumentation; ``phase`` is ``"inward"``
    when the receiver is the sender's parent, else ``"outward"``.
    """
    counter = OpCounter()
    _check_assignments(tree, potentials)
    targets = _targets(tree, targets)
    tables = _init_tables(tree, potentials, counter)
    parent = tree.rooting.parent
    store = {}

    for a, b in tree.sends:
        t = tables.get(a)
        if t is None:
            continue
        inward = parent[a] == b
        key = _edge_key(a, b)
        sep = tree.separator(a, b)
        msg = marginalize(t, sep, counter)
        old = store.get(key)
        store[key] = msg
        if not inward and tree.degree(b) == 1 and tree.nodes[b] == sep and len(sep) > 1:
            tables[b] = msg  # a leaf served by its separator register
        else:
            quotient = msg if old is None else divide(msg, old, counter)
            tables[b] = _absorb(tables.get(b), quotient, tree.nodes[b], tree.cards, counter)
        if on_step is not None:
            on_step("inward" if inward else "outward", a, b, tables, store)

    marginals = {}
    for x in targets:
        best = tree.best_separators.get(x)
        if best is not None:
            source = store[best[1]]
        else:
            source = tables[_designated(tree, x)]
        marginals[x] = normalize(marginalize(source, (x,), counter))
    return EngineResult("hugin", tree.kind, marginals, tables, counter, store)


def _fold(factors, counter: OpCounter):
    """Product of the non-None factors in list order; None when there are none."""
    prod = None
    for f in factors:
        if f is not None:
            prod = f if prod is None else multiply(prod, f, counter)
    return prod


def ss_run(tree: JoinTree, potentials, targets=None) -> EngineResult:
    """Shenoy-Shafer propagation: one loop over ``tree.sends``.  Never divides.

    Only demanded messages are sent.  The sinks are each target's
    designated node (the smallest node containing it) and both ends of each
    separator used for extraction; a message toward b is demanded iff a sink
    lies on b's side of the edge.  With ``below[n]`` the number of sinks in
    n's rooted subtree, an inward send n -> parent is demanded iff some sink
    lies outside n's subtree, and an outward send n -> c iff ``below[c] > 0``.
    A demanded message's inputs are demanded too and come earlier in
    ``tree.sends``, so every message a sender folds already exists.  A
    message from a toward b folds the messages from a's other
    neighbors (ascending neighbor id) and finally a's combined own potential,
    then marginalizes onto the separator; with nothing to fold it is vacuous
    (None).  Node marginals fold all incoming messages plus the own
    potential.  Input potentials are never touched.

    Singleton extraction: when some separator containing the variable is
    strictly smaller than the designated node, the product of that
    separator's two directed messages is marginalized instead; on a binary
    join tree with singleton nodes this never fires and the singleton's own
    node marginal is already the answer.

    No uniform stand-in is needed.  Every message toward a sink is sent, and
    on a connected tree with at least one potential (the prologue's check)
    the two sides of any edge together hold one, so a node marginal and a
    separator product are never None.  Each contains its variable x, as
    long as some potential mentions x (x's CPT does): running intersection
    keeps x in every node and separator on the path from that potential's
    node, so the message along that path carries x.
    """
    counter = OpCounter()
    _check_assignments(tree, potentials)
    targets = _targets(tree, targets)
    root, _, postorder, parent, _ = tree.rooting
    designated = {x: _designated(tree, x) for x in targets}
    extract = {}
    for x in targets:
        best = tree.best_separators.get(x)
        if best is not None and best[0] < tree.statespace(designated[x]):
            extract[x] = best[1]
    sinks = set(designated.values()).union(*extract.values())
    below = dict.fromkeys(postorder, 0)
    for n in sinks:
        below[n] = 1
    for n in postorder:
        if n != root:
            below[parent[n]] += below[n]

    # With any sink, every node is one or sends toward one, so needs its own potential.
    own = {}
    if below[root]:
        for n in sorted(tree.nodes):
            own[n] = _fold([potentials[i] for i in tree.assignments.get(n, ())], counter)
    messages = {}
    for a, b in tree.sends:
        sinks_beyond = below[root] - below[a] if parent[a] == b else below[b]
        if not sinks_beyond:
            continue
        prod = _fold([messages[q, a] for q in tree.adj[a] if q != b] + [own[a]], counter)
        if prod is not None:
            sep = tree.separator(a, b)
            prod = marginalize(prod, [w for w in prod.domain if w in sep], counter)
        messages[a, b] = prod

    node_marginals = {}
    sep_products = {}
    marginals = {}
    for x in targets:
        d = designated[x]
        if d not in node_marginals:
            node_marginals[d] = _fold([messages[q, d] for q in tree.adj[d]] + [own[d]], counter)
        source = node_marginals[d]
        edge = extract.get(x)
        if edge is not None:
            if edge not in sep_products:
                u, v = edge
                sep_products[edge] = _fold([messages[u, v], messages[v, u]], counter)
            source = sep_products[edge]
        marginals[x] = normalize(marginalize(source, (x,), counter))
    return EngineResult("ss", tree.kind, marginals, node_marginals, counter, messages)


def run_all(net: BayesNet, evidence: dict, targets=None) -> dict:
    """LS and Hugin on the junction tree, SS on the binary join tree.

    One compilation (one elimination order) feeds all three runs, each with
    a fresh counter.
    """
    comp = compile_structures(net, evidence)
    return {
        "ls": ls_run(comp.junction, comp.potentials, targets),
        "hugin": hugin_run(comp.junction, comp.potentials, targets),
        "ss": ss_run(comp.binary, comp.potentials, targets),
    }
