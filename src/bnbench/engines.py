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

Every domain an engine meets follows from the tree, its assignments and
the domains of the potentials, never from their values.  So each run
replays a propagation plan: the steps to take and every kernel's plan
(``multiply_plan``, ``marginalize_plan``, ``divide_plan``, ``embed_plan``),
built on a tree's first run and kept in ``JoinTree.plans`` with the
assignments it was built for.  LS and Hugin share one plan, keyed on the
potentials' domains: each directed edge's separator and kernel plans, each
node's initial loads, and each variable's extraction.  SS has its own,
keyed on the targets and the potentials' domains: its demanded sends with
their non-vacuous inputs, the products they fold, and a marginalization
only where the product reaches beyond the separator.  A plan holds no
numbers, so every counted operation is still performed and charged on
every run.  :func:`bnbench.compile.assign_potentials` drops a tree's plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from bnbench.compile import JoinTree, compile_structures
from bnbench.counting import OpCounter
from bnbench.network import BayesNet
from bnbench.potentials import (
    Potential,
    divide,
    divide_plan,
    embed,
    embed_plan,
    identity_over,  # unused here; kept because perfbench's tracer binds engines.identity_over
    marginalize,
    marginalize_plan,
    multiply,
    multiply_plan,
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


def _plan(tree: JoinTree, kind: str, key, build):
    """The tree's ``kind`` plan for ``key`` and its current assignments; built when it has none."""
    entry = tree.plans.get(kind)
    if entry is None or entry[1] is not tree.assignments or entry[0] != key:
        entry = tree.plans[kind] = (key, tree.assignments, build())
    return entry[2]


def _fold_plan(parts, cards: dict):
    """Fold ``parts``, ``(key, domain)`` pairs, in list order.

    Returns the first key, the ``(key, multiply plan)`` of every later
    part, and the domain of the product.
    """
    first, dom = parts[0]
    rest = []
    for k, d in parts[1:]:
        plan = multiply_plan(dom, d, cards)
        rest.append((k, plan))
        dom = plan[0]
    return first, tuple(rest), dom


def _fold(source, first, rest, counter: OpCounter):
    """Replay a :func:`_fold_plan` fold over the tables ``source`` holds."""
    prod = source[first]
    for k, plan in rest:
        prod = multiply(prod, source[k], counter, plan)
    return prod


class _Send(NamedTuple):
    """One directed edge of an LS or Hugin run whose sender has a table, with its kernel plans.

    Which node has a table at each send, and which Hugin register is
    written, follows from the assignments alone, so the plan holds the
    one plan each step needs and None for a step not taken.
    """

    sender: int
    receiver: int
    key: tuple  # the undirected edge, lower id first: Hugin's register
    inward: bool  # the receiver is the sender's parent
    served: bool  # Hugin: an outward send to a leaf equal to its non-singleton separator
    separator: tuple
    marginalize: tuple  # the sender's table onto the separator
    embed: tuple  # the message loaded into a receiver with no table yet, else None
    multiply: tuple  # the receiver's table times the message, else None
    divide_sender: tuple  # LS, inward: the sender's table by the message
    divide_register: tuple  # Hugin: the message by the register's last one, if written


class _TablePlan(NamedTuple):
    """Plan of LS and Hugin on one tree.

    ``init`` lists ``(node, first potential, embed plan, [(potential,
    multiply plan)])``; ``node_extract`` and ``sep_extract`` map each
    variable to the plan marginalizing its designated node, and its best
    separator when it has one, onto it.
    """

    init: list
    sends: list
    node_extract: dict
    sep_extract: dict


def _table_plan(tree: JoinTree, potentials) -> _TablePlan:
    key = tuple(p.domain for p in potentials)
    return _plan(tree, "ls/hugin", key, lambda: _build_table_plan(tree, potentials))


def _build_table_plan(tree: JoinTree, potentials) -> _TablePlan:
    """Every LS and Hugin table spans its node's sorted domain, and every message its separator."""
    nodes, cards = tree.nodes, tree.cards
    init = []
    for n in sorted(nodes):
        idxs = tree.assignments.get(n)
        if idxs:
            load = embed_plan(potentials[idxs[0]].domain, nodes[n], cards)
            rest = tuple((i, multiply_plan(nodes[n], potentials[i].domain, cards)) for i in idxs[1:])
            init.append((n, idxs[0], load, rest))
    has_table = {n for n, _, _, _ in init}
    written = set()
    parent = tree.rooting.parent
    sends = []
    for a, b in tree.sends:
        if a not in has_table:
            continue  # a silent sender
        sep = tree.separator(a, b)
        key = _edge_key(a, b)
        inward = parent[a] == b
        sends.append(_Send(
            a, b, key, inward,
            not inward and tree.degree(b) == 1 and nodes[b] == sep and len(sep) > 1,
            sep,
            marginalize_plan(nodes[a], sep),
            None if b in has_table else embed_plan(sep, nodes[b], cards),
            multiply_plan(nodes[b], sep, cards) if b in has_table else None,
            divide_plan(nodes[a], sep, cards) if inward else None,
            divide_plan(sep, sep, cards) if key in written else None,
        ))
        has_table.add(b)
        written.add(key)
    node_extract = {x: marginalize_plan(nodes[d], (x,)) for x, d in tree.designated.items()}
    sep_extract = {
        x: marginalize_plan(tree.separator(*edge), (x,))
        for x, (_, edge) in tree.best_separators.items()
    }
    return _TablePlan(init, sends, node_extract, sep_extract)


def _init_tables(tree: JoinTree, potentials, plan: _TablePlan, counter: OpCounter) -> dict:
    """Tables of the nodes with assigned potentials; every other node has none yet."""
    tables = {}
    for n, first, load, rest in plan.init:
        t = embed(potentials[first], tree.nodes[n], tree.cards, load)
        for i, p in rest:
            t = multiply(t, potentials[i], counter, p)
        tables[n] = t
    return tables


def _absorb(tables: dict, msg: Potential, send: _Send, cards: dict, counter: OpCounter):
    """Fold ``msg`` into the receiver's table: a free copy when it has none yet."""
    b = send.receiver
    if send.embed is not None:
        tables[b] = embed(msg, send.embed[0], cards, send.embed)
    else:
        tables[b] = multiply(tables[b], msg, counter, send.multiply)


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
    plan = _table_plan(tree, potentials)
    tables = _init_tables(tree, potentials, plan, counter)

    for s in plan.sends:
        t = tables[s.sender]
        msg = marginalize(t, s.separator, counter, s.marginalize)
        _absorb(tables, msg, s, tree.cards, counter)
        if s.inward:
            tables[s.sender] = divide(t, msg, counter, s.divide_sender)

    marginals = {}
    for x in targets:
        source = tables[_designated(tree, x)]
        marginals[x] = normalize(marginalize(source, (x,), counter, plan.node_extract[x]))
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
    plan = _table_plan(tree, potentials)
    tables = _init_tables(tree, potentials, plan, counter)
    store = {}

    for s in plan.sends:
        msg = marginalize(tables[s.sender], s.separator, counter, s.marginalize)
        if s.served:
            tables[s.receiver] = msg
        elif s.divide_register is None:
            _absorb(tables, msg, s, tree.cards, counter)
        else:
            _absorb(tables, divide(msg, store[s.key], counter, s.divide_register), s, tree.cards, counter)
        store[s.key] = msg
        if on_step is not None:
            on_step("inward" if s.inward else "outward", s.sender, s.receiver, tables, store)

    marginals = {}
    for x in targets:
        best = tree.best_separators.get(x)
        if best is not None:
            source, extract = store[best[1]], plan.sep_extract[x]
        else:
            source, extract = tables[_designated(tree, x)], plan.node_extract[x]
        marginals[x] = normalize(marginalize(source, (x,), counter, extract))
    return EngineResult("hugin", tree.kind, marginals, tables, counter, store)


class _SSPlan(NamedTuple):
    """Plan of one SS run: folds as :func:`_fold_plan` gives them, in run order.

    ``own``: ``(node, first potential, rest)`` for every node holding
    potentials.  ``sends``: ``(message, first input, rest, marginalize plan
    or None)`` for every non-vacuous demanded message, whose inputs are
    messages and own products keyed as in the run.  ``messages``: every
    demanded message, in send order, vacuous ones included.  ``nodes`` and
    ``seps``: designated node or extraction edge -> ``(first, rest, domain)``
    of its product.  ``targets``: ``(x, designated node, extraction edge or
    None, marginalize plan)``.
    """

    own: list
    sends: list
    messages: list
    nodes: dict
    seps: dict
    targets: list


def _ss_plan(tree: JoinTree, potentials, targets) -> _SSPlan:
    key = (tuple(targets), tuple(p.domain for p in potentials))
    return _plan(tree, "ss", key, lambda: _build_ss_plan(tree, potentials, targets))


def _build_ss_plan(tree: JoinTree, potentials, targets) -> _SSPlan:
    """The demanded sends of :func:`ss_run` and the domain of everything it folds.

    ``doms`` holds the domain of each own product (keyed by node) and of
    each message (keyed by its directed edge); a vacuous message's is None.
    """
    cards = tree.cards
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

    doms = {}
    own = []
    # With any sink, every node is one or sends toward one, so needs its own potential.
    if below[root]:
        for n in sorted(tree.nodes):
            idxs = tree.assignments.get(n)
            if idxs:
                first, rest, doms[n] = _fold_plan([(i, potentials[i].domain) for i in idxs], cards)
                own.append((n, first, rest))

    # the plan keys every message by its tuple in tree.sends
    edge_of = dict(zip(tree.sends, tree.sends))

    def inputs(n, skip):
        """Non-vacuous messages into n from neighbors other than skip, then n's own product."""
        out = []
        for q in tree.adj[n]:
            if q != skip:
                e = edge_of[q, n]
                if doms[e] is not None:
                    out.append((e, doms[e]))
        if n in doms:
            out.append((n, doms[n]))
        return out

    sends = []
    messages = []
    for e in tree.sends:
        a, b = e
        sinks_beyond = below[root] - below[a] if parent[a] == b else below[b]
        if not sinks_beyond:
            continue
        messages.append(e)
        parts = inputs(a, b)
        if not parts:
            doms[e] = None
            continue
        first, rest, dom = _fold_plan(parts, cards)
        keep = set(tree.separator(a, b)).intersection(dom)
        if len(keep) == len(dom):
            marg = None  # the product lies in the separator: nothing to sum out
        else:
            marg = marginalize_plan(dom, keep)
            dom = marg[0]
        doms[e] = dom
        sends.append((e, first, rest, marg))

    nodes, seps, extracts = {}, {}, []
    for x in targets:
        d = designated[x]
        if d not in nodes:
            nodes[d] = _fold_plan(inputs(d, None), cards)
        dom = nodes[d][2]
        edge = extract.get(x)
        if edge is not None:
            if edge not in seps:
                u, v = edge
                parts = [(k, doms[k]) for k in (edge_of[u, v], edge_of[v, u]) if doms[k] is not None]
                seps[edge] = _fold_plan(parts, cards)
            dom = seps[edge][2]
        extracts.append((x, d, edge, marginalize_plan(dom, (x,))))
    return _SSPlan(own, sends, messages, nodes, seps, extracts)


def ss_run(tree: JoinTree, potentials, targets=None) -> EngineResult:
    """Shenoy-Shafer propagation: one loop over the demanded ``tree.sends``.  Never divides.

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
    then marginalizes onto the separator, a step the plan leaves out when
    the product holds no variable outside it; with nothing to fold it is
    vacuous (None).  Node marginals fold all incoming messages plus the own
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
    plan = _ss_plan(tree, potentials, _targets(tree, targets))
    # own products keyed by node, messages by directed edge
    held = {n: _fold(potentials, first, rest, counter) for n, first, rest in plan.own}
    for key, first, rest, marg in plan.sends:
        prod = _fold(held, first, rest, counter)
        if marg is not None:
            prod = marginalize(prod, marg[0], counter, marg)
        held[key] = prod
    messages = {key: held.get(key) for key in plan.messages}
    node_marginals = {d: _fold(held, first, rest, counter) for d, (first, rest, _) in plan.nodes.items()}
    sep_products = {e: _fold(held, first, rest, counter) for e, (first, rest, _) in plan.seps.items()}
    marginals = {}
    for x, d, edge, extract in plan.targets:
        source = node_marginals[d] if edge is None else sep_products[edge]
        marginals[x] = normalize(marginalize(source, (x,), counter, extract))
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
