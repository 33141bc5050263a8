"""The three propagation architectures behind one interface.

All engines run on a compiled, potential-assigned JoinTree and charge a
single OpCounter.  Shared conventions that the counting targets pin down:

* An absent table means "nothing yet".  LS and Hugin node tables and Hugin
  separator registers start empty.  The first factor into a node's table
  is the free load, a copy step that embeds it over the node's domain
  (``embed``) and charges nothing; every later factor costs one
  multiplication per node configuration.  Initialization is counted.
* A node with no table when it must send stays silent: the message would
  be vacuous, so nothing is counted, the register stays empty, and the
  receiver skips the product.  A vacuous SS message is stored as None.
* Root selection, child ordering, tie-breaks, and fold orders are all fixed,
  so counters are bit-reproducible.
* One precondition, checked when a plan is built (:func:`_check_assignments`):
  at least one potential, each placed on exactly one node that holds its
  domain, every target mentioned by some potential, on a connected tree.
  Every table, register and product an engine reads after the message loop
  then exists and spans what it must.  Nothing downstream checks again.

Every domain an engine meets follows from the tree, its assignments and
the domains of the potentials, never from their values.  So each run
executes a plan (:class:`_Plan`) built from those alone: a flat list of
steps over numbered slots, each an op kind (multiply, marginalize, divide
or copy, and multiply or divide in place), its output and operand slots
and its kernel plan (``marginalize_plan`` for a marginalization, none for
a copy that shares its table, else ``multiply_plan``), plus the slots
where node tables, messages and each target's marginal end.  What a step
costs is read off the step itself, never off which slots are empty.  The
last steps marginalize each target's source onto it; an SS source that
spans only its target gets no step, and its slot is the marginal's.
The three architectures differ only in the steps their builders emit; one
executor, :func:`_execute`, runs them all and is the only caller of the
counted kernels.  Every run checks its targets, fetches its plan, executes
all the plan's steps and normalizes each marginal slot into the result.
Plans are kept in ``JoinTree.plans``, keyed on the targets and the
potentials' domains, with a copy of the assignments they were built from;
a run whose key or assignments differ in value, whether set anew or edited
in place, builds a new plan, and the precondition is checked only then.
LS and Hugin come from one build; SS has its own.  A plan holds no
numbers, so every counted operation is still performed and charged on
every run.

Ownership: every table has one owner.  No kernel returns an operand's
table (a marginalization that sums out nothing copies), and a copy step
with a kernel plan, the free load, embeds a fresh table.  A copy without
one shares its operand's table: a register keeps the message it is given,
a table no step writes, and Hugin's leaf served by a register shares that
register's table and receives nothing after that.  So each node table is
its node's alone, and every LS and Hugin product into it, and every LS
quotient of it, is written in place.  Input potentials are never written
(those from ``make_potential`` are read-only).  With ``on_step`` the hook
gets copies of the node tables: each is made after the send that last
wrote its table and handed again to every later call, so what the hook
keeps stays as it was as long as the hook writes none.
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
    embed,
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


def _check_assignments(tree: JoinTree, domains, targets=()):
    """Refuse inputs no run can be right on: the one check of a runnable assigned tree.

    ``domains`` are the input potentials' domains, in input order; no value
    is read.  :func:`_plan` calls it before every build, so every engine
    run and the SS storage replay pass it.  Refused, with
    :class:`EngineError`: no potentials; a potential not placed exactly
    once (an index out of range included), or placed on an id that is no
    node or on a node whose domain lacks a variable of the potential's; a
    target that no potential mentions; a tree the rooting does not reach.
    """
    k = len(domains)
    if not k:
        raise EngineError("no input potentials to propagate")
    placed = sorted(i for idxs in tree.assignments.values() for i in idxs)
    if placed != list(range(k)):
        raise EngineError("tree assignments place %d potential indices; the %d input potentials need 0..%d once each" % (len(placed), k, k - 1))
    for n, idxs in tree.assignments.items():
        held = set(tree.nodes.get(n, ()))
        for i in idxs:
            if n not in tree.nodes or not held.issuperset(domains[i]):
                raise EngineError("potential %d over %r is placed on %r, which is not a tree node holding that domain" % (i, domains[i], n))
    unmentioned = set(targets) - {v for dom in domains for v in dom}
    if unmentioned:
        raise EngineError("target variable %r appears in no input potential" % min(unmentioned))
    reached = len(tree.rooting.preorder)
    if reached != len(tree.nodes):
        raise EngineError("tree is not connected: %d of %d nodes reachable from the root" % (reached, len(tree.nodes)))


def _edge_key(a, b):
    return (a, b) if a < b else (b, a)


def _targets(tree: JoinTree, targets):
    """The targets in ascending order, every variable by default; each must lie in a node."""
    targets = sorted(tree.cards) if targets is None else sorted(set(targets))
    for x in targets:
        if x not in tree.designated:
            raise EngineError("variable %r absent from every tree node" % x)
    return targets


def _plan(tree: JoinTree, kind: str, potentials, targets, build):
    """The tree's ``kind`` plan for ``targets``, the potentials' domains and the assignments.

    The tree keeps each plan with a copy of the assignments it was built
    from, and a kept plan serves only while the targets, the domains and
    ``tree.assignments`` all equal what it was built from, so an edit in
    place is seen like a new dict.  Otherwise the inputs are checked and
    ``build(tree, domains, targets)`` makes a new plan from the tuple of
    the potentials' domains, never their values; a kept plan's inputs
    passed that check when it was built.
    """
    key = (targets, tuple(p.domain for p in potentials))
    entry = tree.plans.get(kind)
    if entry is None or entry[0] != key or entry[1] != tree.assignments:
        _check_assignments(tree, key[1], targets)
        assignments = {n: list(idxs) for n, idxs in tree.assignments.items()}
        entry = tree.plans[kind] = (key, assignments, build(tree, key[1], targets))
    return entry[2]


# Step kinds.  A step ``(kind, out, a, b, kernel plan)`` sets slot ``out``
# to a * b, to a marginalized, to a / b, or to a copy of a.  A copy with a
# kernel plan is the free load, a fresh table of a embedded over the plan's
# domain; one without shares a's table.
# The two in-place kinds write a * b or a / b into a's own table (out == a).
_MULTIPLY, _MARGINALIZE, _DIVIDE, _COPY, _MULTIPLY_IN, _DIVIDE_IN = range(6)


class _Plan(NamedTuple):
    """The steps of one run over numbered slots, and where its results end.

    Slots ``0..k-1`` hold the k input potentials; every other slot starts
    empty, and some step writes it before any step reads it, so no slot
    goes without a value.  ``nodes``: node -> slot of its
    table or marginal.  ``messages``: message or Hugin register key ->
    slot, None for a vacuous SS message.
    ``marginals``: target -> the slot of its marginal, which :func:`_run`
    normalizes into the result after the steps, in ascending target order;
    an SS marginal's slot may be that of the node or separator product it
    comes from.  ``marks``: ``(phase, sender, receiver, steps done)`` after
    each Hugin send.
    """

    size: int
    steps: list
    nodes: dict
    messages: dict
    marginals: dict
    marks: list


def _execute(steps, vals: list, counter: OpCounter):
    """Run ``steps`` over the slots ``vals``; each kernel is looked up by name at its call."""
    for kind, out, a, b, plan in steps:
        if kind == _MARGINALIZE:
            vals[out] = marginalize(vals[a], plan[0], counter, plan)
        elif kind == _COPY:
            vals[out] = vals[a] if plan is None else embed(vals[a], plan)
        elif kind == _DIVIDE or kind == _DIVIDE_IN:
            vals[out] = divide(vals[a], vals[b], counter, plan, kind == _DIVIDE_IN)
        else:
            vals[out] = multiply(vals[a], vals[b], counter, plan, kind == _MULTIPLY_IN)


def _run(arch: str, tree: JoinTree, potentials, plan: _Plan, on_step=None) -> EngineResult:
    """Execute ``plan`` on ``potentials``, then normalize each target's marginal into the result.

    A marginal's slot may hold an SS node or separator product, so the
    slots are left as they are and node tables stay unnormalized.

    With ``on_step``, the steps run in segments between the marks, and the
    hook sees copies of the node tables, and the registers, held after each
    segment.  The first segment loads every node's potentials, and each
    later one writes only its receiver's table, so after the first call
    only that table is copied anew; every other entry is the copy the
    previous call got.  Each call gets a dict of its own, in ``plan.nodes``
    order.  No register is ever written in place.
    """
    counter = OpCounter()
    vals = list(potentials) + [None] * (plan.size - len(potentials))
    done, copies = 0, {}
    if on_step is not None:
        for phase, a, b, end in plan.marks:
            _execute(plan.steps[done:end], vals, counter)
            for n in (b,) if done else plan.nodes:
                table = vals[plan.nodes[n]]
                if table is not None:
                    copies[n] = Potential(table.domain, table.values.copy())
            done = end
            tables = {n: copies[n] for n in plan.nodes if n in copies}
            store = {e: vals[s] for e, s in plan.messages.items() if vals[s] is not None}
            on_step(phase, a, b, tables, store)
    _execute(plan.steps[done:], vals, counter)
    marginals = {x: normalize(vals[s]) for x, s in plan.marginals.items()}
    nodes = {n: vals[s] for n, s in plan.nodes.items()}
    messages = {k: None if s is None else vals[s] for k, s in plan.messages.items()}
    return EngineResult(arch, tree.kind, marginals, nodes, counter, messages)


def _build_table_plans(tree: JoinTree, domains, targets):
    """The LS and the Hugin plan of one tree, emitted in one pass over ``tree.sends``.

    ``domains`` are the input potentials' domains.  Every table spans its
    node's sorted domain and every message its separator.  A load or absorb
    into a node with no table yet is the free load, a copy step that embeds
    its operand over the node's domain; every later one is a product.
    Which node has a table at each step (``has_table``), and which Hugin
    register is written, follows from the assignments alone, so a silent
    sender emits no step.  Every product into a node's table, and
    every LS quotient of one, is in place (the ownership rule in the module
    docstring).  After the inputs come one table slot per node, the message
    slot unless the tree is one node, which sends nothing, and one marginal
    slot per target, where the LS plan ends; Hugin's plan goes on with one
    register slot per edge and the quotient slot if some send divides.
    Inward sends come first, so an outward send finds its register written
    exactly when the receiving child had a table to send inward, that is,
    when it has one now.
    """
    nodes, cards, k = tree.nodes, tree.cards, len(domains)
    table = {n: k + i for i, n in enumerate(sorted(nodes))}
    msg = k + len(nodes)
    first = msg + (len(nodes) > 1)
    marginals = {x: first + i for i, x in enumerate(targets)}
    size = first + len(targets)
    register = {e: size + i for i, e in enumerate(tree.edges())}
    quo = hugin_size = size + len(register)
    init, has_table = [], set()
    for n in sorted(nodes):
        for i in tree.assignments.get(n, ()):
            load = multiply_plan(nodes[n], domains[i], cards)
            init.append((_MULTIPLY_IN, table[n], table[n], i, load) if n in has_table else (_COPY, table[n], i, None, load))
            has_table.add(n)
    # (a, b) -> the plan of b's table with a message over the separator of a and b
    over = {(a, b): multiply_plan(nodes[b], sep, cards) for (a, b), sep in tree.separators.items()}
    ls, hugin, marks = list(init), init, []
    parent = tree.rooting.parent
    for a, b in tree.sends:
        if a not in has_table:
            continue  # a silent sender
        sep = tree.separator(a, b)
        e = _edge_key(a, b)
        inward = parent[a] == b
        take = (_MARGINALIZE, msg, table[a], None, marginalize_plan(nodes[a], sep))
        absorb = (_MULTIPLY_IN, table[b], table[b], msg, over[a, b]) if b in has_table else (_COPY, table[b], msg, None, over[a, b])
        ls += (take, absorb)
        if inward:
            ls.append((_DIVIDE_IN, table[a], table[a], msg, over[b, a]))
        hugin.append(take)
        if not inward and len(tree.adj[b]) == 1 and nodes[b] == sep and len(sep) > 1:
            hugin.append((_COPY, table[b], msg, None, None))  # a leaf served by the register
        elif not inward and b in has_table:
            hugin_size = quo + 1
            hugin.append((_DIVIDE, quo, msg, register[e], multiply_plan(sep, sep, cards)))
            hugin.append((_MULTIPLY_IN, table[b], table[b], quo, over[a, b]))
        else:
            hugin.append(absorb)
        hugin.append((_COPY, register[e], msg, None, None))
        marks.append(("inward" if inward else "outward", a, b, len(hugin)))
        has_table.add(b)
    for x, out in marginals.items():
        d = tree.designated[x]
        ls.append((_MARGINALIZE, out, table[d], None, marginalize_plan(nodes[d], (x,))))
        best = tree.best_separators.get(x)
        if best is None:
            hugin.append(ls[-1])
        else:
            hugin.append((_MARGINALIZE, out, register[best[1]], None, marginalize_plan(tree.separator(*best[1]), (x,))))
    return _Plan(size, ls, table, {}, marginals, []), _Plan(hugin_size, hugin, table, register, marginals, marks)


def ls_run(tree: JoinTree, potentials, targets=None) -> EngineResult:
    """Lauritzen-Spiegelhalter propagation: one loop over ``tree.sends``.

    Each send marginalizes the sender's table onto the separator and the
    receiver multiplies the message in.  When the receiver is the sender's
    parent (the inward sends), the sender then divides its own table by the
    message; the outward sends divide nothing.
    Singleton marginals come from a smallest containing clique.
    """
    plans = _plan(tree, "ls/hugin", potentials, _targets(tree, targets), _build_table_plans)
    return _run("ls", tree, potentials, plans[0])


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
    ``tables`` holds a copy of each node table there is, and ``store``
    each written register.  A send writes only the receiver's table, so
    only its copy is new; every other copy is the one an earlier call got.
    The hook must write none of them.
    """
    plans = _plan(tree, "ls/hugin", potentials, _targets(tree, targets), _build_table_plans)
    return _run("hugin", tree, potentials, plans[1], on_step)


def _build_ss_plan(tree: JoinTree, domains, targets) -> _Plan:
    """The steps of :func:`ss_run` for ``targets`` and the input potentials' ``domains``.

    ``held`` maps each own product (keyed by node) and each demanded
    message (keyed by its directed edge) to its ``(slot, domain)``, or to
    None for a vacuous message.  A message a -> b is its fold marginalized
    onto b's domain.  That sums out exactly what lies outside the
    separator, because the fold lies in a's node: every message into a is
    marginalized onto a's domain, and each own potential is placed inside
    it.  So no message reads the separator index.  Every product, message,
    node product, separator product and marginal comes from ``product``,
    which takes a new slot only when it emits a step: like a message whose
    product holds nothing outside its separator, a marginal whose source
    spans only its target is that source's slot, and no step copies it.

    A target is extracted through a separator (``via``) only when one is
    strictly smaller than its designated node.  A separator holding x spans
    at least ``cards[x]``, so ``tree.best_separators`` is read only for a
    target whose designated node spans more than that; on a binary tree
    every designated node is a singleton, so SS builds no separator index
    there at all.
    """
    cards = tree.cards
    root, _, postorder, parent, _ = tree.rooting
    designated = tree.designated
    via = {}
    for x in targets:
        space = tree.statespace(designated[x])
        if space > cards[x]:  # a separator holding x spans at least cards[x]
            best = tree.best_separators.get(x)
            if best is not None and best[0] < space:
                via[x] = best[1]
    sinks = {designated[x] for x in targets}.union(*via.values())
    below = dict.fromkeys(postorder, 0)
    for n in sinks:
        below[n] = 1
    for n in postorder:
        if n != root:
            below[parent[n]] += below[n]

    steps, held, fresh = [], {}, len(domains)

    def product(parts, keep=None):
        """Fold ``parts``, ``(slot, domain)`` pairs, in order, then sum out what ``keep`` lacks.

        Every step writes the one new slot, taken only if there is a step;
        returns the result's ``(slot, domain)``, the part's own for one part
        and nothing to sum out.
        """
        nonlocal fresh
        slot, dom = parts[0]
        for s, d in parts[1:]:
            plan = multiply_plan(dom, d, cards)
            steps.append((_MULTIPLY, fresh, slot, s, plan))
            slot, dom = fresh, plan[0]
        if keep is not None and not set(dom) <= set(keep):
            plan = marginalize_plan(dom, set(keep).intersection(dom))
            steps.append((_MARGINALIZE, fresh, slot, None, plan))
            slot, dom = fresh, plan[0]
        if slot == fresh:
            fresh += 1
        return slot, dom

    # With any sink, every node is one or sends toward one, so needs its own potential.
    if below[root]:
        for n in sorted(tree.nodes):
            idxs = tree.assignments.get(n)
            if idxs:
                held[n] = product([(i, domains[i]) for i in idxs])

    def inputs(n, skip):
        """Non-vacuous messages into n from neighbors other than skip, then n's own product."""
        out = [held[q, n] for q in tree.adj[n] if q != skip and held[q, n] is not None]
        return out + [held[n]] if n in held else out

    messages = {}
    for e in tree.sends:
        a, b = e
        if not (below[root] - below[a] if parent[a] == b else below[b]):
            continue  # no sink lies on b's side
        parts = inputs(a, b)
        held[e] = product(parts, tree.nodes[b]) if parts else None
        messages[e] = None if held[e] is None else held[e][0]

    nodes, seps, marginals = {}, {}, {}
    for x in targets:
        d = designated[x]
        if d not in nodes:
            nodes[d] = product(inputs(d, None))
        part = nodes[d]
        edge = via.get(x)
        if edge is not None:
            if edge not in seps:
                u, v = edge
                seps[edge] = product([m for m in (held[u, v], held[v, u]) if m is not None])
            part = seps[edge]
        marginals[x] = product([part], (x,))[0]
    return _Plan(fresh, steps, {d: slot for d, (slot, _) in nodes.items()}, messages, marginals, [])


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
    then marginalizes onto b's domain, which leaves the separator, because
    the fold lies in a's node; the plan leaves that step out when the
    product holds no variable outside b.  With nothing to fold the message
    is vacuous (None).  Node marginals fold all incoming messages plus the own
    potential.  Input potentials are never touched.

    Singleton extraction: when some separator containing the variable is
    strictly smaller than the designated node, the product of that
    separator's two directed messages is marginalized instead.  The
    separator index is consulted only where a separator can be smaller,
    that is where the designated node spans more than the variable; on a
    binary join tree with singleton nodes it never is, and the singleton's
    own node marginal is already the answer.

    No uniform stand-in is needed.  Every message toward a sink is sent, and
    on a connected tree with at least one potential (checked when the plan
    is built) the two sides of any edge together hold one, so a node
    marginal and a separator product are never None.  Each contains its
    variable x, because some potential mentions x, a precondition checked
    with the others (on a compiled network x's CPT does): that potential
    sits on a node holding x, and running intersection keeps x in every
    node and separator on the path from there, so the message along that
    path carries x.
    """
    plan = _plan(tree, "ss", potentials, _targets(tree, targets), _build_ss_plan)
    return _run("ss", tree, potentials, plan)


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
