"""Two sha256 digests over a fixed case set: what the engines output, and the plans they run.

Run from the repository root with

    PYTHONPATH=src python tests/fingerprint.py

Each printed line is a digest followed by ``matches`` when it equals the
recorded one (``RECORDED``) or ``DIFFERS`` when not, and the script
exits 1 if either differs.  The first line shows that a change leaves
every count, table and hook call as it was; the second, that it leaves
every plan step as it was.  A change meant to move either records its
new digest here.  The first hash covers, for LS, Hugin and SS on both
trees of each case and each target set: the counters, the singleton and
node marginals (values and key order), the SS messages and Hugin
registers, every ``on_step`` call of a Hugin run, and the storage report
of each architecture.  A run that raises contributes its exception
instead.  Within a hooked run each table handed to the hook is hashed
once, and later calls that hand it again feed its digest (see
:class:`Fingerprint`).

The second hash covers the ``repr`` of the LS/Hugin plan pair
(``engines._build_table_plans``) and of the SS plan
(``engines._build_ss_plan``) on both trees of each case and each target
set, built directly from the potentials' domains and the targets
``engines._targets`` gives, not fetched from the tree's plan cache: every
step's kind, slots and kernel plan, and where each node table, message
and marginal ends.

Cases: the chest clinic, 40 trials of each acceptance-criterion-6 preset,
trials 0-9 of ``wide`` and 0-2 of ``long``, all at seed 2013, each with
the targets all, ``[0]``, ``[]`` and ``[3, 1, 5]``.  Not a pytest module:
it runs for about 20 s on a shared 2-core x86_64 host.
"""

from __future__ import annotations

import hashlib
import sys

from bnbench import engines
from bnbench.compile import compile_structures
from bnbench.engines import hugin_run, ls_run, ss_run
from bnbench.generate import GenParams, random_case
from bnbench.network import chest_clinic, chest_clinic_evidence
from bnbench.storage import storage_report

SEED = 2013
PRESETS = (GenParams(n=8, c2=2, m=3, p=3, seed=SEED), GenParams(n=8, c2=5, m=6, p=3, seed=SEED))
WIDE = GenParams(n=14, c1=6, c2=5, m=6, p=3, seed=SEED)
LONG = GenParams(n=200, c1=5, c2=2, m=2, p=1, seed=SEED)
TARGETS = (None, [0], [], [3, 1, 5])
# The digests of the engines' output and of their plans, in print order.
RECORDED = (
    "3e33c2bc85b5a3e4e1d6438c023245d82966104e32fde41df11187f41197654e",
    "e124d52635d6a3430e54a9f3ed8310b2be7c2d8b3c667bede5bb6f6db19effda",
)


def cases():
    """``(label, net, evidence)`` of every case, in a fixed order."""
    yield "chest", chest_clinic(), chest_clinic_evidence()
    for params, trials in [(p, range(40)) for p in PRESETS] + [(WIDE, range(10)), (LONG, range(3))]:
        for t in trials:
            yield "%r/%d" % (params, t), *random_case(params, t)


class Fingerprint:
    """A running sha256 over reprs of plain values and the bytes of each table.

    Within one hooked run, each table the hook is handed is hashed once:
    ``seen`` maps its id to the table, kept so the id is not reused, and
    its own sha256, which every later call feeds instead of the table.
    Each call hands the previous call's tables again, all but the
    receiver's new copy, and the hook contract says no handed table is
    written, so the digest stays the table's.  ``main`` clears ``seen``
    after each hooked run.
    """

    def __init__(self):
        self.sha = hashlib.sha256()
        self.seen = {}

    def text(self, *parts):
        self.sha.update(repr(parts).encode() + b"\n")

    @staticmethod
    def table_bytes(pot):
        """What the hash reads of a table: its domain, shape and dtype, then its values."""
        head = repr((pot.domain, pot.values.shape, str(pot.values.dtype))).encode()
        return head + b"\n" + pot.values.tobytes()

    def table(self, pot):
        if pot is None:
            self.text(None)
        else:
            self.sha.update(self.table_bytes(pot))

    def tables(self, label, tables: dict):
        self.text(label, list(tables))
        for pot in tables.values():
            self.table(pot)

    def result(self, res):
        self.text(res.arch, res.tree_kind, res.counter.as_tuple())
        self.tables("singletons", res.singleton_marginals)
        self.tables("nodes", res.node_marginals)
        self.tables("messages", res.messages)

    def step(self, phase, sender, receiver, tables, store):
        self.text("step", phase, sender, receiver)
        for label, group in (("tables", tables), ("store", store)):
            self.text(label, list(group))
            for pot in group.values():
                kept = self.seen.get(id(pot))
                if kept is None:
                    kept = self.seen[id(pot)] = (pot, hashlib.sha256(self.table_bytes(pot)).digest())
                self.sha.update(kept[1])

    def guarded(self, call, *args, **kwargs):
        """``call(*args, **kwargs)``, or None after hashing the program error it raised."""
        try:
            return call(*args, **kwargs)
        except (ValueError, ArithmeticError) as exc:
            self.text("raised", type(exc).__name__, str(exc))
            return None


def plan_reprs(tree, potentials, targets):
    """The ``repr`` of the LS/Hugin plan pair and of the SS plan of ``tree`` for ``targets``.

    The builders take the potentials' domains, never their values.
    """
    targets, domains = engines._targets(tree, targets), tuple(p.domain for p in potentials)
    pair = engines._build_table_plans(tree, domains, targets)
    return repr(pair), repr(engines._build_ss_plan(tree, domains, targets))


def main():
    fp, plans = Fingerprint(), Fingerprint()
    for label, net, evidence in cases():
        fp.text("case", label)
        plans.text("case", label)
        comp = compile_structures(net, evidence)
        for tree in (comp.junction, comp.binary):
            for targets in TARGETS:
                fp.text("tree", tree.kind, targets)
                for run in (ls_run, hugin_run, ss_run):
                    res = fp.guarded(run, tree, comp.potentials, targets)
                    if res is not None:
                        fp.result(res)
                res = fp.guarded(hugin_run, tree, comp.potentials, targets, on_step=fp.step)
                fp.seen.clear()
                if res is not None:
                    fp.result(res)
                for arch in ("ls", "hugin", "ss"):
                    report = fp.guarded(storage_report, arch, tree, net, evidence, targets)
                    if report is not None:
                        fp.text("storage", vars(report))
                plans.text("tree", tree.kind, targets, plans.guarded(plan_reprs, tree, comp.potentials, targets))
    differs = False
    for digest, recorded in zip((fp.sha.hexdigest(), plans.sha.hexdigest()), RECORDED):
        print(digest, "matches" if digest == recorded else "DIFFERS")
        differs = differs or digest != recorded
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
