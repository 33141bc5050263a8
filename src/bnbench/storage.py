"""Storage accounting in stored floating-point numbers (fpn).

Input, evidence, and output storage are architecture-independent.  The
architecture-specific part: LS keeps one potential per clique; Hugin adds
one register per separator; SS keeps no node potentials but fills up to two
directed message registers per binary-join-tree edge, and only the
registers an actual demand-driven run touches are counted.  That count
replays ``ss_run``, so the engines' one check of a tree and its inputs
(``compile.verify_join_tree`` among them), and their placement of each
potential (see :mod:`bnbench.engines`), refuse here what they refuse
there; on a tree that has run, the replay reuses the kept plan and checks
nothing again.  Storage has no check of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from bnbench.compile import JoinTree
from bnbench.engines import _targets, ss_run
from bnbench.network import BayesNet, evidence_potentials, input_potentials


@dataclass
class StorageReport:
    arch: str
    input_fpn: int
    evidence_fpn: int
    clique_fpn: int
    separator_fpn: int
    output_fpn: int

    @property
    def total_fpn(self):
        return (
            self.input_fpn
            + self.evidence_fpn
            + self.clique_fpn
            + self.separator_fpn
            + self.output_fpn
        )


def storage_report(arch: str, tree: JoinTree, net: BayesNet, evidence: dict, targets=None) -> StorageReport:
    """The fpn figures of ``arch`` on ``tree``; ``targets`` are checked as the engines check them."""
    targets = _targets(tree, targets)
    cards = net.cards
    input_fpn = sum(net.cpts[v.id].size for v in net.variables)
    evidence_fpn = sum(p.size for p in evidence_potentials(net, evidence))
    output_fpn = sum(cards[x] for x in targets)

    if arch in ("ls", "hugin"):
        clique_fpn = sum(tree.spaces.values())
        separator_fpn = 0
        if arch == "hugin":
            separator_fpn = sum(tree.sep_spaces[e] for e in tree.edges())
    elif arch == "ss":
        clique_fpn = 0
        probe = ss_run(tree, input_potentials(net, evidence), targets)
        separator_fpn = sum(
            m.size for m in probe.messages.values() if m is not None
        )
    else:
        raise ValueError("unknown architecture %r" % arch)
    return StorageReport(arch, input_fpn, evidence_fpn, clique_fpn, separator_fpn, output_fpn)


def peak_working_memory(arch: str, tree: JoinTree) -> int:
    """Largest node state space; reported separately from StorageReport."""
    return max(tree.spaces.values())
