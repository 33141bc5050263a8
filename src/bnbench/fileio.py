"""Network interchange files, tree dumps, and the versioned benchmark CSV.

The network file is JSON: ``variables`` is an ordered list of
``{"name", "states"}`` (states are labels; order fixes state indices),
``arcs`` is a list of ``[parent, child]`` name pairs whose order fixes CPT
parent order, ``cpts`` maps a variable name to row-major values (parents in
declared arc order, child varying fastest), and optional ``evidence`` maps
a variable name to a likelihood vector.

CSV rows carry a schema tag so report tooling can refuse foreign files.
Text tables are for humans; the CSV is the contract.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from bnbench.compile import JoinTree, assign_potentials
from bnbench.network import BayesNet, NetworkError
from bnbench.potentials import Variable, make_potential

CSV_SCHEMA = "bnbench-rows-1"

ROW_FIELDS = [
    "trial",
    "seed",
    "n",
    "c1",
    "c2",
    "m",
    "p",
    "evidence_vars",
    "arch",
    "tree",
    "tree_nodes",
    "adds",
    "mults",
    "divs",
    "total",
    "input_fpn",
    "evidence_fpn",
    "clique_fpn",
    "separator_fpn",
    "output_fpn",
    "total_fpn",
    "peak_fpn",
]
ARCHES = ("ls", "hugin", "ss")
# The text fields of a row and the values each may take; every other field is an integer.
ROW_CHOICES = {"arch": ARCHES, "tree": ("junction", "binary")}


def network_to_dict(net: BayesNet, evidence: dict = None, state_labels: dict = None) -> dict:
    state_labels = state_labels or {}

    def states(v):
        return state_labels.get(v.id, ["s%d" % k for k in range(v.cardinality)])

    doc = {
        "variables": [
            {"name": v.name, "states": states(v)} for v in net.variables
        ],
        "arcs": [[net.var(p).name, net.var(c).name] for p, c in net.arcs],
        "cpts": {
            net.var(v.id).name: [float(x) for x in net.cpts[v.id].values.reshape(-1)]
            for v in net.variables
        },
    }
    if evidence:
        doc["evidence"] = {
            net.var(vid).name: [float(x) for x in np.asarray(vec).reshape(-1)]
            for vid, vec in sorted(evidence.items())
        }
    return doc


def _variable(i: int, item) -> Variable:
    """Variable ``i`` from its file entry; an error names the entry or the variable."""
    name = item.get("name") if isinstance(item, dict) else None
    if not isinstance(name, str):
        raise NetworkError("variable entry %d needs a string 'name': %r" % (i, item))
    states = item.get("states")
    if isinstance(states, bool) or not isinstance(states, (list, int)):
        raise NetworkError("variable %r: 'states' must be a list of labels or a count, got %r" % (name, states))
    return Variable(i, name, len(states) if isinstance(states, list) else states)


def _has_bool(values) -> bool:
    """Whether a JSON value, or any item of a nested list, is a boolean."""
    return isinstance(values, bool) or isinstance(values, list) and any(map(_has_bool, values))


def network_from_dict(doc: dict):
    if not isinstance(doc, dict):
        raise NetworkError("network file must hold a JSON object, not %s" % type(doc).__name__)
    for key, kind in (("variables", list), ("arcs", list), ("cpts", dict), ("evidence", dict)):
        value = doc.get(key)
        if value is None and key in ("variables", "cpts"):
            raise NetworkError("network file missing required key: %r" % key)
        if value is not None and not isinstance(value, kind):
            raise NetworkError(
                "%r must be a JSON %s, got %r" % (key, "array" if kind is list else "object", value)
            )
    cpts_raw = doc["cpts"]
    variables = []
    index = {}
    for i, item in enumerate(doc["variables"]):
        v = _variable(i, item)
        if v.name in index:
            raise NetworkError("duplicate variable name %r" % v.name)
        index[v.name] = i
        variables.append(v)
    arcs = {}  # (parent id, child id) -> None; keeps declaration order
    for pair in doc.get("arcs") or ():
        if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, str) for x in pair)):
            raise NetworkError("arc %r is not a [parent, child] pair of variable names" % (pair,))
        p, c = pair
        if p not in index or c not in index:
            raise NetworkError("arc %r references unknown variable" % (pair,))
        if p == c:
            raise NetworkError("self-arc on variable %r" % p)
        if (index[p], index[c]) in arcs:
            raise NetworkError("duplicate arc %r -> %r" % (p, c))
        arcs[index[p], index[c]] = None
    for name in cpts_raw:
        if name not in index:
            raise NetworkError("CPT for unknown variable %r" % name)
    parents = {i: [] for i in index.values()}
    for p, c in arcs:
        parents[c].append(p)
    cpts = {}
    for v in variables:
        if v.name not in cpts_raw:
            raise NetworkError("no CPT for variable %r" % v.name)
        domain = [variables[j] for j in parents[v.id]] + [v]
        if _has_bool(cpts_raw[v.name]):
            raise NetworkError("CPT of variable %r holds a boolean, not a number" % v.name)
        try:
            cpts[v.id] = make_potential(domain, cpts_raw[v.name])
        except (ValueError, TypeError) as exc:
            raise NetworkError(
                "CPT of variable %r (parents %r): %s"
                % (v.name, [u.name for u in domain[:-1]], exc)
            ) from None
    net = BayesNet(variables, arcs, cpts)
    evidence = {}
    for name, vec in (doc.get("evidence") or {}).items():
        if name not in index:
            raise NetworkError("evidence on unknown variable %r" % name)
        if _has_bool(vec):
            raise NetworkError("evidence on variable %r holds a boolean, not a number" % name)
        try:
            evidence[index[name]] = np.asarray(vec, dtype=np.float64)
        except (ValueError, TypeError) as exc:
            raise NetworkError("evidence on variable %r: %s" % (name, exc)) from None
    return net, evidence


def save_network(path: str, net: BayesNet, evidence: dict = None, state_labels: dict = None):
    with open(path, "w") as fp:
        json.dump(network_to_dict(net, evidence, state_labels), fp, indent=2, sort_keys=True)
        fp.write("\n")


def load_network(path: str):
    with open(path) as fp:
        try:
            doc = json.load(fp)
        except json.JSONDecodeError as exc:
            raise NetworkError(
                "%s: line %d column %d: %s" % (path, exc.lineno, exc.colno, exc.msg)
            )
    return network_from_dict(doc)


def tree_dump(tree: JoinTree, domains, names: dict = None) -> str:
    """Deterministic text rendering used by golden tests and `compile`.

    Each node lists the indices of the potential ``domains`` placed on it,
    by :func:`~bnbench.compile.assign_potentials`.
    """
    names = names or {}
    placement = assign_potentials(tree, domains)

    def label(dom):
        return "{%s}" % ",".join(str(names.get(v, v)) for v in dom)

    lines = [
        "%s tree: %d nodes, %d edges"
        % (tree.kind, len(tree.nodes), len(tree.edges()))
    ]
    for n in sorted(tree.nodes):
        entry = "node %d: %s statespace=%d" % (n, label(tree.nodes[n]), tree.statespace(n))
        if n in placement:
            entry += " potentials=%s" % (placement[n],)
        lines.append(entry)
    for u, v in tree.edges():
        lines.append(
            "edge (%d,%d): separator %s statespace=%d"
            % (u, v, label(tree.separator(u, v)), tree.sep_spaces[u, v])
        )
    return "\n".join(lines) + "\n"


def tagged_csv(tag: str, header, rows) -> str:
    """CSV text: a ``# tag`` line, the header, then the rows, each line ending in ``\\n``.

    A field holding a comma, a quote or a line break is quoted.
    """
    buf = io.StringIO()
    buf.write("# %s\n" % tag)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def rows_to_csv(rows: list) -> str:
    body = ([row.get(k, "") for k in ROW_FIELDS] for row in rows)
    return tagged_csv(CSV_SCHEMA, ROW_FIELDS, body)


def write_rows(path: str, rows: list):
    with open(path, "w") as fp:
        fp.write(rows_to_csv(rows))


def _check_row(row: dict, where: str):
    """Raise NetworkError naming ``where`` unless ``row`` has every field, each well-typed."""
    fields = [v for k, v in row.items() if k is not None and v is not None] + row.get(None, [])
    if len(fields) != len(ROW_FIELDS):
        raise NetworkError("%s: %d fields, expected %d" % (where, len(fields), len(ROW_FIELDS)))
    for key in ROW_FIELDS:
        value = row[key]
        if key in ROW_CHOICES:
            if value not in ROW_CHOICES[key]:
                raise NetworkError("%s: unknown %s %r" % (where, key, value))
            continue
        try:
            int(value)
        except ValueError:
            raise NetworkError("%s: field %r is not an integer: %r" % (where, key, value)) from None


def read_rows(path: str) -> list:
    """Rows of a benchmark CSV as string dicts; every row is checked on the way in."""
    with open(path) as fp:
        first = fp.readline().strip()
        if first != "# %s" % CSV_SCHEMA:
            raise NetworkError("%s: expected schema tag %r, found %r" % (path, CSV_SCHEMA, first))
        reader = csv.DictReader(fp)
        if reader.fieldnames != ROW_FIELDS:
            raise NetworkError("%s: column set does not match %s" % (path, CSV_SCHEMA))
        rows = []
        for row in reader:
            # the schema tag line is read before the csv reader starts counting
            _check_row(row, "%s: line %d" % (path, reader.line_num + 1))
            rows.append(dict(row))
        return rows
