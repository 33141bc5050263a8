"""Outside-in layer trace of bnbench, made without editing the program.

The tracer wraps public functions by rebinding the module attribute that the
caller looks up (``bnbench.engines.multiply`` is the name the engines call,
``bnbench.storage.ss_run`` the name ``storage_report`` calls), and puts every
original back when it is uninstalled.  Each wrapped call records a span:
name, start, end, parent span and trial.  Spans are kept in memory and
written out, schema-tagged, when the run ends.

Counts are taken at the same boundaries: counted-operation deltas are read
from the OpCounter passed into each potential operation, engine totals from
the counter an engine returns, and ``JoinTree.separator`` calls are counted
(not spanned, because there are hundreds of thousands of them per trial on
large trees).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from bnbench import compile as bn_compile
from bnbench import engines, generate, storage
from bnbench.compile import JoinTree
from bnbench.potentials import Potential

SCHEMA = "perfbench-trace-1"

COMPILE_STAGES = (
    ("moral_graph", "moralize"),
    ("elimination_order", "minfill"),
    ("binary_join_tree", "fusion"),
    ("condense", "condense"),
    ("attach_singletons", "singletons"),
    ("junction_tree", "contract"),
    ("assign_potentials", "assign"),
    ("verify_join_tree", "verify"),
)
RUNNERS = (("ls_run", "ls"), ("hugin_run", "hugin"), ("ss_run", "ss"))
COUNTED_OPS = ("multiply", "marginalize", "divide")
UNCOUNTED_OPS = ("embed", "normalize", "identity_over")
LAYERS = ("generate", "network", "compile", "engines", "potentials", "storage", "cli")

# Span fields, in the order they are stored and written.
FIELDS = ("name", "start_ns", "end_ns", "parent", "trial")


def ops(counter) -> int:
    return counter.adds + counter.mults + counter.divs


def layer_of(name: str) -> str:
    return "cli" if name == "trial" else name.split(".", 1)[0]


def exclusive_ns(spans) -> list:
    """Self time of each span: its duration minus the durations of its children.

    ``spans`` is a list of ``(name, start_ns, end_ns, parent, trial)`` with
    ``parent`` the index of the enclosing span or -1.  Spans of one thread
    nest, so children never overlap and the subtraction is exact.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


class Tracer:
    """Wraps bnbench's layer boundaries; one instance per traced run."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []
        self._stack = []
        self.trial = -1
        self.cur = None
        self.per_trial = []
        self._targets = self._build_wrappers()

    # -- wrapping ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span(self, name, fn, before=None, after=None):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapped(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            rec = [nid, 0, 0, stack[-1] if stack else -1, self.trial]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out, state)
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    def _potential_after(self, counted):
        def after(args, kwargs, out, before_ops):
            cur = self.cur
            cur["potentials_calls"] += 1
            cells = out.size
            for a in args:
                if isinstance(a, Potential):
                    cells += a.size
            cur["bytes_computed"] += 8 * cells
            if counted:
                cur["counted_ops"] += ops(_counter(args, kwargs)) - before_ops

        return after

    def _engine_after(self, arch):
        def after(args, kwargs, out, state):
            self.cur["engine_ops"] += ops(out.counter)
            if arch == "ss":
                self.cur["ss_messages"] += sum(m is not None for m in out.messages.values())

        return after

    def _rerun_after(self, args, kwargs, out, state):
        self.cur["rerun_ops"] += ops(out.counter)
        self.cur["storage_engine_calls"] += 1

    def _build_wrappers(self):
        targets = [
            (generate, "random_case", self._span("generate", generate.random_case)),
            (bn_compile, "compile_structures",
             self._span("compile", bn_compile.compile_structures)),
            (bn_compile, "input_potentials",
             self._span("network.input_potentials", bn_compile.input_potentials)),
            (storage, "input_potentials",
             self._span("network.input_potentials", storage.input_potentials)),
            (storage, "storage_report", self._span("storage.report", storage.storage_report)),
            (storage, "peak_working_memory",
             self._span("storage.peak", storage.peak_working_memory)),
            (storage, "ss_run", self._span("storage.rerun", storage.ss_run, after=self._rerun_after)),
        ]
        for attr, stage in COMPILE_STAGES:
            fn = getattr(bn_compile, attr)
            targets.append((bn_compile, attr, self._span("compile." + stage, fn)))
        for attr, arch in RUNNERS:
            fn = getattr(engines, attr)
            targets.append(
                (engines, attr, self._span("engines." + arch, fn, after=self._engine_after(arch)))
            )
        for attr in COUNTED_OPS + UNCOUNTED_OPS:
            counted = attr in COUNTED_OPS
            before = (lambda args, kwargs: ops(_counter(args, kwargs))) if counted else None
            fn = getattr(engines, attr)
            targets.append(
                (engines, attr,
                 self._span("potentials." + attr, fn, before, self._potential_after(counted)))
            )
        separator = JoinTree.separator

        def counted_separator(tree, u, v):
            self.cur["separator_calls"] += 1
            return separator(tree, u, v)

        counted_separator.__wrapped__ = separator
        targets.append((JoinTree, "separator", counted_separator))
        return targets

    def wrapped_names(self):
        """``(owner, attribute, wrapper)`` for every name the tracer rebinds."""
        return list(self._targets)

    @contextmanager
    def installed(self):
        """Rebind every traced name for the duration of the block."""
        saved = []
        try:
            for owner, attr, wrapper in self._targets:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- trials -----------------------------------------------------------

    def run_trial(self, index, fn, *args):
        """Call ``fn(*args)`` as traced trial ``index`` inside a ``trial`` span."""
        self.trial = index
        self.cur = dict.fromkeys(
            (
                "counted_ops",
                "engine_ops",
                "rerun_ops",
                "storage_engine_calls",
                "separator_calls",
                "ss_messages",
                "potentials_calls",
                "bytes_computed",
            ),
            0,
        )
        self.per_trial.append(self.cur)
        return self._span("trial", fn)(*args)

    def consistent(self) -> bool:
        """Whether the last trial's traced op deltas equal its OpCounter totals exactly."""
        c = self.per_trial[-1]
        return c["counted_ops"] == c["engine_ops"] + c["rerun_ops"]

    # -- results ----------------------------------------------------------

    def records(self):
        return [(self.names[r[0]], r[1], r[2], r[3], r[4]) for r in self.spans]

    def summary(self, untraced_ns: int, traced_ns: int):
        """Per-layer metrics, each a mean per traced trial, and layer self-time shares."""
        spans = self.records()
        excl = exclusive_ns(spans)
        incl_by, excl_by, layer_self = {}, {}, dict.fromkeys(LAYERS, 0)
        for (name, start, end, _, _), own in zip(spans, excl):
            incl_by[name] = incl_by.get(name, 0) + end - start
            excl_by[name] = excl_by.get(name, 0) + own
            layer_self[layer_of(name)] += own
        n = len(self.per_trial)
        tot = {k: sum(c[k] for c in self.per_trial) for k in self.per_trial[0]}

        def ms(ns):
            return ns / n / 1e6

        m = {"generate.ms": ms(incl_by.get("generate", 0))}
        m["network.input_potentials_ms"] = ms(incl_by.get("network.input_potentials", 0))
        m["compile.ms"] = ms(incl_by.get("compile", 0))
        for _, stage in COMPILE_STAGES:
            m["compile.%s_ms" % stage] = ms(incl_by.get("compile." + stage, 0))
        m["compile.self_ms"] = ms(excl_by.get("compile", 0))
        m["compile.separator_calls"] = tot["separator_calls"] / n
        for _, arch in RUNNERS:
            m["engines.%s.ms" % arch] = ms(incl_by.get("engines." + arch, 0))
            m["engines.%s.self_ms" % arch] = ms(excl_by.get("engines." + arch, 0))
        m["engines.ss.messages"] = tot["ss_messages"] / n
        pot_ns = 0
        for attr in COUNTED_OPS + UNCOUNTED_OPS:
            ns = incl_by.get("potentials." + attr, 0)
            pot_ns += ns
            m["potentials.%s.ms" % attr] = ms(ns)
        m["potentials.ms"] = ms(pot_ns)
        m["potentials.calls"] = tot["potentials_calls"] / n
        m["potentials.us_per_call"] = pot_ns / tot["potentials_calls"] / 1e3
        m["potentials.counted_ops"] = tot["counted_ops"] / n
        m["potentials.ops_per_s"] = tot["counted_ops"] / (pot_ns / 1e9)
        m["potentials.bytes_computed"] = tot["bytes_computed"] / n
        m["storage.ms"] = ms(incl_by.get("storage.report", 0) + incl_by.get("storage.peak", 0))
        m["storage.self_ms"] = ms(layer_self["storage"])
        m["storage.engine_calls"] = tot["storage_engine_calls"] / n
        m["storage.rerun_ops"] = tot["rerun_ops"] / n
        m["storage.useful_ops_ratio"] = tot["engine_ops"] / tot["counted_ops"]
        m["cli.self_ms"] = ms(layer_self["cli"])
        m["trace.overhead_frac"] = traced_ns / untraced_ns - 1.0
        trial_ns = incl_by["trial"]
        shares = {layer: ns / trial_ns for layer, ns in layer_self.items()}
        return m, shares

    def write(self, path: str, meta: dict):
        origin = self.spans[0][1] if self.spans else 0
        doc = dict(meta)
        doc["schema"] = SCHEMA
        doc["names"] = self.names
        doc["fields"] = list(FIELDS)
        doc["spans"] = [[r[0], r[1] - origin, r[2] - origin, r[3], r[4]] for r in self.spans]
        with open(path, "w") as fp:
            json.dump(doc, fp, separators=(",", ":"))


def _counter(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["counter"]
