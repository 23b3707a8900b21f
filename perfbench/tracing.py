"""Span tracing of cattab's layer boundaries, from outside the package.

A traced run replaces every cross-module reference inside ``cattab`` --
for example ``cattab.simulate.independence_test`` or
``cattab.inference.chi2_sf`` -- with a wrapper that records a span around
the call. A layer is the module that defines the called name, so the
layers are ``simulate``, ``table``, ``association``, ``inference``,
``special``, ``distributions``, ``io`` and ``cli``. The benchmark's own
calls into the package go through :func:`entry`, which wraps them the
same way. Nothing under ``src/`` is edited; the patches are undone when
the traced phase ends.

Each span records its name (``layer:function``), start and end
(``perf_counter_ns``, which is the system-wide monotonic clock on Linux,
so spans from child processes line up), its parent span and the id of
the op that caused it. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import os
import types
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

# Modules whose references to other cattab modules are wrapped.
CALLER_MODULES = ("simulate", "inference", "association", "table",
                  "distributions", "io", "cli", "fixtures")
# Classes wrapped like functions: constructing one is work of its layer.
TRACED_CLASSES = ("ContingencyTable",)

PER_LAYER = (
    ("simulate.calls", "count"),
    ("simulate.busy_s", "s"),
    ("simulate.self_s", "s"),
    ("simulate.us_per_replicate", "us"),
    ("table.calls", "count"),
    ("table.busy_s", "s"),
    ("table.calls_per_replicate", "count"),
    ("association.calls", "count"),
    ("association.busy_s", "s"),
    ("inference.calls", "count"),
    ("inference.busy_s", "s"),
    ("inference.self_s", "s"),
    ("inference.us_per_call", "us"),
    ("special.calls", "count"),
    ("special.busy_s", "s"),
    ("special.us_per_call", "us"),
    ("special.calls_per_replicate", "count"),
    ("distributions.calls", "count"),
    ("distributions.busy_s", "s"),
    ("io.calls", "count"),
    ("io.busy_s", "s"),
    ("io.bytes", "B"),
    ("cli.import_ms", "ms"),
    ("cli.parse_ms", "ms"),
    ("cli.compute_ms", "ms"),
    ("cli.render_ms", "ms"),
    ("trace.overhead_frac", "1"),
)


class Tracer:
    """In-memory span store; one per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.io_bytes = 0
        self.op_id = -1
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def current(self) -> int:
        return self._stack[-1] if self._stack else -1

    def wrap(self, fn, name: str):
        count_bytes = name.startswith("io:")

        def traced(*args, **kwargs):
            if count_bytes and args and isinstance(args[0], (str, os.PathLike)):
                self.io_bytes += os.path.getsize(args[0])
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    @contextmanager
    def patched(self):
        """Wrap every layer boundary for the duration of the block."""
        saved = []
        try:
            for module, attr, name in boundary_targets():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def payload(self) -> dict:
        """Spans as plain data, for a child process to hand to its parent."""
        return {
            "names": self.names,
            "spans": [[self.name_id[i], self.start[i], self.end[i], self.parent[i]]
                      for i in range(len(self))],
            "io_bytes": self.io_bytes,
        }

    def adopt(self, payload: dict, parent: int) -> None:
        """Append a child process's spans under span ``parent``, in the
        current op."""
        base = len(self)
        for nid, start, end, par in payload["spans"]:
            self.name_id.append(self._intern(payload["names"][nid]))
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent if par < 0 else base + par)
            self.op.append(self.op_id)
        self.io_bytes += payload["io_bytes"]

    def save(self, path) -> None:
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 op=np.frombuffer(self.op, dtype=np.int64))


def boundary_targets() -> list[tuple[types.ModuleType, str, str]]:
    """Every ``(module, attribute, span name)`` a traced run wraps: each
    public cattab function or traced class that a cattab module imported
    from another cattab module, plus the CLI's ``run`` stage."""
    targets = []
    for caller in CALLER_MODULES:
        module = importlib.import_module(f"cattab.{caller}")
        for attr, obj in vars(module).items():
            home = getattr(obj, "__module__", None) or ""
            if attr.startswith("_") or not home.startswith("cattab.") \
                    or home == module.__name__:
                continue
            if isinstance(obj, types.FunctionType) or \
                    (isinstance(obj, type) and attr in TRACED_CLASSES):
                targets.append((module, attr, f"{home.rsplit('.', 1)[1]}:{attr}"))
    cli = importlib.import_module("cattab.cli")
    targets.append((cli, "run", "cli:run"))
    return targets


def entry(tracer: Tracer | None, module: str, name: str):
    """The benchmark's own handle on ``cattab.<module>.<name>``: the
    function itself, or a traced wrapper when ``tracer`` is given."""
    fn = getattr(importlib.import_module(f"cattab.{module}"), name)
    return fn if tracer is None else tracer.wrap(fn, f"{module}:{name}")


def covered_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the part of ``[lo, hi]`` that the union of
    ``intervals`` covers."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(tracer: Tracer, op_meta: dict[int, tuple[str | None, int]],
                  import_ms: float, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics of a traced phase.

    ``op_meta`` maps each op id to ``(kind, replicates)``, where kind is
    ``"chisq"`` or ``"mh"`` for a null calibration, ``"coverage"`` for a
    coverage run and ``None`` otherwise.

    - ``calls``: spans of the layer.
    - ``busy_s``: time inside the layer's outermost spans.
    - ``self_s``: span time not covered by the span's direct children.
    - ``us_per_call``: ``busy_s`` per call.
    - ``*_per_replicate``: table builds per replicate of null
      calibrations, and special-function calls per replicate of
      chi-square (pearson or deviance) calibrations.
    - ``cli.*``: per-invocation means; ``parse`` is ``main`` minus
      ``run``, ``compute`` the child spans under ``run`` and ``render``
      ``run``'s self time.
    """
    n = len(tracer)
    layer_of = [name.split(":", 1)[0] for name in tracer.names]
    layer = [layer_of[i] for i in tracer.name_id]
    start, end, parent = tracer.start, tracer.end, tracer.parent
    children: dict[int, list[tuple[int, int]]] = {}
    for i in range(n):
        p = parent[i]
        if p >= 0:
            children.setdefault(p, []).append((start[i], end[i]))

    def self_ns(i: int) -> int:
        kids = children.get(i)
        own = end[i] - start[i]
        return own - covered_ns(kids, start[i], end[i]) if kids else own

    calls: dict[str, int] = {}
    busy: dict[str, int] = {}
    own: dict[str, int] = {}
    table_in_null = special_in_chisq = 0
    for i in range(n):
        lay = layer[i]
        calls[lay] = calls.get(lay, 0) + 1
        own[lay] = own.get(lay, 0) + self_ns(i)
        p = parent[i]
        while p >= 0 and layer[p] != lay:
            p = parent[p]
        if p < 0:
            busy[lay] = busy.get(lay, 0) + end[i] - start[i]
        kind = op_meta.get(tracer.op[i], (None, 0))[0]
        if lay == "table" and kind in ("chisq", "mh"):
            table_in_null += 1
        elif lay == "special" and kind == "chisq":
            special_in_chisq += 1

    replicates = sum(r for _, r in op_meta.values())
    null_reps = sum(r for k, r in op_meta.values() if k in ("chisq", "mh"))
    chisq_reps = sum(r for k, r in op_meta.values() if k == "chisq")

    mains = [i for i in range(n) if tracer.names[tracer.name_id[i]] == "cli:main"]
    runs = {i for i in range(n) if tracer.names[tracer.name_id[i]] == "cli:run"}
    parse = compute = render = 0
    for m in mains:
        for r in runs:
            if parent[r] == m:
                parse -= end[r] - start[r]
                kids = children.get(r, [])
                compute += covered_ns(kids, start[r], end[r])
                render += self_ns(r)
        parse += end[m] - start[m]
    invocations = max(len(mains), 1)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}
    for lay in ("simulate", "table", "association", "inference", "special",
                "distributions", "io"):
        out[f"{lay}.calls"] = calls.get(lay, 0)
        out[f"{lay}.busy_s"] = busy.get(lay, 0) / 1e9
        out[f"{lay}.self_s"] = own.get(lay, 0) / 1e9
        out[f"{lay}.us_per_call"] = ratio(busy.get(lay, 0) / 1e3, calls.get(lay, 0))
    out["simulate.us_per_replicate"] = ratio(busy.get("simulate", 0) / 1e3, replicates)
    out["table.calls_per_replicate"] = ratio(table_in_null, null_reps)
    out["special.calls_per_replicate"] = ratio(special_in_chisq, chisq_reps)
    out["io.bytes"] = tracer.io_bytes
    out["cli.import_ms"] = import_ms
    out["cli.parse_ms"] = parse / 1e6 / invocations
    out["cli.compute_ms"] = compute / 1e6 / invocations
    out["cli.render_ms"] = render / 1e6 / invocations
    out["trace.overhead_frac"] = overhead_frac
    return {name: out[name] for name, _ in PER_LAYER}
