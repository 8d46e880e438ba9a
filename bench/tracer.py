"""In-memory span tracer that wraps pseudoeuclid's public functions at run time.

Nothing under ``src/`` is edited: ``Tracer.install`` replaces selected
functions and methods with timing wrappers, in the defining module and in
every other ``pseudoeuclid`` module that imported the same object by name
(``triangle`` does ``from .hypnum import angle_between``), and ``restore``
puts the originals back.  Spans are kept in memory and summarized, or
written out, when the traced phase ends.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import Counter

# (module, attribute) -> span name.  Methods are patched on their class.
SPANS = {
    ("hypnum", "angle_between"): "hypnum.angle_between",
    ("angle", "from_point"): "angle.from_point",
    ("angle", "cosh_sinh"): "angle.cosh_sinh",
    ("geometry", "segment_axis"): "geometry.lines",
    ("geometry", "line_intersection"): "geometry.lines",
    ("triangle", "Triangle.__post_init__"): "triangle.construct",
    ("triangle", "Triangle.elements"): "triangle.elements",
    ("triangle", "Triangle.law_of_sines_residual"): "triangle.laws",
    ("triangle", "Triangle.law_of_cosines_check"): "triangle.laws",
    ("triangle", "Triangle.angle_sum"): "triangle.laws",
    ("triangle", "Triangle.is_right_angle_at"): "triangle.laws",
    ("triangle", "solve_ssa"): "triangle.solve_ssa",
    ("triangle", "solve_asa"): "triangle.solve_asa",
    ("triangle", "solve_sas"): "triangle.solve_sas",
    ("triangle", "solve_sss"): "triangle.solve_sss",
    ("hyperbola", "circumscribed"): "hyperbola.circumscribed",
    ("selftest", "random_triangle"): "selftest.random_triangle",
    ("selftest", "run_selftest"): "selftest.run",
}

# Called too often for a span each: counted only.
COUNTS = {
    ("hypnum", "HyperbolicNumber.__post_init__"): "hypnum.numbers_built",
    ("angle", "ExtendedAngle.__post_init__"): "angle.angles_built",
    ("geometry", "PointP.__post_init__"): "geometry.points_built",
    ("geometry", "displacement"): "geometry.displacement.calls",
}

SOLVERS = ("triangle.solve_ssa", "triangle.solve_asa", "triangle.solve_sas", "triangle.solve_sss")


class Tracer:
    """Records one span per wrapped call: (id, parent id, op, name, start, end, ok).

    ``op`` is the index of the benchmark op the span belongs to, so the spans
    of one op share it; ``ok`` is False when the call raised.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._undo: list[tuple] = []

    def _span(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        counts = self.counts
        solver = name in SOLVERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                if solver:
                    counts["triangle.solve.kept"] += len(result) if isinstance(result, list) else 1
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.op, name, start, end, ok))

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "pseudoeuclid" or name.startswith("pseudoeuclid.")}
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for (mod_name, attr), name in table.items():
                owner = modules[f"pseudoeuclid.{mod_name}"]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._patch(cls, attr, make(name, cls.__dict__[attr]))
                    continue
                original = getattr(owner, attr)
                wrapper = make(name, original)
                # rebind every by-name import of the same function object
                for mod in modules.values():
                    if getattr(mod, attr, None) is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def summary(self, factor: float = 1.0) -> dict:
        """Per-layer totals: call counts, self time (ms, times ``factor``)
        and work ratios.

        Self time is a span's duration minus the time covered by its child
        spans (nested calls on one thread never overlap).
        """
        child_time: Counter = Counter()
        parent_of = {}
        name_of = {}
        for sid, parent, _, name, start, end, _ in self.spans:
            parent_of[sid] = parent
            name_of[sid] = name
            if parent is not None:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        built = 0
        in_solver = 0
        for sid, parent, _, name, start, end, ok in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_time[sid]
            if name == "triangle.construct":
                built += ok
                anc = parent
                while anc is not None and name_of[anc] not in SOLVERS:
                    anc = parent_of[anc]
                in_solver += anc is not None
        kept = self.counts["triangle.solve.kept"]
        out = {
            "hypnum.numbers_built": self.counts["hypnum.numbers_built"],
            "angle.angles_built": self.counts["angle.angles_built"],
            "geometry.points_built": self.counts["geometry.points_built"],
            "geometry.displacement.calls": self.counts["geometry.displacement.calls"],
            "triangle.triangles_built": built,
            "triangle.elements_per_triangle": calls["triangle.elements"] / built if built else 0.0,
            "triangle.solve.candidates_kept": kept / in_solver if in_solver else 0.0,
            "triangle.solve.rejected": in_solver - kept,
        }
        for name in ("hypnum.angle_between", "angle.from_point", "angle.cosh_sinh",
                     "triangle.elements", "hyperbola.circumscribed"):
            out[f"{name}.calls"] = calls[name]
        for name in sorted(set(SPANS.values())):
            out[f"{name}.self_ms"] = 1e3 * factor * self_s[name]
        return out

    def write(self, path) -> None:
        """One JSON line per span, in completion order."""
        keys = ("id", "parent", "op", "name", "start", "end", "ok")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
