"""Spans around polyinv's layer functions, installed from outside.

`Tracer` replaces each function in `LAYERS` with a timing wrapper in
every polyinv module that binds it (so `from .equivalence import
unimodular_equivalent` in the classifier is wrapped too) and restores
the originals on exit. A span is (layer, start, end, parent span); spans
stay in memory, and a layer's self time is its spans' durations minus
the parts covered by wrapped child spans.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter
from pathlib import Path

# metric prefix -> (module, attribute); "Polytope.x" is a method or classmethod
LAYERS = {
    "cli.run": ("cli", "run"),
    "polytope.from_vertices": ("polytope", "Polytope.from_vertices"),
    "polytope.face_lattice": ("polytope", "Polytope.face_lattice"),
    "polytope.is_delzant": ("polytope", "Polytope.is_delzant"),
    "linalg.kernel_basis": ("linalg", "kernel_basis"),
    "linalg.affine_normalize": ("linalg", "affine_normalize"),
    "volumes.normalized_volume": ("volumes", "normalized_volume"),
    "volumes.lattice_points": ("volumes", "lattice_points"),
    "invariants.report": ("invariants", "report"),
    "invariants.c_t": ("invariants", "c_t"),
    "invariants.c_star": ("invariants", "c_star"),
    "invariants.f_polynomial": ("invariants", "f_polynomial"),
    "classifier.classify": ("classifier", "classify"),
    "classifier.decompose_join": ("classifier", "decompose_join"),
    "equivalence.unimodular_equivalent": ("equivalence", "unimodular_equivalent"),
    "constructions.projective_join": ("constructions", "projective_join"),
}
POINTS_LAYER = "volumes.lattice_points"  # its results are summed as `.points`


class Tracer:
    """Context manager: while active, every call into a layer is a span."""

    def __init__(self):
        self.names = list(LAYERS)
        self.spans: list = []
        self.points = 0
        self._stack = [-1]
        self._restore: list = []

    def _wrap(self, index: int, fn, sums_points: bool):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (index, start, end, parent)
            if sums_points:
                self.points += result
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items()
                   if name == "polyinv" or name.startswith("polyinv.")]
        for index, name in enumerate(self.names):
            module_name, attr = LAYERS[name]
            module = sys.modules["polyinv." + module_name]
            if attr.startswith("Polytope."):
                cls, method = module.Polytope, attr.split(".", 1)[1]
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(index, raw.__func__, False))
                else:
                    new = self._wrap(index, raw, False)
                self._restore.append((cls, method, raw))
                setattr(cls, method, new)
                continue
            original = getattr(module, attr)
            new = self._wrap(index, original, name == POINTS_LAYER)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, new)
        return self

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def summary(self) -> tuple[Counter, dict]:
        """(calls per layer, self seconds per layer) over all spans."""
        covered = [0.0] * len(self.spans)
        for index, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s = dict.fromkeys(self.names, 0.0)
        for (index, start, end, _), inner in zip(self.spans, covered):
            name = self.names[index]
            calls[name] += 1
            self_s[name] += end - start - inner
        return calls, self_s

    def write(self, path: Path):
        """Spans as gzip JSON, times in microseconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "layers": self.names,
            "fields": ["layer", "start_us", "end_us", "parent"],
            "spans": [
                [i, round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p]
                for i, s, e, p in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
