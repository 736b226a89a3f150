"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces every binding of a traced ``arrhom`` function in
every loaded ``arrhom`` module with a wrapper.  ``from .cyclo import rank``
copies the binding into the importing module, so wrapping the defining module
alone would miss most calls; the wrapper therefore goes wherever the function
object is bound.  Each call through a wrapper becomes a span (name, start,
end, parent span, instance id).  Spans stay in memory and are written out by
``Tracer.write`` when the run ends.  A function's self time is its span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from functools import wraps

# functions that get a span: calls and self time
SPANNED = (
    "cyclo.rank",
    "cyclo.rank_exact",
    "cyclo.rank_float",
    "geometry.normalize",
    "geometry.intersections",
    "geometry.chambers",
    "geometry.sharp_pairs",
    "homology.h1",
    "homology.relation_matrix",
    "homology.sector_sums",
    "bounds.beta_certificate",
    "bounds.sharp_pair_report",
    "fox.oracle_h1",
    "fox.presentation",
    "io.parse_instance",
    "io.build_report",
    "fuzz.run_trial",
)

# hot functions that are only counted: a span per call would cost more than
# the work they do
COUNTED = (
    "local_system.resonant_points",
    "cyclo.CycloNumber.inverse",
)


# sizes summed over the calls that produce them
SIZES = (
    "cyclo.rank_exact.cells",
    "cyclo.rank_exact.nnz",
    "cyclo.rank_float.cells",
    "homology.matrix_rows",
    "homology.matrix_cols",
    "fox.relators",
)


def _matrix_cells(rows) -> int:
    return len(rows) * len(rows[0]) if rows else 0


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, name, instance, start, end)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()  # sizes measured at the layer boundaries
        self.chamber_inputs = set()  # distinct normalized arrangements
        self.instance = None
        self._stack = []  # [span id, child time]
        self._patches = []  # (owner, attribute, original)

    # -- recording ----------------------------------------------------------

    def _measure(self, name, args, result):
        c = self.counts
        if name == "cyclo.rank_exact":
            rows = args[0]
            c["cyclo.rank_exact.cells"] += _matrix_cells(rows)
            c["cyclo.rank_exact.nnz"] += sum(1 for r in rows for x in r if x)
        elif name == "cyclo.rank_float":
            c["cyclo.rank_float.cells"] += _matrix_cells(args[0])
        elif name == "geometry.chambers":
            self.chamber_inputs.add(tuple((l.a, l.b, l.c) for l in args[0].lines))
        elif name == "homology.relation_matrix":
            basis, rows = result
            c["homology.matrix_rows"] += len(rows)
            c["homology.matrix_cols"] += basis.dim
        elif name == "fox.presentation":
            c["fox.relators"] += len(result.relators)

    def _spanned(self, name, fn):
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(tracer.spans)
            parent = stack[-1][0] if stack else None
            tracer.spans.append(None)  # reserve the id in call order
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                tracer.spans[span_id] = (span_id, parent, name, tracer.instance, start, end)
            tracer._measure(name, args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        @wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every traced function at every place it is bound."""
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "arrhom" or k.startswith("arrhom."))
        ]
        for names, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for name in names:
                mod_name, *path = name.split(".")
                owner = sys.modules[f"arrhom.{mod_name}"]
                for attr in path[:-1]:
                    owner = getattr(owner, attr)
                original = getattr(owner, path[-1])
                wrapper = make(name, original)
                if isinstance(owner, type):  # a method: one binding, on the class
                    self._patch(owner, path[-1], original, wrapper)
                    continue
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics: calls and self time per function, plus sizes."""
        out = {}
        for name in SPANNED:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for name in COUNTED:
            out[f"{name}.calls"] = (self.calls[name], "count")
        for name in SIZES:
            out[name] = (self.counts[name], "count")
        chamber_calls = self.calls["geometry.chambers"]
        out["geometry.chambers.reuse_ratio"] = (
            len(self.chamber_inputs) / chamber_calls if chamber_calls else 1.0,
            "ratio",
        )
        return out

    def write(self, path):
        """Write the spans as JSON lines, one per span, in call order."""
        keys = ("id", "parent", "name", "instance", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(dict(zip(keys, span))) + "\n")
