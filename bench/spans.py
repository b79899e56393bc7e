"""Span recording around chanskew's public functions, from outside the package.

The package imports names with ``from .x import y``, so a wrapper is bound
in place of the original in every ``chanskew`` module that holds it. The
validated constructors are timed through their ``__post_init__``. Spans are
aggregated in memory per (name, parent name): calls, total time, self time
(total minus the time of child spans) and a size counter.
"""

from __future__ import annotations

import contextlib
import sys
from time import perf_counter

from chanskew import bounds, cli, cmatrix, quantum, repro, skewinfo

ROOT_PARENT = "-"

# (module, attribute, span name, size of a result or None)
FUNCTIONS = (
    (cmatrix, "eig_hermitian", "cmatrix.eig_hermitian", None),
    (quantum, "channel_from_json", "quantum.json", None),
    (quantum, "density_matrix_from_json", "quantum.json", None),
    (skewinfo, "weighted_ops", "skewinfo.weighted_ops", None),
    (skewinfo, "skew_with_cache", "skewinfo.skew_with_cache", None),
    (bounds, "channel_bound_report", "bounds.channel_bound_report", None),
    (bounds, "unitary_bound_report", "bounds.unitary_bound_report", None),
    (repro, "table1_reports", "repro.table1_reports", None),
    (repro, "channel_sweep", "repro.sweep", None),
    (repro, "unitary_sweep", "repro.sweep", None),
    (repro, "format_csv", "repro.format_csv", len),
    (cli, "main", "cli.main", None),
)
VALIDATED_CLASSES = (quantum.DensityMatrix, quantum.KrausChannel, quantum.UnitaryOp)


class Tracer:
    def __init__(self):
        self._open: list[list] = []  # [name, start, time of closed children]
        # (name, parent) -> [calls, total_s, self_s, size]
        self.spans: dict[tuple[str, str], list] = {}

    def wrap(self, name: str, fn, size=None):
        """``fn`` recorded as span ``name``; ``size(result)`` adds to its counter."""
        stack = self._open
        spans = self.spans

        def traced(*args, **kwargs):
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                total = perf_counter() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += total
                entry = spans.setdefault(
                    (name, stack[-1][0] if stack else ROOT_PARENT), [0, 0.0, 0.0, 0]
                )
                entry[0] += 1
                entry[1] += total
                entry[2] += total - frame[2]
            if size is not None:
                entry[3] += size(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Bind the wrappers into the package; restore the originals on exit."""
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "chanskew" or key.startswith("chanskew.")
        ]
        undo = []
        try:
            for module, attr, name, size in FUNCTIONS:
                original = getattr(module, attr)
                traced = self.wrap(name, original, size)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, traced)
                            undo.append((mod, key, original))
            for cls in VALIDATED_CLASSES:
                original = cls.__dict__["__post_init__"]
                cls.__post_init__ = self.wrap("quantum.validate", original)
                undo.append((cls, "__post_init__", original))
            yield self
        finally:
            for obj, key, value in reversed(undo):
                setattr(obj, key, value)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s and size, summed over parents."""
        out: dict[str, dict[str, float]] = {}
        for (name, _), (calls, total, self_s, size) in self.spans.items():
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0})
            agg["calls"] += calls
            agg["total_s"] += total
            agg["self_s"] += self_s
            agg["size"] += size
        return out

    def calls_under(self, name: str, parent: str) -> int:
        entry = self.spans.get((name, parent))
        return entry[0] if entry else 0

    def records(self) -> list[dict]:
        return [
            {"name": name, "parent": parent, "calls": c, "total_s": t, "self_s": s, "size": z}
            for (name, parent), (c, t, s, z) in sorted(self.spans.items())
        ]
