"""Spans around the calls the benchmark makes into each layer, and the two
seams it installs inside the package when tracing is on.

A span records its name, start, end and the span that was open when it
began.  Spans stay in memory; per-layer numbers are read off them once the
run is over.  The seams wrap public names the package looks up at call
time:

- ``maxent_tomo.maxent.minimize`` (scipy's minimizer as the fit calls it),
  so each objective evaluation becomes a ``maxent.objective`` span inside a
  ``maxent.minimize`` span;
- ``ObservableSet.validate``, which the observation-level build calls.

A seam whose target no longer exists is reported as missing, and the
metrics that depend on it are reported absent instead of failing the run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from statistics import median


class Tracer:
    """Span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []  # [name, start, end, parent index]
        self._open: list = []
        self._restore: list = []
        self.missing_seams: set = set()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    # -- seams --------------------------------------------------------------

    def install_seams(self, package) -> None:
        if not self.enabled:
            return
        maxent = getattr(package, "maxent", None)
        original_min = getattr(maxent, "minimize", None)
        if original_min is None:
            self.missing_seams.add("minimize")
        else:
            tracer = self

            def traced_minimize(fun, x0, *args, **kwargs):
                def traced_fun(x, *fargs):
                    with tracer.span("maxent.objective"):
                        return fun(x, *fargs)

                with tracer.span("maxent.minimize"):
                    return original_min(traced_fun, x0, *args, **kwargs)

            maxent.minimize = traced_minimize
            self._restore.append(lambda: setattr(maxent, "minimize", original_min))

        obs_cls = getattr(getattr(package, "measurement", None), "ObservableSet", None)
        original_validate = getattr(obs_cls, "validate", None)
        if original_validate is None:
            self.missing_seams.add("validate")
        else:
            tracer = self

            def traced_validate(obs, *args, **kwargs):
                with tracer.span("measurement.validate"):
                    return original_validate(obs, *args, **kwargs)

            obs_cls.validate = traced_validate
            self._restore.append(lambda: setattr(obs_cls, "validate", original_validate))

    def remove_seams(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- reading spans --------------------------------------------------------

    def _inside(self, idx: int, ancestor: int) -> bool:
        parent = self.spans[idx][3]
        while parent is not None:
            if parent == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def durations(self, name: str) -> list:
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[2] is not None]

    def per_span(self, outer: str, inner: str) -> list:
        """For each ``outer`` span: (total seconds, count) of ``inner`` spans
        nested anywhere inside it."""
        out = []
        for i, s in enumerate(self.spans):
            if s[0] != outer:
                continue
            inner_spans = [
                t for j, t in enumerate(self.spans)
                if t[0] == inner and j > i and self._inside(j, i)
            ]
            out.append((sum(t[2] - t[1] for t in inner_spans), len(inner_spans)))
        return out


def med(values):
    """Median of a non-empty list, else None (the metric is absent)."""
    values = [v for v in values if v is not None]
    return median(values) if values else None
