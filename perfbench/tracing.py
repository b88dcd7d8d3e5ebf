"""Spans around the program's public functions, installed from outside.

``Tracer.install`` replaces the module and class attributes through which
the program calls each layer's public functions with wrappers that record
(name, start, end, parent, operation id) spans in memory.  Untraced runs
never call it, so they run the program unmodified.  Spans nest on one
thread; a span's self time is its length minus the time its direct
children cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

#: Span name -> the attributes through which the program reaches that
#: function.  Every attribute that holds the same function gets the same
#: wrapper, so one call records one span however it was reached.
TARGETS = {
    "cli.main": [("bohrap.cli", "main")],
    "criteria.bourgain_scan": [("bohrap.cli", "bourgain_scan"),
                               ("bohrap.criteria", "bourgain_scan")],
    "riesz.make_independent_params": [("bohrap.cli", "make_independent_params"),
                                      ("bohrap.riesz", "make_independent_params")],
    "riesz.riesz_property_check": [("bohrap.cli", "riesz_property_check"),
                                   ("bohrap.riesz", "riesz_property_check")],
    "riesz.build_polynomial": [("bohrap.criteria", "build_polynomial"),
                               ("bohrap.riesz", "build_polynomial")],
    "riesz.abs2_polynomial": [("bohrap.cli", "abs2_polynomial"),
                              ("bohrap.criteria", "abs2_polynomial"),
                              ("bohrap.riesz", "abs2_polynomial")],
    "riesz.stage_exponents": [("bohrap.riesz", "stage_exponents")],
    "riesz.extend": [("bohrap.riesz", "extend")],
    "freqspace.torus_reduce": [("bohrap.bohrint", "torus_reduce")],
    "bohrint.bohr_integral_multi": [("bohrap.criteria", "bohr_integral_multi"),
                                    ("bohrap.bohrint", "bohr_integral_multi")],
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                span = spans[idx]
                on_result(self.counts[self.op], result, span[2] - span[1])
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import importlib

        from bohrap.appoly import APPoly
        for name, places in TARGETS.items():
            mods = [(importlib.import_module(m), a) for m, a in places]
            fn = getattr(*mods[0])
            hook = _integral_counts if name == "bohrint.bohr_integral_multi" else None
            wrapper = self._wrap(name, fn, hook)
            for mod, attr in mods:
                if getattr(mod, attr) is not fn:
                    raise RuntimeError(f"{mod.__name__}.{attr} is not {name}")
                self._set(mod, attr, wrapper)
        self._set(APPoly, "__mul__", self._wrap(
            "appoly.mul", APPoly.__mul__, _mul_counts))
        from_terms = APPoly.__dict__["from_terms"].__func__
        self._set(APPoly, "from_terms",
                  classmethod(self._wrap("appoly.from_terms", from_terms)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def layer_totals(self, scales: dict[int, float]) -> dict:
        """Per span name: inclusive seconds of outermost spans, self seconds
        and call count, over the operations in ``scales``, each scaled by
        its normalization factor.  Names without spans read as zeros."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for i, (name, t0, t1, parent, op) in enumerate(self.spans):
            if op not in scales:
                continue
            f = scales[op]
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (t1 - t0 - child[i]) * f
            if not self._inside(parent, name):
                row["s"] += (t1 - t0) * f
        return out

    def _inside(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False


def _mul_counts(counts, result, seconds) -> None:
    counts["appoly.mul.terms_out"] += len(result)


def _integral_counts(counts, ests, seconds) -> None:
    if not ests:
        return
    e = ests[0]  # the functionals of one call share their nodes
    if e.method == "monte-carlo":
        counts["bohrint.mc_samples"] += e.nodes_or_samples
        counts["bohrint.mc_raw_s"] += seconds
    else:
        counts["bohrint.tensor_points"] += e.nodes_or_samples
    counts["bohrint.torus_dim_max"] = max(counts["bohrint.torus_dim_max"], e.torus_dim)
