"""Span recording around the package's public functions, from outside the package.

The tracer replaces a function with a wrapper in every ``weylgabor`` module
that binds it (``cli`` binds ``quantize_to_kernel`` by ``from ... import``,
``quantize`` binds ``grid_convolve``, and so on), so calls made inside the
package are recorded as well as calls made by the benchmark.  Each call
becomes one span: name, start, end, parent span and an optional work count.
Spans live in flat arrays in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, function, span name, work count taken from the call's arguments)
TARGETS = [
    ("weylgabor.numerics", "bessel_i", "numerics.bessel_i", None),
    ("weylgabor.numerics", "batch_fractional_shift",
     "numerics.batch_fractional_shift", None),
    ("weylgabor.numerics", "grid_convolve", "numerics.grid_convolve", None),
    ("weylgabor.numerics", "find_local_minima", "numerics.find_local_minima", None),
    ("weylgabor.gabor", "gabor_transform", "gabor.gabor_transform", None),
    ("weylgabor.gabor", "gabor_reconstruct", "gabor.gabor_reconstruct", None),
    ("weylgabor.gabor", "covariance_residual", "gabor.covariance_residual", None),
    ("weylgabor.cylinder", "reproducing_kernel", "cylinder.reproducing_kernel", None),
    ("weylgabor.cylinder", "cyl_gabor_transform", "cylinder.cyl_gabor_transform", None),
    ("weylgabor.cylinder", "cyl_reconstruct", "cylinder.cyl_reconstruct", None),
    # work: the n_t^2 kernel entries, from the probe (every caller passes
    # it positionally)
    ("weylgabor.quantize", "quantize_to_kernel", "quantize.quantize_to_kernel",
     lambda args, kwargs: float(args[1].grid.count ** 2)),
    ("weylgabor.quantize", "weyl_operator_from_weight",
     "quantize.weyl_operator_from_weight", None),
    ("weylgabor.quantize", "density_diagnostics", "quantize.density_diagnostics", None),
    ("weylgabor.quantize", "portrait", "quantize.portrait", None),
    ("weylgabor.stellar", "stellar_distribution", "stellar.stellar_distribution", None),
    ("weylgabor.stellar", "stellar_experiment", "stellar.stellar_experiment", None),
    ("weylgabor.stellar", "hermite_gram", "stellar.hermite_gram", None),
]


def group_targets():
    """Every public composition law and matrix representation in groups,
    folded into the two spans groups.compose and groups.to_matrix."""
    groups = sys.modules["weylgabor.groups"]
    found = []
    for name in sorted(groups.__all__):
        if name.endswith("_compose"):
            found.append(("weylgabor.groups", name, "groups.compose", None))
        elif name.endswith("_to_matrix"):
            found.append(("weylgabor.groups", name, "groups.to_matrix", None))
    return found


class Tracer:
    """In-memory span store: one row per call, parents by row index."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, work: float) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.work.append(work)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, work: float = 0.0):
        idx = self._open(self._name_id(name), work)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, work=None):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid, work(args, kwargs) if work else 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict:
        hi = len(self) if hi is None else hi
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32)[lo:hi].copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32)[lo:hi] - lo,
            "start": np.frombuffer(self.start, dtype=float)[lo:hi].copy(),
            "end": np.frombuffer(self.end, dtype=float)[lo:hi].copy(),
            "work": np.frombuffer(self.work, dtype=float)[lo:hi].copy(),
        }

    def save(self, path) -> None:
        data = self.arrays()
        np.savez(path, names=np.array(self.names), **data)


def install(tracer: Tracer, targets) -> list:
    """Wrap every binding of each target in the loaded weylgabor modules;
    returns the (module, attribute, original) list that uninstall restores."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "weylgabor" or n.startswith("weylgabor.")]
    patched = []
    for modname, fname, span_name, work in targets:
        original = getattr(sys.modules[modname], fname)
        wrapper = tracer.wrap(original, span_name, work)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, original))
    return patched


def uninstall(patched: list) -> None:
    for module, attr, original in reversed(patched):
        setattr(module, attr, original)


def span_totals(tracer: Tracer, lo: int, hi: int) -> dict:
    """Per span name over rows [lo, hi): summed self time, summed inclusive
    time, call count and summed work.  Self time is a span's duration minus
    the durations of its direct children (calls are nested, never
    overlapping, in one thread)."""
    data = tracer.arrays(lo, hi)
    dur = data["end"] - data["start"]
    parent = data["parent"]
    inner = parent >= 0
    child = np.bincount(parent[inner], weights=dur[inner], minlength=dur.size)
    self_time = dur - child
    totals = {}
    for nid, name in enumerate(tracer.names):
        rows = data["name_id"] == nid
        if rows.any():
            totals[name] = {
                "self_s": float(self_time[rows].sum()),
                "total_s": float(dur[rows].sum()),
                "calls": int(rows.sum()),
                "work": float(data["work"][rows].sum()),
            }
    return totals
