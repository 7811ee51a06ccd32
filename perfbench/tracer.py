"""Span tracer that times the toolkit from outside.

Installing the tracer rebinds each traced public function at every module
attribute of the package that names it (``rho_toolkit.radius.is_rho_contraction``
as well as ``rho_toolkit.kernel.is_rho_contraction``), the criteria tuple of
``rho_toolkit.verify`` and the LAPACK entry points of ``numpy.linalg``.  No
source file changes, and uninstalling restores every binding.

Spans (name, start, end, parent, thread) are kept in memory on a
thread-local stack, so work in the battery's pool threads nests under the
criterion that runs it.  A layer's self time is its span's duration minus
the time its traced children cover.  ``numpy.linalg`` calls are not spans:
each one adds its call and its matrix count to the layer of the innermost
enclosing span, or to nothing outside every span.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
import time
from collections import Counter

import numpy as np

# (layer, function) pairs traced as spans, by the module that defines them.
TRACED = (
    ("cli", "main"),
    ("kernel", "is_rho_contraction"),
    ("kernel", "torus_nullspace"),
    ("kernel", "has_torus_spectrum"),
    ("radius", "radius_bisect"),
    ("radius", "shift_radius"),
    ("radius", "determinant_radius"),
    ("determinants", "kernel_det"),
    ("harnack", "nullspace_equality"),
    ("harnack", "domination_constant"),
    ("structure", "null_profile"),
    ("structure", "rotation_family_check"),
    ("shifts", "normalized_shift"),
    ("linalg", "nullspace"),
    ("verify", "run_battery"),
)
LAPACK = ("inv", "eigvalsh", "eigh", "eigvals", "svd", "det")
# the span whose arguments are recorded, to measure repeated inputs
KEYED = "shifts.normalized_shift"


def _matrices(a) -> int:
    shape = np.shape(a)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


class Tracer:
    """Records spans and LAPACK counts for one package while installed."""

    def __init__(self, package: str = "rho_toolkit"):
        self.package = package
        self.spans: list[tuple] = []  # (id, parent, name, start, end, self_s, thread)
        self.lapack: Counter = Counter()  # (layer, fn, "calls" | "matrices") -> count
        self.keys: list[tuple] = []  # arguments of each KEYED call
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == self.package
                                         or name.startswith(self.package + "."))]
        for layer, fn_name in TRACED:
            original = getattr(sys.modules[f"{self.package}.{layer}"], fn_name)
            wrapper = self._span(f"{layer}.{fn_name}", layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, wrapper)
        verify = sys.modules[f"{self.package}.verify"]
        self._rebind(verify, "CRITERIA", tuple(
            (cid, title, self._span(f"verify.{cid}", "verify", fn))
            for cid, title, fn in verify.CRITERIA))
        for fn_name in LAPACK:
            self._rebind(np.linalg, fn_name, self._counted(fn_name, getattr(np.linalg, fn_name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str, layer: str, fn):
        keys = self.keys if name == KEYED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][0] if stack else None
            frame = [next(self._ids), layer, 0.0]  # id, layer, child seconds
            if keys is not None:
                keys.append(args + tuple(sorted(kwargs.items())))
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][2] += end - start
                self.spans.append((frame[0], parent, name, start, end,
                                   end - start - frame[2], threading.get_ident()))

        return traced

    def _counted(self, fn_name: str, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            stack = self._stack()
            if stack:
                layer = stack[-1][1]
                with self._lock:
                    self.lapack[(layer, fn_name, "calls")] += 1
                    self.lapack[(layer, fn_name, "matrices")] += _matrices(a)
            return fn(a, *args, **kwargs)

        return counted

    # ------------------------------------------------------------ results

    def totals(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        out: dict[str, list] = {}
        for _, _, name, start, end, self_s, _ in self.spans:
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += self_s
        return out

    def children_of(self, parent_name: str, child_name: str) -> int:
        parents = {sid for sid, _, name, *_ in self.spans if name == parent_name}
        return sum(1 for _, parent, name, *_ in self.spans
                   if name == child_name and parent in parents)

    def write(self, path: str) -> None:
        names = sorted({s[2] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        threads = sorted({s[6] for s in self.spans})
        tindex = {t: i for i, t in enumerate(threads)}
        doc = {
            "names": names,
            "columns": ["id", "parent", "name", "start_s", "end_s", "self_s", "thread"],
            "spans": [[sid, parent, index[name], round(start, 7), round(end, 7),
                       round(self_s, 7), tindex[thread]]
                      for sid, parent, name, start, end, self_s, thread in self.spans],
            "lapack": [[layer, fn, kind, count]
                       for (layer, fn, kind), count in sorted(self.lapack.items())],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
