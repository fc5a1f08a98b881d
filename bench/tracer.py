"""Span tracer that wraps lagneed's public functions from outside the package.

Each traced function is replaced, in every ``lagneed`` module that binds it,
by a wrapper that records a span: name, start, end, parent span and op id.
Spans stay in memory until ``dump`` writes them out.  ``summary`` folds them
into per-function call counts and self time (duration minus the time the
span's direct children cover), plus the work counts gathered by the hooks
below.  Nothing under ``src/`` is edited; ``uninstall`` restores every
binding.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import numpy as np

# (module, attribute path) of every traced function.  The list covers every
# library call the CLI ``report`` command makes, so the span of ``cli.main``
# minus its children is the CLI's own work: parsing, canonical JSON and CSV.
# A name that no longer exists is reported as absent and the run carries on.
TRACED = (
    ("special", "laguerre_fn_batch"),
    ("quadrature", "gauss_laguerre"),
    ("quadrature", "cubature_grid"),
    ("cutoffs", "make_dual_pair"),
    ("kernels", "kernel_decay_profile"),
    ("kernels", "lower_bound_check"),
    ("needlets", "build_system"),
    ("needlets", "analyze"),
    ("needlets", "synthesize"),
    ("needlets", "CoeffFn.evaluate"),
    ("spaces", "f_norm_seq"),
    ("spaces", "b_norm_seq"),
    ("spaces", "F_norm_cont"),
    ("spaces", "B_norm_cont"),
    ("spaces", "maximal_fn"),
    ("spaces", "make_test_corpus"),
    ("spaces", "equivalence_report"),
    ("cli", "main"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _laguerre_values(args, kwargs, out):
    n = int(_arg(args, kwargs, 0, "N"))
    return {"special.laguerre_fn_batch.values": (n + 1) * int(np.size(_arg(args, kwargs, 2, "x")))}


_seen_rules: set = set()


def _rule_counts(args, kwargs, out):
    key = (int(_arg(args, kwargs, 0, "n")), float(_arg(args, kwargs, 1, "alpha")))
    cold = key not in _seen_rules
    _seen_rules.add(key)
    return {"quadrature.gauss_laguerre.cold_calls": int(cold),
            "quadrature.gauss_laguerre.max_n": key[0]}


def _grid_points(args, kwargs, out):
    return {"quadrature.cubature_grid.points": int(out.n_j) ** int(out.d)}


def _table_bytes(args, kwargs, out):
    return {"needlets.table_bytes": sum(out.d * g.n_j * (out.band_degree(j) + 1) * 8
                                        for j, g in enumerate(out.grids))}


def _coeff_bytes(args, kwargs, out):
    return {"needlets.coeff_bytes": sum(int(lv.nbytes) for lv in out.levels)}


def _evaluate_points(args, kwargs, out):
    fn, points = args[0], _arg(args, kwargs, 1, "points")
    return {"needlets.CoeffFn.evaluate.points": int(np.size(points)) // fn.d}


# Work counts per traced name: the hook and the counts it yields.  Counts
# containing ``max_`` aggregate by max, all others by sum.
HOOKS = {
    "special.laguerre_fn_batch": (_laguerre_values, ("special.laguerre_fn_batch.values",)),
    "quadrature.gauss_laguerre": (_rule_counts, ("quadrature.gauss_laguerre.cold_calls",
                                                 "quadrature.gauss_laguerre.max_n")),
    "quadrature.cubature_grid": (_grid_points, ("quadrature.cubature_grid.points",)),
    "needlets.build_system": (_table_bytes, ("needlets.table_bytes",)),
    "needlets.analyze": (_coeff_bytes, ("needlets.coeff_bytes",)),
    "needlets.CoeffFn.evaluate": (_evaluate_points, ("needlets.CoeffFn.evaluate.points",)),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op = None
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self.traced: list[str] = []
        self.broken: set[str] = set()
        self._patches: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of the given name."""
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self.stack.pop()

    def _count(self, name: str, args, kwargs, out) -> None:
        if name not in HOOKS or name in self.broken:
            return
        try:
            found = HOOKS[name][0](args, kwargs, out)
        except (AttributeError, KeyError, IndexError, TypeError):
            self.broken.add(name)  # the function's signature or result changed
            return
        for key, val in found.items():
            old = self.counts.get(key, 0)
            self.counts[key] = max(old, val) if "max_" in key else old + val

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            out = self.span(name, fn, *args, **kwargs)
            self._count(name, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every name in TRACED wherever a lagneed module binds it."""
        found = []
        for mod_name, path in TRACED:
            name = f"{mod_name}.{path}"
            owner_name, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(f"lagneed.{mod_name}")
            except ImportError:
                owner = None
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            orig = getattr(owner, attr, None)
            if callable(orig):
                found.append((name, owner if owner_name else None, attr, orig))
            else:
                self.absent.append(name)
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "lagneed" or key.startswith("lagneed."))]
        for name, cls, attr, orig in found:
            wrapped = self._wrap(name, orig)
            self.traced.append(name)
            if cls is not None:  # a method: patch it on its class
                self._patches.append((cls, attr, orig))
                setattr(cls, attr, wrapped)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def summary(self) -> dict:
        """Calls and self time per traced name, plus the hook counts."""
        out = {}
        for name in self.traced:
            out[f"{name}.calls"], out[f"{name}.self_s"] = 0, 0.0
            if name in HOOKS and name not in self.broken:
                out.update({key: self.counts.get(key, 0) for key in HOOKS[name][1]})
        covered = [0.0] * len(self.spans)
        for idx in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent, _ = self.spans[idx]
            dur = end - start
            if parent is not None:
                covered[parent] += dur
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + dur - covered[idx]
        return out

    def dump(self, path) -> None:
        rows = [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
