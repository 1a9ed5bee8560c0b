"""Spans and counters around the program's public functions, installed from
outside the package for a traced pass.

Each wrapped function records a span (name, start, end, parent span) in
flat in-memory arrays; the hottest scalar entry points only count calls.
A wrapper replaces the original in every gl2borel namespace that binds it,
including names imported with ``from module import name``.  After the pass
``layer_metrics`` turns the spans into calls and self time per function.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (module, attribute path) of functions timed with spans
SPANNED = [
    ("padicmat", "iwasawa"), ("padicmat", "bruhat_side"),
    ("padicmat", "vertex_normalize"), ("padicmat", "in_subgroup"),
    ("principalseries", "ps_act"), ("principalseries", "evaluate"),
    ("principalseries", "action_matrix"), ("principalseries", "i1_invariants"),
    ("principalseries", "PSFunction.refine"),
    ("compactind", "act"), ("compactind", "hecke_T"), ("compactind", "ideal_matrix"),
    ("compactind", "quotient_membership"), ("compactind", "i1_fixed_ball"),
    ("fqweights", "Weight.act"), ("fqweights", "is_irreducible"),
    ("exactfield", "CachedSolver.__init__"), ("exactfield", "IncrementalSpan.add"),
    ("exactfield", "rref"), ("exactfield", "kernel_codes"), ("exactfield", "solve_codes"),
    ("exactfield", "mat_vec_codes"), ("exactfield", "mat_mul_codes"),
    ("borellab", "prop_give"), ("borellab", "k_span_module"), ("borellab", "compress"),
    ("borellab", "span_closure"), ("borellab", "solve_fixed_in_span"),
    ("borellab", "recursion"), ("borellab", "hom_case_princ_endo"),
    ("clireport", "run_command"),
]

# (module, attribute path) of functions that only count calls
COUNTED = [
    ("padicmat", "PadicRational.__init__"), ("padicmat", "Mat2.__mul__"),
    ("exactfield", "is_prime"), ("exactfield", "Field.mul_codes"),
    ("exactfield", "CachedSolver.solve"), ("fqweights", "Weight.action_matrix"),
    ("fqweights", "TorusCharacter.value_upper"),
]


RENAMED = {"PadicRational.__init__": "PadicRational.new", "Mat2.__mul__": "Mat2.mul",
           "CachedSolver.__init__": "CachedSolver"}


def metric_name(module: str, path: str) -> str:
    return f"{module}.{RENAMED.get(path, path)}"


class Tracer:
    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.stack = [-1]
        self.counts = {}
        # extra per-layer observations
        self.ps_keys = set()
        self.ps_calls = 0
        self.act_pairs = 0
        self.act_keys = set()
        self.qm_calls = 0
        self.qm_rechecks = 0
        self.elim_cells = 0
        self.max_cells = 0
        self._originals = []

    # -- wrappers ------------------------------------------------------------
    def spanned(self, name, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        start, end, name_id, parent, stack = (
            self.start, self.end, self.name_id, self.parent, self.stack)
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    def counted(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapped(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    # -- observations on arguments and results -------------------------------
    def _after_ps_act(self, args, kwargs, out):
        g, f = args
        self.ps_calls += 1
        self.ps_keys.add((g, f.chi, f.level))

    def _after_act(self, args, kwargs, out):
        g, f = args
        self.act_pairs += len(f.support)
        for v in f.support:
            self.act_keys.add((g, v))

    def _after_qm(self, args, kwargs, out):
        R = args[2] if len(args) > 2 else kwargs["R"]
        self.qm_calls += 1
        if out.certified_radius > R:
            self.qm_rechecks += 1

    def _after_rref(self, args, kwargs, out):
        mat = np.asarray(args[1])
        cells = mat.shape[0] * mat.shape[1]
        self.elim_cells += cells * len(out[1])
        self.max_cells = max(self.max_cells, cells)

    # -- installation ----------------------------------------------------------
    def install(self):
        import gl2borel  # noqa: F401  (loads every submodule)
        from gl2borel import borellab, clireport  # noqa: F401

        after = {"principalseries.ps_act": self._after_ps_act,
                 "compactind.act": self._after_act,
                 "compactind.quotient_membership": self._after_qm,
                 "exactfield.rref": self._after_rref}
        for kind, targets in (("span", SPANNED), ("count", COUNTED)):
            for module, path in targets:
                mod = sys.modules[f"gl2borel.{module}"]
                name = metric_name(module, path)
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[attr]
                    new = (self.spanned(name, orig) if kind == "span"
                           else self.counted(name, orig))
                    setattr(cls, attr, new)
                    self._originals.append((cls, attr, orig))
                    continue
                orig = getattr(mod, path)
                new = (self.spanned(name, orig, after.get(name)) if kind == "span"
                       else self.counted(name, orig))
                for other in [m for n, m in sys.modules.items()
                              if n == "gl2borel" or n.startswith("gl2borel.")]:
                    for key, val in list(vars(other).items()):
                        if val is orig:
                            setattr(other, key, new)
                            self._originals.append((other, key, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._originals):
            setattr(owner, attr, orig)
        self._originals.clear()

    # -- results ---------------------------------------------------------------
    def layer_metrics(self) -> dict:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        calls = np.bincount(nid, minlength=len(self.names))
        self_s = np.bincount(nid, weights=self_time, minlength=len(self.names))
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        for name, cell in self.counts.items():
            out[f"{name}.calls"] = cell[0]
        out["principalseries.ps_act.distinct_ratio"] = (
            len(self.ps_keys) / self.ps_calls if self.ps_calls else 0.0)
        out["compactind.act.pairs"] = self.act_pairs
        out["compactind.act.distinct_ratio"] = (
            len(self.act_keys) / self.act_pairs if self.act_pairs else 0.0)
        out["compactind.quotient_membership.recheck_ratio"] = (
            self.qm_rechecks / self.qm_calls if self.qm_calls else 0.0)
        out["exactfield.rref.elim_cells"] = self.elim_cells
        out["exactfield.rref.max_cells"] = self.max_cells
        out["trace.spans"] = len(self.name_id)
        return out

    def save(self, path):
        """Write the spans as flat arrays (name ids index `names`)."""
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))
