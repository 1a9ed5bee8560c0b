"""What the benchmark in perfbench/ reads of the package, checked from here so
that a refactor cannot silently break a traced run (`run.py --trace 1`).

perfbench/ is imported as it is and never changed: the tracer's targets
must resolve, its wrappers must install, count and come off again, and the
checks must still read matrix entries and vertex offsets as Fractions.
"""

import importlib
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gl2borel  # noqa: F401  (loads every submodule)
from gl2borel import borellab, clireport, padicmat  # noqa: F401
from gl2borel.padicmat import Mat2, TreeVertex, upper_u, vertex_normalize

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracer"), importlib.import_module("checks")
    finally:
        sys.path.remove(str(PERFBENCH))


def _resolve(module, path):
    mod = sys.modules[f"gl2borel.{module}"]
    if "." in path:
        cls_name, attr = path.split(".")
        return getattr(mod, cls_name).__dict__[attr]  # as the tracer looks it up
    return getattr(mod, path)


def test_every_traced_target_resolves(perfbench):
    tracer, _ = perfbench
    for module, path in tracer.SPANNED + tracer.COUNTED:
        assert callable(_resolve(module, path)), (module, path)


def test_tracer_counts_and_uninstalls(perfbench):
    tracer, _ = perfbench
    mul = Mat2.__dict__["__mul__"]
    tr = tracer.Tracer()
    tr.install()
    try:
        upper_u(3, 1) * upper_u(3, 2)
        padicmat.vertex_normalize(upper_u(3, Fraction(1, 3)))  # the wrapped name
        metrics = tr.layer_metrics()
    finally:
        tr.uninstall()
    assert metrics["padicmat.Mat2.mul.calls"] >= 1
    assert metrics["padicmat.vertex_normalize.calls"] == 1
    assert Mat2.__dict__["__mul__"] is mul and padicmat.vertex_normalize is vertex_normalize


def test_checks_read_entries_as_fractions(perfbench):
    _, checks = perfbench
    g = Mat2(5, Fraction(3, 25), -7, 0, 2**70)
    assert checks.fracs(g) == (Fraction(3, 25), Fraction(-7), Fraction(0), Fraction(2**70))
    v = TreeVertex(5, 2, Fraction(7, 5))
    assert v.a.frac == Fraction(7, 5)
    # the vertex check rebuilds g from rep(v) = [[p^d, a], [0, 1]] and kz
    g = Mat2(3, 5, Fraction(1, 9), 6, 2)
    assert checks.vertex(3, checks.fracs(g), vertex_normalize(g)) == []
