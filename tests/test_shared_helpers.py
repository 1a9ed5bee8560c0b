"""The shared constructive sums of the drivers against the sums written out
term by term, the exp/log table against brute force, and the error
contract of the coordinate solve."""

import random

import numpy as np
import pytest

from gl2borel import exactfield as xf
from gl2borel.borellab import (
    CindModel,
    PSModel,
    combine,
    default_asymmetric_character,
    k_span_module,
    torus_average,
    twisted_sum,
)
from gl2borel.compactind import HeckeIdeal
from gl2borel.exactfield import SUPPORTED_PRIMES, Field
from gl2borel.fqweights import (
    TorusCharacter,
    Weight,
    induce_from_iwahori,
    primitive_root,
    restrict_module,
)
from gl2borel.padicmat import diag, t_mat, upper_u


def _explicit_average(model, v, e1, e2):
    p, f = model.p, model.field
    out = model.zero_vector()
    for lam in range(1, p):
        for mu in range(1, p):
            c = (f.from_int(lam) ** e1 * f.from_int(mu) ** e2).inv()
            out = out + model.scale(c, model.act(diag(p, lam, mu), v))
    return out


def _explicit_twisted(model, v, j):
    # every lam in F_p, lam^j as a field power, so 0^0 = 1
    p, f = model.p, model.field
    out = model.zero_vector()
    for lam in range(p):
        out = out + model.scale(f.from_int(lam) ** j, model.act(upper_u(p, lam) * t_mat(p), v))
    return out


def _models():
    w = Weight(3, 1, 0)
    cind = CindModel(w, HeckeIdeal.parse(w.field, "T"))
    rng = random.Random(7)
    yield cind, [cind.generator(), cind.random_vector(rng, radius=1)]
    for p in (2, 3, 5):  # at p = 5, unlike 2 and 3, F_p^x has elements not their own inverse
        for chi in (TorusCharacter.trivial(Field(p)), default_asymmetric_character(p)):
            model = PSModel(chi)
            yield model, [model.phi1(), model.random_vector(rng, level=2)]


CASES = list(_models())


@pytest.mark.parametrize("model,vectors", CASES, ids=[m.describe() for m, _ in CASES])
def test_sums_match_explicit_sums(model, vectors):
    p = model.p
    n = max(p - 1, 1)
    for v in vectors:
        for e1 in range(n):
            for e2 in range(n):
                avg = torus_average(model, v, (e1, e2))
                assert model.equal(avg, _explicit_average(model, v, e1, e2))
                if p == 2:
                    assert avg is v
        for j in range(p):
            assert model.equal(twisted_sum(model, v, j), _explicit_twisted(model, v, j))
        assert model.equal(twisted_sum(model, v, 0), model.hecke_sum(v))


def test_combine_skips_zero_codes():
    model = PSModel(TorusCharacter.trivial(Field(3)))
    v = model.phi1()
    assert model.is_zero(combine(model, []))
    assert model.is_zero(combine(model, [(0, v)]))
    assert model.equal(combine(model, [(0, v), (2, v), (2, v)]), v)  # 2 + 2 = 1 in F_3


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_primitive_root_and_log_match_brute_force(p):
    def order(g):
        x, e = g, 1
        while x != 1:
            x, e = x * g % p, e + 1
        return e

    g = next(g for g in range(1, p) if order(g) == p - 1)
    assert primitive_root(p) == g
    exp, log = xf.exp_log(p, (0, 1))
    for e in range(p - 1):
        a = pow(g, e, p)
        assert exp[e] == a
        assert log[a] == e


def test_restrict_module_rejects_unstable_subspace():
    mod = induce_from_iwahori(TorusCharacter.trivial(Field(3)))
    with pytest.raises(ValueError, match="subspace not stable"):
        restrict_module(mod, np.array([[1, 0, 0, 0]], dtype=np.int64))


def test_basis_coordinates_rejects_row_outside_span():
    f = Field(3)
    basis = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.int64)
    (coords,) = xf.basis_coordinates(f, basis, [np.array([[2, 1, 0]], dtype=np.int64)])
    assert coords.tolist() == [[2], [1]]
    with pytest.raises(ValueError, match="subspace not stable"):
        xf.basis_coordinates(f, basis, [np.array([[0, 0, 1]], dtype=np.int64)])


def test_k_span_module_raises_runtime_error_off_the_fixed_vectors():
    model = PSModel(TorusCharacter.trivial(Field(3)))
    v = model.random_vector(random.Random(0), level=3)
    with pytest.raises(RuntimeError):
        k_span_module(model, v)
