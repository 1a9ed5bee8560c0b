import random
from itertools import product

import numpy as np
import pytest

from gl2borel import exactfield as xf
from gl2borel import principalseries as ps
from gl2borel.exactfield import Field
from gl2borel.fqweights import (
    TorusCharacter,
    Weight,
    all_stable_subspaces,
    commutant_dimension,
    induce_from_iwahori,
    intertwiner_dimension,
    is_irreducible,
    primitive_root,
    restrict_module,
    standard_k_residue_gens,
)
from gl2borel.padicmat import Mat2, diag, lower_u, s_mat, upper_u


def test_weight_parameter_validation():
    with pytest.raises(ValueError):
        Weight(3, 3, 0)
    with pytest.raises(ValueError):
        Weight(3, 1, 2)
    Weight(2, 1, 0)  # m < p-1 means m = 0 at p = 2


def test_identity_and_swap():
    w = Weight(3, 1, 0)
    v = [w.field.el(1), w.field.el(2)]
    assert w.act(Mat2.identity(3), v) == v
    out = w.act(s_mat(3), [w.field.el(1), w.field.el(0)])
    assert [x.code for x in out] == [0, 1]


def test_det_character_action():
    w = Weight(5, 0, 2)
    out = w.act(diag(5, 2, 2), [w.field.one()])
    assert out[0].code == pow(4, 2, 5)


def test_not_integral_rejected():
    w = Weight(3, 1, 0)
    from fractions import Fraction
    with pytest.raises(ValueError, match="not integral"):
        w.act(upper_u(3, Fraction(1, 3)), [w.field.one(), w.field.from_int(0)])


def test_central_p_power_trivial_via_reduction():
    # p-power scalars are stripped before the weight sees them (fxk_factor);
    # unit scalars act through det^m
    w = Weight(3, 1, 1)
    v = [w.field.el(1), w.field.el(1)]
    out = w.act(diag(3, 2, 2), v)
    scalar = w.field.from_int(2 * 2) * w.field.from_int(2)  # det^m * Sym^1 scaling
    assert out == [scalar * x for x in v]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fixed_line_all_weights(p):
    """dim sigma^{I_1} = 1 with Iwahori character exponents (r+m, m)."""
    n = max(p - 1, 1)
    for r in range(p):
        for m in range(n):
            w = Weight(p, r, m)
            v0, (e1, e2) = w.i1_fixed_line()
            assert [x.code for x in v0] == [1] + [0] * r
            assert e1 == (r + m) % n
            assert e2 == m % n


@pytest.mark.parametrize("p", [2, 3, 5])
def test_k1_acts_trivially(p):
    from gl2borel.compactind import k1_check_gens
    for r in range(p):
        w = Weight(p, r, 0)
        eye = np.eye(w.dim, dtype=np.int64)
        for g in k1_check_gens(p):
            assert np.array_equal(w.action_matrix(w.reduce_k(g)), eye)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_weights_irreducible_and_distinct(p):
    n = max(p - 1, 1)
    weights = [Weight(p, r, m) for r in range(p) for m in range(n)]
    for w in weights:
        assert is_irreducible(w.k_module()).status == "irreducible"
    for i, w1 in enumerate(weights):
        for w2 in weights[i + 1:]:
            assert intertwiner_dimension(
                w1.field, w1.k_module().gens, w2.k_module().gens,
                w1.dim, w2.dim) == 0


def test_module_relations():
    for p in (2, 3, 5):
        assert Weight(p, p - 1, 0).k_module().check_relations()
        assert induce_from_iwahori(TorusCharacter.trivial(Field(p))).check_relations()


@pytest.mark.parametrize("p", [2, 3])
def test_induction_trivial_character_decomposition(p):
    """Ind_I^K(1) = trivial + Steinberg, exhaustively."""
    chi = TorusCharacter.trivial(Field(p))
    mod = induce_from_iwahori(chi)
    assert mod.dim == p + 1
    verdict = is_irreducible(mod)
    assert verdict.status == "reducible"
    subs = all_stable_subspaces(mod)
    dims = sorted(b.shape[0] for b in subs)
    assert dims == [0, 1, p, p + 1]
    st_basis = next(b for b in subs if b.shape[0] == p)
    st = restrict_module(mod, st_basis)
    assert is_irreducible(st).status == "irreducible"
    # the Steinberg piece is the inflation Sym^(p-1)
    stw = Weight(p, p - 1, 0)
    assert intertwiner_dimension(chi.field, stw.k_module().gens, st.gens,
                                 stw.dim, st.dim) == 1
    triv_basis = next(b for b in subs if b.shape[0] == 1)
    triv = restrict_module(mod, triv_basis)
    assert is_irreducible(triv).status == "irreducible"


def test_induction_dimension_all_tame():
    for p in (2, 3):
        field = Field(p)
        units = range(1, p)
        for i1 in range(max(p - 1, 1)):
            for i2 in range(max(p - 1, 1)):
                chi = TorusCharacter(field, i1, i2, 1, 1)
                assert induce_from_iwahori(chi).dim == p + 1


def test_w0_span_irreducible_for_regular_character():
    field = Field(3)
    chi = TorusCharacter(field, 1, 0, 1, 1)
    mod = induce_from_iwahori(chi)
    w0 = ps.make_phi2(chi).table
    span = mod.span_closure(w0[None, :])
    sub = restrict_module(mod, span)
    assert is_irreducible(sub).status == "irreducible"


def test_steinberg_p5_irreducible():
    st = Weight(5, 4, 0)
    assert is_irreducible(st.k_module()).status == "irreducible"


def test_reducible_witness_is_stable():
    chi = TorusCharacter.trivial(Field(3))
    mod = induce_from_iwahori(chi)
    verdict = is_irreducible(mod)
    assert verdict.status == "reducible"
    w = verdict.witness
    assert 0 < w.shape[0] < mod.dim
    closed = mod.span_closure(w)
    assert closed.shape[0] == w.shape[0]


def test_commutant_of_weight_is_scalar():
    assert commutant_dimension(Weight(3, 2, 1).k_module()) == 1


def test_torus_character_api():
    f = Field(3)
    chi = TorusCharacter(f, 1, 0, 1, 2)
    assert not chi.is_symmetric()
    assert chi.conj() == TorusCharacter(f, 0, 1, 2, 1)
    assert chi.is_det_twist() is False
    with pytest.raises(ValueError):
        TorusCharacter(f, 0, 0, 0, 1)


def test_value_upper_matches_diag_part():
    f = Field(3)
    chi = TorusCharacter(f, 1, 1, 2, 2)
    b = Mat2(3, 6, 5, 0, 2)
    assert chi.value_upper(b) == chi.value_parts(b.a.valuation, b.a.unit_residue(),
                                                 b.d.valuation, b.d.unit_residue())
    with pytest.raises(ValueError):
        chi.value_upper(lower_u(3, 1))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_value_parts_matches_power_product(p):
    """value_parts and value_codes (discrete logs) against the power product
    s1^va s2^vd ra^i1 rd^i2 of field elements, negative valuations included,
    for every character the pseries suite checks."""
    from gl2borel.clireport import _char_family

    rng = random.Random(p)
    units = range(1, p)
    cases = [(va, ra, vd, rd) for va in (-2, 0, 1) for vd in (-1, 0, 3)
             for ra, rd in ((1, 1), (p - 1, 1), (1, p - 1))]
    cases += [(rng.randint(-6, 6), rng.choice(units), rng.randint(-6, 6), rng.choice(units))
              for _ in range(30)]
    for chi in _char_family(p):
        F = chi.field
        for va, ra, vd, rd in cases:
            want = chi.s1**va * chi.s2**vd * F.from_int(ra) ** chi.i1 * F.from_int(rd) ** chi.i2
            assert chi.value_parts(va, ra, vd, rd) == want, (chi, va, ra, vd, rd)
        got = chi.value_codes(np.array(cases, dtype=np.int64).T)
        assert got.tolist() == [chi.value_parts(*c).code for c in cases]


def test_primitive_roots():
    assert primitive_root(2) == 1
    assert primitive_root(3) == 2
    assert primitive_root(5) in (2, 3)


# ---------------------------------------------------------------------------
# Ind_I^K chi against plain coset arithmetic on residue matrices
# ---------------------------------------------------------------------------

def _coset_rep(j, p):
    """The representative of the j-th coset I k: lower-u(j), or s at j = p."""
    return ((0, 1), (1, 0)) if j == p else ((1, 0), (j, 1))


def _mul_residue(A, B, p):
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(2)) % p for j in range(2))
                 for i in range(2))


def _inverse_residue(A, p):
    (a, b), (c, d) = A
    det_inv = pow((a * d - b * c) % p, -1, p)
    return tuple(tuple(x * det_inv % p for x in row) for row in ((d, -b), (-c, a)))


def reference_induced_action(chi, kbar):
    """(k . f)(rep_j) = chi(i) f(rep_j') where rep_j k = i rep_j' with i in
    the Iwahori: the matrix of kbar on Ind_I^K chi, from residues alone."""
    p, f = chi.p, chi.field
    mat = np.zeros((p + 1, p + 1), dtype=np.int64)
    for j in range(p + 1):
        w = _mul_residue(_coset_rep(j, p), kbar, p)
        c, d = w[1]
        jp = c * pow(d, -1, p) % p if d % p else p
        i = _mul_residue(w, _inverse_residue(_coset_rep(jp, p), p), p)
        mat[j, jp] = (f.from_int(i[0][0]) ** chi.i1 * f.from_int(i[1][1]) ** chi.i2).code
    return mat


def _spread_of_characters(p):
    if p == 2:
        f4 = Field(2, 2)
        return [TorusCharacter(Field(2), 0, 0, 1, 1),
                TorusCharacter(f4, 0, 0, f4.from_code(2), f4.from_code(3))]
    chars = [TorusCharacter(Field(p), i1, i2, 1 + i1 % (p - 1), 1)
             for i1, i2 in [(0, 0), (1, 0), (0, 1), (1, p - 2), (p - 2, 1)]]
    if p == 3:
        f9 = Field(3, 2)
        chars += [TorusCharacter(f9, 1, 0, f9.from_code(4), 1),
                  TorusCharacter(f9, 0, 1, 1, f9.from_code(7))]
    return chars


@pytest.mark.parametrize("p", [2, 3, 5])
def test_induction_matches_coset_reference(p):
    """Every residue matrix acts on the level-1 principal-series tables as on
    Ind_I^K chi built from cosets; so do the module's generators, and phi2 is
    the sum over lambda of u(lambda) s applied to the identity-coset function."""
    group = [((a, b), (c, d)) for a, b, c, d in product(range(p), repeat=4)
             if (a * d - b * c) % p]
    for chi in _spread_of_characters(p):
        for kbar in group:
            (a, b), (c, d) = kbar
            assert np.array_equal(ps.action_matrix(chi, Mat2(p, a, b, c, d), 1),
                                  reference_induced_action(chi, kbar)), (chi, kbar)
        gens = induce_from_iwahori(chi).gens
        for name, kbar in standard_k_residue_gens(p).items():
            assert np.array_equal(gens[name], reference_induced_action(chi, kbar)), name
        w0 = np.zeros(p + 1, dtype=np.int64)
        for lam in range(p):  # u(lam) s = [[lam, 1], [1, 0]]
            w0 = xf.add(chi.field, w0, reference_induced_action(chi, ((lam, 1), (1, 0)))[:, 0])
        assert np.array_equal(ps.make_phi2(chi).table, w0), chi
