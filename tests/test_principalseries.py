import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2borel import exactfield as xf
from gl2borel import principalseries as ps
from gl2borel.exactfield import Field
from gl2borel.fqweights import TorusCharacter
from gl2borel.principalseries import (
    DetSplitting,
    LevelOverflowError,
    PSFunction,
    action_matrix,
    eigen_relation,
    eval_at_identity,
    evaluate,
    i1_invariants,
    level_shift,
    make_phi1,
    make_phi2,
    ps_act,
    random_ps_function,
    refine_matrix,
)
from gl2borel.padicmat import Mat2, diag, lower_u, random_group_word, s_mat, t_mat, upper_u


def ps_points(p: int, N: int) -> list:
    """Points of P^1(Z/p^N) in table order: affine then infinity branch."""
    return [("a", x) for x in range(p**N)] + [("i", y) for y in range(p ** (N - 1))]


def point_rep(p: int, point) -> Mat2:
    """The exact representative of a point: lower-u(x) at [x : 1] and
    s u(p y) at [1 : p y]."""
    kind, val = point
    if kind == "a":
        return lower_u(p, val)
    return s_mat(p) * upper_u(p, p * val)


def basis_functions(chi: TorusCharacter, N: int):
    """The level-N tables with a single 1, in point order."""
    dim = chi.p**N + chi.p ** (N - 1)
    for j in range(dim):
        table = np.zeros(dim, dtype=np.int64)
        table[j] = 1
        yield PSFunction(chi, N, table)


def in_span(span, vec) -> bool:
    return not np.any(span.reduce(np.asarray(vec)[None, :]))


def all_tame_chars(p):
    if p == 2:
        f4 = Field(2, 2)
        units = [f4.from_code(c) for c in range(1, 4)]
        return [TorusCharacter(f4, 0, 0, a, b) for a in units for b in units]
    f = Field(p)
    return [TorusCharacter(f, i1, i2, s1, s2)
            for i1 in range(p - 1) for i2 in range(p - 1)
            for s1 in range(1, p) for s2 in range(1, p)]


def test_point_tables():
    assert len(ps_points(3, 1)) == 4
    assert len(ps_points(3, 2)) == 12
    assert len(ps_points(2, 3)) == 12
    for p, N in ((3, 1), (3, 2), (2, 3)):
        pts = ps_points(p, N)
        assert [ps.point_index(p, N, pt) for pt in pts] == list(range(len(pts)))


def test_phi1_phi2_values():
    for p in (2, 3):
        for chi in all_tame_chars(p)[:4]:
            phi1 = make_phi1(chi)
            assert eval_at_identity(phi1) == chi.field.one()
            phi2 = make_phi2(chi)
            assert eval_at_identity(phi2).is_zero()
            assert not phi2.is_zero()


def test_identity_action_and_composition():
    p = 3
    chi = TorusCharacter(Field(p), 1, 0, 2, 1)
    rng = random.Random(2)
    f = random_ps_function(chi, 2, rng)
    assert ps_act(Mat2.identity(p), f) == f
    for _ in range(30):
        g1 = random_group_word(p, rng, 3)
        g2 = random_group_word(p, rng, 3)
        try:
            lhs = ps_act(g1, ps_act(g2, f))
            rhs = ps_act(g1 * g2, f)
        except LevelOverflowError:
            continue
        assert lhs == rhs


def test_central_unit_acts_trivially_for_trivial_char():
    p = 3
    chi = TorusCharacter.trivial(Field(p))
    rng = random.Random(5)
    f = random_ps_function(chi, 2, rng)
    assert ps_act(diag(p, 2, 2), f) == f


def test_evaluation_p_equivariance():
    p = 3
    chi = TorusCharacter(Field(p), 1, 1, 2, 2)
    rng = random.Random(6)
    f = random_ps_function(chi, 2, rng)
    for _ in range(30):
        b = Mat2(p, rng.randint(1, 2) * p ** rng.randint(0, 1),
                 rng.randint(0, 8), 0, rng.randint(1, 2) * p ** rng.randint(0, 1))
        assert eval_at_identity(ps_act(b, f)) == chi.value_upper(b) * eval_at_identity(f)
        g = random_group_word(p, rng, 3)
        try:
            assert evaluate(ps_act(b, f), g) == evaluate(f, g * b)
        except LevelOverflowError:
            pass


def test_level_coherence():
    p = 2
    chi = TorusCharacter.trivial(Field(p))
    rng = random.Random(7)
    f = random_ps_function(chi, 2, rng)
    g = upper_u(p, 1) * t_mat(p)
    assert ps_act(g, f.refine(3)) == ps_act(g, f).refine(4)


def test_level_overflow():
    p = 3
    chi = TorusCharacter.trivial(Field(p))
    f = make_phi1(chi)
    with pytest.raises(LevelOverflowError, match="level overflow"):
        ps_act(t_mat(p) ** 4, f)
    with pytest.raises(LevelOverflowError):
        f.refine(5)


@pytest.mark.parametrize("p", [2, 3])
def test_invariant_dimensions(p):
    for chi in all_tame_chars(p):
        assert len(i1_invariants(chi, 1)) == 2
        assert len(i1_invariants(chi, 2)) == 2


@pytest.mark.parametrize("p", [2, 3])
def test_phi1_phi2_span_invariants(p):
    chi = all_tame_chars(p)[0]
    inv = i1_invariants(chi, 1)
    from gl2borel.exactfield import IncrementalSpan
    span = IncrementalSpan(chi.field, len(inv[0].table))
    span.add(np.stack([b.table for b in inv]))
    assert in_span(span, make_phi1(chi).table)
    assert in_span(span, make_phi2(chi).table)
    # and they are independent
    span2 = IncrementalSpan(chi.field, len(inv[0].table))
    assert span2.add(np.stack([make_phi1(chi).table, make_phi2(chi).table])) == [0, 1]


@pytest.mark.parametrize("p", [2, 3])
def test_eigen_relation_value(p):
    """lambda is nonzero with zero residual; empirically it equals s2."""
    for chi in all_tame_chars(p):
        lam = eigen_relation(chi)
        assert not lam.is_zero()
        assert lam == chi.s2


def test_eigen_relation_twist_pattern():
    field = Field(3)
    base = TorusCharacter.trivial(field)
    lam0 = eigen_relation(base)
    twisted = TorusCharacter(field, 1, 1, 2, 2)  # base twisted by psi o det, psi(p) = 2
    assert eigen_relation(twisted) == field.el(2) * lam0


def test_phi1_contrast_not_proportional():
    """The unipotent sum of phi1 is not proportional to phi1 (diagnostic)."""
    p = 3
    chi = TorusCharacter.trivial(Field(p))
    phi1 = make_phi1(chi)
    w = None
    for mu in range(p):
        term = ps_act(upper_u(p, mu) * t_mat(p), phi1)
        w = term if w is None else w + term
    ref = phi1.refine(w.level)
    # proportional would force w = c*ref with c = w[i]/ref[i] at each i
    codes_w = w.table
    codes_r = ref.table
    ratios = set()
    for cw, cr in zip(codes_w, codes_r):
        if cr:
            ratios.add((int(cw) * pow(int(cr), -1, p)) % p if cr else None)
        elif cw:
            ratios.add("impossible")
    assert len(ratios) > 1


def test_split_for_det_character():
    p = 3
    field = Field(p)
    chi = TorusCharacter(field, 1, 1, 2, 2)
    spl = DetSplitting(chi)
    one = field.one()
    assert spl.project(spl.include(one, 1)) == one
    phi1, phi2 = make_phi1(chi), make_phi2(chi)
    assert spl.kappa_part(phi2) == phi2
    kp = spl.kappa_part(phi1)
    assert eval_at_identity(kp).is_zero()
    assert (kp + spl.include(spl.project(phi1), 1)) == phi1
    rng = random.Random(8)
    for _ in range(50):
        a = rng.randint(1, 2) * p ** rng.randint(0, 1)
        d = rng.randint(1, 2) * p ** rng.randint(0, 1)
        b = Mat2(p, a, rng.randint(0, 8), 0, d)
        f = random_ps_function(chi, 2, rng)
        assert spl.project(ps_act(b, f)) == spl.psi_hat(b.det()) * spl.project(f)
        # kappa is closed under the P-action
        kf = spl.kappa_part(f)
        assert eval_at_identity(ps_act(b, kf)).is_zero()
    st = spl.to_steinberg(phi2)
    assert st.chi == TorusCharacter.trivial(field)
    assert spl.from_steinberg(st) == phi2
    with pytest.raises(ValueError):
        DetSplitting(TorusCharacter(field, 1, 0, 1, 1))


def test_det_function_table_cached_read_only():
    p = 3
    field = Field(p)
    chi = TorusCharacter(field, 1, 1, 2, 2)
    spl = DetSplitting(chi)
    for level in (1, 2):
        first = spl.det_function(level).table
        again = DetSplitting(TorusCharacter(field, 1, 1, 2, 2)).det_function(level)
        assert np.array_equal(first, again.table)
        assert not first.flags.writeable
        # the table is psi(det) at each point's representative
        expected = [spl.psi_hat(point_rep(p, pt).det()).code
                    for pt in ps_points(p, level)]
        assert first.tolist() == expected


def test_steinberg_dictionary_intertwines_up_to_twist():
    p = 3
    field = Field(p)
    chi = TorusCharacter(field, 0, 0, 2, 2)
    spl = DetSplitting(chi)
    rng = random.Random(9)
    f = random_ps_function(chi, 2, rng)
    for g in (upper_u(p, 1), t_mat(p), diag(p, 2, 1)):
        lhs = spl.to_steinberg(ps_act(g, f))
        rhs = ps_act(g, spl.to_steinberg(f)).scale(spl.psi_hat(g.det()))
        assert lhs == rhs


def test_model_inconsistency_guard():
    # a degenerate hand-built function triggers the proportionality guard
    p = 3
    chi = TorusCharacter.trivial(Field(p))
    phi2 = make_phi2(chi)
    assert isinstance(phi2, PSFunction)
    # eigen_relation on the honest model never raises
    eigen_relation(chi)


def test_serialization():
    chi = TorusCharacter.trivial(Field(2))
    f = make_phi1(chi)
    data = f.serialize()
    assert data["level"] == 1
    assert data["values"] == [1, 0, 0]


# ---------------------------------------------------------------------------
# compiled action tables against the per-point reference
# ---------------------------------------------------------------------------

def reference_act(g, f):
    """The tables' reference: evaluate f at point_rep(x) * g for every point x
    of the raised level."""
    p = f.p
    new_level = f.level + level_shift(g)
    table = [evaluate(f, point_rep(p, pt) * g).code for pt in ps_points(p, new_level)]
    return PSFunction(f.chi, new_level, table)


def words_by_shift(p, rng, shift, count):
    out = []
    while len(out) < count:
        g = random_group_word(p, rng, 4)
        if level_shift(g) == shift:
            out.append(g)
    return out


def differential_chars():
    f4 = Field(2, 2)
    return [TorusCharacter(Field(3), 1, 0, 2, 1), TorusCharacter(Field(2), 0, 0, 1, 1),
            TorusCharacter(f4, 0, 0, f4.from_code(2), f4.from_code(3))]


@pytest.mark.parametrize("chi", differential_chars(), ids=["F3", "F2", "F4"])
def test_ps_act_matches_pointwise_reference(chi, monkeypatch):
    monkeypatch.setattr(ps, "N_MAX", 5)  # room for the level-3, shift-2 cases
    rng = random.Random(f"ps-act:{chi!r}")
    for level in (1, 2, 3):
        for shift in (0, 1, 2):
            for g in words_by_shift(chi.p, rng, shift, 2):
                f = random_ps_function(chi, level, rng)
                assert ps_act(g, f) == reference_act(g, f)


@pytest.mark.parametrize("chi", differential_chars(), ids=["F3", "F2", "F4"])
def test_action_matrix_stacks_basis_actions(chi):
    rng = random.Random(f"action-matrix:{chi!r}")
    for level in (1, 2):
        for g in words_by_shift(chi.p, rng, 1, 2) + [t_mat(chi.p).inv()]:
            M = action_matrix(chi, g, level)
            cols = [ps_act(g, b).table for b in basis_functions(chi, level)]
            assert M.dtype == np.int64
            assert np.array_equal(M, np.stack(cols, axis=1))


def test_action_matrix_level_overflow():
    chi = TorusCharacter.trivial(Field(3))
    with pytest.raises(LevelOverflowError, match="level overflow"):
        action_matrix(chi, t_mat(3) ** 3, 2)
    with pytest.raises(LevelOverflowError, match=f"need level {ps.N_MAX + 1} > N_max={ps.N_MAX}"):
        action_matrix(chi, t_mat(3), ps.N_MAX)
    assert action_matrix(chi, t_mat(3), ps.N_MAX - 1).shape == (108, 36)
    with pytest.raises(LevelOverflowError, match="level overflow"):
        ps.action_table(chi, t_mat(3), ps.N_MAX)
    src, coef = ps.action_table(chi, t_mat(3), ps.N_MAX - 1)
    assert src.shape == coef.shape == (108,)


def test_action_table_cache_hit_and_bound():
    p = 2
    chi = TorusCharacter.trivial(Field(p))
    f = random_ps_function(chi, 2, random.Random(10))
    g = upper_u(p, 1) * t_mat(p)
    twin = Mat2(p, g.a, g.b, g.c, g.d)
    assert twin is not g and twin == g
    first = ps_act(g, f)
    hits = ps._action_table.cache_info().hits
    assert ps_act(twin, f) == first
    assert ps._action_table.cache_info().hits == hits + 1
    assert ps._action_table(twin, chi, 2) is ps._action_table(g, chi, 2)
    # more distinct keys than the bound: the cache stays within it
    bound = ps._action_table.cache_info().maxsize
    h = random_ps_function(chi, 1, random.Random(11))
    for k in range(bound + 16):
        ps_act(upper_u(p, k), h)
    assert ps._action_table.cache_info().currsize <= bound


def test_characters_share_one_geometry_and_the_cache_is_bounded():
    """The character-free geometry of an equal (g, level) is one object for
    every character, over F_p and over its extensions; tables of different
    characters share its src, and the geometry cache stays within its bound."""
    p = 3
    g = upper_u(p, 1) * t_mat(p)
    twin = Mat2(p, g.a, g.b, g.c, g.d)
    geometry = ps._geometry(g, 2)
    assert ps._geometry(twin, 2) is geometry
    chars = [TorusCharacter(Field(p), 1, 0, 2, 1), TorusCharacter(Field(p), 0, 1, 1, 2),
             TorusCharacter(Field(p, 2), 1, 1, [0, 1], 2)]
    tables = [ps.action_table(chi, twin, 2) for chi in chars]
    assert all(src is geometry[0] for src, _ in tables)
    assert len({coef.tobytes() for _, coef in tables}) == len(chars)
    assert not any(arr.flags.writeable for arr in geometry)
    bound = ps._geometry.cache_info().maxsize
    for k in range(bound + 16):
        ps._geometry(upper_u(p, k), 1)
    assert ps._geometry.cache_info().currsize <= bound


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_i1_invariants_match_stacked_kernel(p):
    """The orbit basis of i1_invariants is kernel_codes of the stacked
    (A - I) over the I1 generators, entry for entry and in order, for every
    character the pseries suite checks."""
    from gl2borel.clireport import _char_family
    from gl2borel.compactind import i1_generators

    for chi in _char_family(p):
        for N in (1, 2, 3) if p <= 3 else (1, 2):
            dim = p**N + p ** (N - 1)
            eye = np.eye(dim, dtype=np.int64)
            stacked = np.concatenate([xf.sub(chi.field, action_matrix(chi, g, N), eye)
                                      for g in i1_generators(p, N)])
            got = np.array([f.table for f in i1_invariants(chi, N)], dtype=np.int64)
            assert np.array_equal(got.reshape(-1, dim), xf.kernel_codes(chi.field, stacked))


# ---------------------------------------------------------------------------
# the integer table compiler against the per-point coset factorisation
# ---------------------------------------------------------------------------

def reference_table(g, chi, level):
    """(src, coef) point by point: _coset_factor of rep(x) g and chi(b)."""
    p = chi.p
    src, coef = [], []
    for pt in ps_points(p, level + level_shift(g)):
        b, source = ps._coset_factor(p, point_rep(p, pt) * g, level)
        src.append(ps.point_index(p, level, source))
        coef.append(chi.value_upper(b).code)
    return src, coef


def assert_table_matches_reference(g, chi, level):
    src, coef = ps._action_table.__wrapped__(g, chi, level)
    assert (src.tolist(), coef.tolist()) == reference_table(g, chi, level)
    assert not src.flags.writeable and not coef.flags.writeable


TABLE_FIELDS = {2: [Field(2), Field(2, 2)], 3: [Field(3), Field(3, 2)], 5: [Field(5)]}


@st.composite
def table_cases(draw):
    """(g, chi, level) with g = lam * U diag(p^shift, 1) V, U and V integral
    with unit determinant, so level_shift(g) = shift; entries may be zero,
    negative, above 2^63, or carry p and other primes in the denominator."""
    p = draw(st.sampled_from([2, 3, 5]))
    field = draw(st.sampled_from(TABLE_FIELDS[p]))
    unit = st.integers(1, field.size - 1).map(field.from_code)
    chi = TorusCharacter(field, draw(st.integers(0, p - 2)), draw(st.integers(0, p - 2)),
                         draw(unit), draw(unit))
    level = draw(st.integers(1, 3))
    # p = 5 stops at raised level 4 (750 points), to bound the reference's cost
    shift = draw(st.integers(0, min(2, (4 if p == 5 else 5) - level)))
    entry = st.one_of(st.sampled_from([0, 1, -1, p, -p]), st.integers(-2**70, 2**70))
    unimodular = st.tuples(entry, entry, entry, entry).filter(
        lambda m: (m[0] * m[3] - m[1] * m[2]) % p)
    u, v = draw(unimodular), draw(unimodular)
    num = draw(st.one_of(st.sampled_from([1, -1]), st.integers(-2**70, 2**70).filter(bool)))
    den = draw(st.integers(1, 30).filter(lambda n: n % p)) * p ** draw(st.integers(0, 2))
    lam = Fraction(num, den)
    a, b, c, d = u[0] * p**shift, u[1], u[2] * p**shift, u[3]
    g = Mat2(p, lam * (a * v[0] + b * v[2]), lam * (a * v[1] + b * v[3]),
             lam * (c * v[0] + d * v[2]), lam * (c * v[1] + d * v[3]))
    assert level_shift(g) == shift
    return g, chi, level


F4 = Field(2, 2)
EDGE_CASES = [
    # c = 0 with p in a denominator; d = 0; entries above 2^63, negative
    (Mat2(2, Fraction(1, 4), 3, 0, Fraction(-5, 2)),
     TorusCharacter(F4, 0, 0, F4.from_code(2), F4.from_code(3)), 2),
    (Mat2(3, 2**64 + 1, -5, 7 * 3**2, 0), TorusCharacter(Field(3), 1, 0, 2, 1), 1),
    (Mat2(3, -(2**70), Fraction(1, 3), 3, 2**65 + 2), TorusCharacter(Field(3), 0, 1, 1, 2), 2),
    (Mat2(3, -(2**70), Fraction(2, 3), 3, 2**65 + 1), TorusCharacter(Field(3, 2), 1, 1, 2, 1), 3),
    (Mat2(5, 0, Fraction(3, 7), -25, 2**66), TorusCharacter(Field(5), 3, 2, 4, 3), 2),
    (Mat2(5, Fraction(-2, 35), 0, 0, 5), TorusCharacter(Field(5), 1, 3, 2, 2), 1),
]


@pytest.mark.parametrize("g,chi,level", EDGE_CASES, ids=repr)
def test_action_table_edge_entries(g, chi, level):
    assert level_shift(g) <= 2
    assert_table_matches_reference(g, chi, level)


@settings(max_examples=40, deadline=None)
@given(table_cases())
def test_action_table_matches_coset_factor(case):
    assert_table_matches_reference(*case)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_refine_index_matches_point_reduction(p):
    for level in (1, 2, 3):
        for to_level in range(level, 4):
            expected = [val % p**level if kind == "a" else p**level + val % p ** (level - 1)
                        for kind, val in ps_points(p, to_level)]
            idx = ps._refine_index(p, level, to_level)
            assert idx.tolist() == expected
            assert not idx.flags.writeable


@pytest.mark.parametrize("chi", differential_chars(), ids=["F3", "F2", "F4"])
def test_refine_matrix_stacks_refined_basis(chi):
    for level, to_level in ((1, 1), (1, 3), (2, 3)):
        R = refine_matrix(chi, level, to_level)
        cols = [b.refine(to_level).table for b in basis_functions(chi, level)]
        assert R.dtype == np.int64
        assert np.array_equal(R, np.stack(cols, axis=1))
    with pytest.raises(ValueError, match="cannot coarsen"):
        refine_matrix(chi, 2, 1)
    with pytest.raises(LevelOverflowError):
        refine_matrix(chi, 2, 5)
