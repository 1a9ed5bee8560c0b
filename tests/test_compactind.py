import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2borel import exactfield as xf
from gl2borel.borellab import CindModel
from gl2borel.compactind import (
    BallIndex,
    CindElement,
    HeckeIdeal,
    TruncationError,
    _hecke_blocks,
    _hecke_data,
    _ideal_column,
    _integer_form,
    _leading_solver,
    _parent,
    _translate,
    act,
    ball_vertices,
    hecke_T,
    i1_fixed_ball,
    i1_generators,
    ideal_matrix,
    normal_form_rows,
    one_mod_p_unit_gens,
    phi_element,
    quotient_membership,
)
from gl2borel.exactfield import Field, kernel_codes
from gl2borel.fqweights import Weight
from gl2borel.padicmat import (
    Mat2,
    TreeVertex,
    diag,
    fxk_factor,
    lower_u,
    pi_mat,
    random_group_word,
    s_mat,
    t_mat,
    upper_u,
    vertex_normalize,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ball_enumeration_counts(p):
    for R in range(4):
        vs = ball_vertices(p, R)
        # the sphere of radius n > 0 has (p + 1) p^(n - 1) vertices
        assert len(vs) == 1 + sum((p + 1) * p ** (n - 1) for n in range(1, R + 1))
        assert len(set(vs)) == len(vs)
        assert all(v.distance() <= R for v in vs)


def test_phi_and_basic_action():
    p = 3
    w = Weight(p, 1, 0)
    phi = phi_element(w)
    assert phi.radius() == 0
    assert act(Mat2.identity(p), phi) == phi
    # central p-powers act trivially
    assert act(diag(p, p, p), phi) == phi
    assert act(diag(p, p * p, p * p), phi) == phi
    # K stabilizes the base coset and acts through the weight
    kphi = act(s_mat(p), phi)
    (vert, coeffs), = kphi.support.items()
    assert vert.distance() == 0
    assert coeffs == (0, 1)  # x -> y under the swap


def test_action_composition_random():
    p = 3
    w = Weight(p, 1, 1)
    phi = phi_element(w)
    rng = random.Random(4)
    f = act(upper_u(p, 1) * t_mat(p), phi) + phi.scale(2)
    for _ in range(60):
        g1 = random_group_word(p, rng, 4)
        g2 = random_group_word(p, rng, 4)
        assert act(g1, act(g2, f)) == act(g1 * g2, f)


@pytest.mark.parametrize("p", [2, 3])
def test_lemma_T_noncharacter(p):
    w = Weight(p, 1, 0)
    phi = phi_element(w)
    tphi = hecke_T(phi)
    direct = CindElement(w)
    for lam in range(p):
        direct = direct + act(upper_u(p, lam) * t_mat(p), phi)
    assert tphi == direct
    assert tphi.radius() == 1
    assert all(v.distance() == 1 for v in tphi.support)


@pytest.mark.parametrize("p,m", [(2, 0), (3, 0), (3, 1), (5, 2)])
def test_lemma_T_character(p, m):
    """Character weights gain the translate of Pi, with the sign psi(-1)."""
    w = Weight(p, 0, m)
    phi = phi_element(w)
    tphi = hecke_T(phi)
    direct = act(pi_mat(p), phi).scale(w.field.from_int((-1) ** m))
    for lam in range(p):
        direct = direct + act(upper_u(p, lam) * t_mat(p), phi)
    assert tphi == direct
    base_terms = [v for v in tphi.support if v.distance() == 0]
    assert not base_terms and tphi.radius() == 1


def test_hecke_equivariance_100_pairs():
    p = 3
    w = Weight(p, 2, 0)
    rng = random.Random(17)
    ball = BallIndex(w, 1)
    for _ in range(100):
        g = random_group_word(p, rng, 5)
        codes = np.array([rng.randrange(w.field.size) for _ in range(ball.dim)],
                         dtype=np.int64)
        f = ball.elem(codes)
        assert hecke_T(act(g, f)) == act(g, hecke_T(f))


def test_hecke_well_defined_two_expansions():
    p = 3
    w = Weight(p, 1, 0)
    phi = phi_element(w)
    probe = act(s_mat(p), phi)
    assert hecke_T(probe, "default") == hecke_T(probe, "alt")
    rng = random.Random(3)
    ball = BallIndex(w, 1)
    for _ in range(20):
        codes = np.array([rng.randrange(3) for _ in range(ball.dim)], dtype=np.int64)
        f = ball.elem(codes)
        assert hecke_T(f, "default") == hecke_T(f, "alt")


def test_hecke_linear():
    p = 3
    w = Weight(p, 1, 0)
    phi = phi_element(w)
    f = act(t_mat(p), phi)
    assert hecke_T(phi + f.scale(2)) == hecke_T(phi) + hecke_T(f).scale(2)


def test_ideal_parse_and_apply():
    f3 = Weight(3, 1, 0).field
    t = HeckeIdeal.parse(f3, "T")
    assert t.degree == 1 and repr(t) == "T"
    t2 = HeckeIdeal.parse(f3, "T^2")
    assert t2.degree == 2
    tm = HeckeIdeal.parse(f3, "T-1")
    assert tm.coeffs[0] == f3.from_int(-1)
    with pytest.raises(ValueError):
        HeckeIdeal.parse(f3, "bogus")
    w = Weight(3, 1, 0)
    phi = phi_element(w)
    assert t2.apply(phi) == hecke_T(hecke_T(phi))
    assert tm.apply(phi) == hecke_T(phi) + phi.scale(f3.from_int(-1))


def test_membership_examples():
    p = 3
    w = Weight(p, 1, 0)
    phi = phi_element(w)
    ideal = HeckeIdeal.parse(w.field, "T")
    tphi = hecke_T(phi)

    res = quotient_membership(tphi, ideal, 1)
    assert res.status == "zero"
    assert (res.preimage - phi).is_zero()

    res = quotient_membership(phi, ideal, 2)
    assert res.status == "nonzero"
    assert res.certificate is not None
    assert res.certified_radius == 2

    ideal2 = HeckeIdeal.parse(w.field, "T^2")
    res = quotient_membership(hecke_T(tphi), ideal2, 2)
    assert res.status == "zero"


def test_membership_guards():
    w = Weight(3, 1, 0)
    phi = phi_element(w)
    ideal = HeckeIdeal.parse(w.field, "T")
    with pytest.raises(ValueError):
        quotient_membership(hecke_T(phi), ideal, 0)
    with pytest.raises(TruncationError, match="truncation too small"):
        quotient_membership(phi, ideal, 5, r_max=4)


def test_hecke_injective_at_truncation():
    """Matrix of T on balls has trivial kernel (freeness evidence), for
    every weight at p in {2,3} and radius up to 3 on the standard one."""
    for p in (2, 3):
        for r in range(p):
            for m in range(max(p - 1, 1)):
                w = Weight(p, r, m)
                ideal = HeckeIdeal.parse(w.field, "T")
                for R in range(0, 3):
                    A, _, _ = ideal_matrix(w, ideal, R)
                    assert kernel_codes(w.field, A).shape[0] == 0
    w = Weight(3, 1, 0)
    A, _, _ = ideal_matrix(w, HeckeIdeal.parse(w.field, "T"), 3)
    assert kernel_codes(w.field, A).shape[0] == 0


def test_quotient_element_equality():
    p = 3
    w = Weight(p, 1, 0)
    phi = phi_element(w)
    ideal = HeckeIdeal.parse(w.field, "T")
    model = CindModel(w, ideal)
    assert model.is_zero(hecke_T(phi))
    assert not model.is_zero(phi)
    assert model.equal(phi, phi + hecke_T(phi))


def test_i1_fixed_ball_examples():
    p = 3
    w = Weight(p, 1, 0)
    basis0 = i1_fixed_ball(w, 0)
    assert len(basis0) == 1
    phi = phi_element(w)
    # the line is phi
    lead = basis0[0]
    codes = list(lead.support.values())[0]
    nz = next(c for c in codes if c)
    assert (lead.scale(w.field.from_code(nz).inv()) - phi).is_zero()

    basis1 = i1_fixed_ball(w, 1)
    assert len(basis1) == 3
    # the sum vector T phi lies in the fixed space
    from gl2borel.exactfield import IncrementalSpan
    ball = BallIndex(w, 1)
    span = IncrementalSpan(w.field, ball.dim)
    span.add(np.stack([ball.coords(b) for b in basis1]))
    assert not np.any(span.reduce(np.stack([ball.coords(hecke_T(phi)), ball.coords(phi)])))


def test_i1_fixed_ball_quotient():
    """In c-Ind/(T) the image of the unipotent sum of phi is 0."""
    p = 3
    w = Weight(p, 1, 0)
    ideal = HeckeIdeal.parse(w.field, "T")
    phi = phi_element(w)
    total = CindElement(w)
    for lam in range(p):
        total = total + act(upper_u(p, lam) * t_mat(p), phi)
    model = CindModel(w, ideal)
    assert model.is_zero(total)
    basis = i1_fixed_ball(w, 1, ideal)
    ball = BallIndex(w, 1)
    from gl2borel.exactfield import IncrementalSpan
    # in the quotient the fixed space at radius 1 still contains phi
    assert any(not model.is_zero(b) for b in basis)


@pytest.mark.parametrize("p", [2, 3])
def test_lift_independence(p):
    """Unipotent sums over any unit-lift system agree on I1-fixed vectors."""
    w = Weight(p, 1, 0)
    phi = phi_element(w)
    rng = random.Random(p + 40)
    fixed = [phi, hecke_T(phi)] + i1_fixed_ball(w, 1)
    for f in fixed:
        base = CindElement(w)
        alt = CindElement(w)
        for lam in range(p):
            base = base + act(upper_u(p, lam) * t_mat(p), f)
            lift2 = lam + p * rng.randint(1, 4) if lam else 0
            alt = alt + act(upper_u(p, lift2) * t_mat(p), f)
        assert base == alt


def test_lift_dependence_without_fixedness():
    """The same replacement is detectable on a vector that is not I1-fixed,
    so the invariance above is not vacuous."""
    p = 3
    w = Weight(p, 1, 0)
    g = act(lower_u(p, 1), phi_element(w))  # moved off the fixed line
    base = CindElement(w)
    alt = CindElement(w)
    for lam in range(p):
        base = base + act(upper_u(p, lam) * t_mat(p), g)
        alt = alt + act(upper_u(p, lam + (p if lam else 0)) * t_mat(p), g)
    assert base != alt


def test_unit_gen_helpers():
    assert one_mod_p_unit_gens(3, 1) == []
    assert one_mod_p_unit_gens(3, 3) == [4]
    assert one_mod_p_unit_gens(2, 2) == [3]
    assert set(one_mod_p_unit_gens(2, 4)) == {15, 5}
    gens = i1_generators(3, 2)
    from gl2borel.padicmat import in_subgroup
    assert all(in_subgroup(g, "I1") for g in gens)


def test_quotient_equality_is_equivalence():
    p = 3
    w = Weight(p, 1, 0)
    phi = phi_element(w)
    ideal = HeckeIdeal.parse(w.field, "T")
    model = CindModel(w, ideal)
    a = phi
    b = phi + hecke_T(phi)
    c = phi + hecke_T(act(t_mat(p), phi)).scale(2)
    assert a != b and b != c
    assert model.equal(a, a)
    assert model.equal(a, b) and model.equal(b, a)
    assert model.equal(b, c) and model.equal(a, c)


def test_serialization():
    w = Weight(3, 1, 0)
    phi = phi_element(w)
    data = phi.serialize()
    assert data == [{"vertex": {"d": 0, "a": "0"}, "coeffs": [1, 0]}]
    assert CindElement(w).radius() == -1  # zero sentinel
    assert CindElement(w).serialize() == []


# ---------------------------------------------------------------------------
# code-tuple arithmetic against FieldElem tuples
# ---------------------------------------------------------------------------

# F3, F5, F4 and F9: over the extensions a code >= p names no prime-field residue
CODE_WEIGHTS = [Weight(3, 1, 0), Weight(5, 2, 1), Weight(2, 1, 0, Field(2, 2)),
                Weight(3, 1, 1, Field(3, 2))]


def _field_support(w, data, R):
    """{vertex: tuple of FieldElem} on the radius-R ball, zero vectors allowed."""
    verts = data.draw(st.lists(st.sampled_from(ball_vertices(w.p, R)), max_size=5, unique=True))
    code = st.integers(0, w.field.size - 1)
    return {v: tuple(w.field.from_code(data.draw(code)) for _ in range(w.dim)) for v in verts}


def _ref_clean(sup):
    return {v: t for v, t in sup.items() if any(not c.is_zero() for c in t)}


def _ref_add(a, b):
    out = dict(a)
    for v, t in b.items():
        out[v] = tuple(x + y for x, y in zip(out[v], t)) if v in out else t
    return _ref_clean(out)


def _ref_map(a, fn):
    return _ref_clean({v: tuple(fn(c) for c in t) for v, t in a.items()})


def _assert_matches(got, ref):
    """got (a CindElement) holds the FieldElem reference ref as codes, with
    no zero vector, and serializes and prints as the reference does."""
    assert got.support == {v: tuple(c.code for c in t) for v, t in ref.items()}
    assert all(type(c) is int for t in got.support.values() for c in t)
    assert all(any(t) for t in got.support.values())
    items = sorted(ref.items(), key=lambda kv: kv[0].sort_key())
    assert got.serialize() == [{"vertex": v.serialize(), "coeffs": [c.code for c in t]}
                               for v, t in items]
    assert repr(got) == (" + ".join(f"[{v}]*{list(t)}" for v, t in items) or "0")


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(CODE_WEIGHTS), st.sampled_from([1, 2]), st.data())
def test_code_arithmetic_matches_field_elements(w, R, data):
    fld = w.field
    a = _field_support(w, data, R)
    b = _field_support(w, data, R)
    # b cancels a on some of a's vertices
    for v in (data.draw(st.lists(st.sampled_from(list(a)), unique=True)) if a else []):
        b[v] = tuple(-c for c in a[v])
    x = fld.from_code(data.draw(st.integers(0, fld.size - 1)))  # 0 included
    n = data.draw(st.integers(0, fld.p - 1))  # an int scalar is a prime-field residue
    f, g = CindElement(w, a), CindElement(w, b)
    _assert_matches(f, _ref_clean(a))
    _assert_matches(f + g, _ref_add(a, b))
    _assert_matches(f - g, _ref_add(a, _ref_map(b, lambda c: -c)))
    _assert_matches(-f, _ref_map(a, lambda c: -c))
    _assert_matches(f.scale(x), _ref_map(a, lambda c: c * x))
    _assert_matches(f.scale(n), _ref_map(a, lambda c: c * n))
    assert (f - f).is_zero() and (f + g - g) == f
    assert CindElement.from_codes(w, f.support) == f
    assert CindElement.from_codes(w, {v: np.array(t) for v, t in f.support.items()}) == f
    assert f == CindElement.from_codes(w, {v: [c.code for c in t] for v, t in a.items()})


def test_translates_share_one_vertex_object():
    """A vertex reached through different products is one object, the one
    ball_vertices lists, so vertex-keyed dicts match it by identity; and
    from_codes keeps a tuple of ints as it is."""
    p = 3
    w = Weight(p, 1, 0)
    phi = phi_element(w)
    listed = {v: v for v in ball_vertices(p, 2)}
    for g in (t_mat(p), t_mat(p) * s_mat(p), t_mat(p) * upper_u(p, 1), t_mat(p) * t_mat(p)):
        images = [next(iter(act(g * k, phi).support)) for k in (s_mat(p), upper_u(p, 2))]
        assert images[0] is images[1] is listed[images[0]]
    codes = next(iter(phi.support.values()))
    assert next(iter(CindElement.from_codes(w, phi.support).support.values())) is codes


_BALL_7_SHARING = """
from gl2borel import compactind as ci
from gl2borel.padicmat import diag, lower_u, s_mat, upper_u
p = 3
ball = ci.ball_vertices(p, 7)
listed = {v: v for v in ball}
for g in (s_mat(p), upper_u(p, 1), lower_u(p, p), diag(p, 2, 1)):
    G, u = ci._integer_form(g)
    for v in ball:
        nv, _ = ci._translate_vertex(p, G, u, v.int_form())
        assert listed[nv] is nv, (g, v)
info = ci._vertex.cache_info()
assert len(ball) == 4373 and info.misses == info.currsize == len(ball), info
"""


def test_radius_7_ball_shares_vertex_objects():
    """The radius-7 ball at p=3, which the word-length-6 generation frames
    cover, fits the vertex cache: K-translates of its vertices are the very
    objects ball_vertices lists, and no entry was evicted (every miss is
    still cached).  A fresh interpreter, so that no other test has filled
    the cache."""
    proc = subprocess.run([sys.executable, "-c", _BALL_7_SHARING], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("p", [2, 3, 5])
def test_vertex_integer_form(p):
    vs = ball_vertices(p, 3)
    for v in vs:
        rep = v.rep()
        assert v.int_form() == (rep.A, rep.B, rep.L)
        a = v.a.frac
        assert v.distance() == (abs(v.d) if a == 0 else v.d - 2 * min(v.a.valuation, 0))
        built, canon = TreeVertex(p, v.d, a), TreeVertex.canonical(p, v.d, a)
        assert built == canon == v and hash(built) == hash(canon) == hash(v)
        assert built.int_form() == canon.int_form() == v.int_form()
        assert hash(v) == hash((p, v.d, v.a))
        # a non-canonical offset names the same vertex
        assert TreeVertex(p, v.d, a + Fraction(p) ** v.d) == v
    assert len({v.int_form() for v in vs}) == len(vs)


def test_spanning_error_unreachable_by_construction():
    # the default spanning sets are invertible for every legal weight
    for p in (2, 3, 5):
        for r in range(p):
            hecke_T(phi_element(Weight(p, r, 0)))


# ---------------------------------------------------------------------------
# compiled translations against the exact reference path
# ---------------------------------------------------------------------------

def _act_reference(g, f):
    """act without the translation cache or the weight's matrix cache:
    vertex_normalize, fxk_factor and the weight's action_matrix."""
    w = f.weight
    out = CindElement(w)
    for vert, coeffs in f.support.items():
        nv, kz = vertex_normalize(g * vert.rep())
        _, k = fxk_factor(kz)
        mat = w.action_matrix(w.reduce_k(k))
        codes = xf.mat_vec_codes(w.field, mat, coeffs)
        out = out + CindElement.from_codes(w, {nv: codes})
    return out


def _random_element(w, rng, R=2, size=3):
    verts = rng.sample(ball_vertices(w.p, R), size)
    return CindElement(w, {v: [w.field.from_code(rng.randrange(w.field.size))
                               for _ in range(w.dim)] for v in verts})


TRANSLATION_WEIGHTS = [Weight(2, 0, 0), Weight(2, 1, 0), Weight(3, 0, 1), Weight(3, 1, 0),
                       Weight(3, 2, 1), Weight(5, 0, 2), Weight(5, 1, 3), Weight(5, 4, 1),
                       Weight(3, 1, 1, Field(3, 2))]


@pytest.mark.parametrize("w", TRANSLATION_WEIGHTS, ids=lambda w: f"p{w.p}-{w!r}-{w.field!r}")
def test_act_matches_reference_on_random_words(w):
    rng = random.Random(f"act:{w.p}:{w.r}:{w.m}:{w.field.k}")
    for _ in range(12):
        f = _random_element(w, rng)
        g = random_group_word(w.p, rng, 6)
        h = random_group_word(w.p, rng, 4)
        assert act(g, f) == _act_reference(g, f)
        assert act(g, act(h, f)) == act(g * h, f)


def _integer_translation(g, vert, cached=True):
    """(v', residue matrix) of g rep(vert) as act computes it: the integer
    forms of g and of the vertex, multiplied, then `_translate`."""
    (A, B, C, D), u = _integer_form(g)
    P, X, S = vert.int_form()
    translate = _translate if cached else _translate.__wrapped__
    return translate(g.p, u, A * P, A * X + B * S, C * P, C * X + D * S)


def _reference_translation(g, vert):
    nv, kz = vertex_normalize(g * vert.rep())
    _, k = fxk_factor(kz)
    return nv, Weight.reduce_k(k)


def test_translation_cache_hits_equal_matrices():
    # the cache key is (p, u, N) in Python integers, so an equal but distinct
    # twin of g finds every translation that g left behind
    p = 3
    w = Weight(p, 1, 0)
    f = _random_element(w, random.Random(11))
    g = random_group_word(p, random.Random(12), 6)
    act(g, f)
    before = _translate.cache_info()
    twin = Mat2(p, *g.entries())
    assert twin == g and twin is not g
    G, u = _integer_form(twin)
    assert all(type(x) is int for x in (*G, u))
    assert act(twin, f) == act(g, f)
    after = _translate.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + 2 * len(f.support)


def test_translation_cache_stays_bounded():
    # 4146 translations with pairwise distinct integer keys fill the cache
    # to its bound and no further
    p = 3
    w = Weight(p, 1, 0)
    phi = phi_element(w)
    bound = _translate.cache_info().maxsize
    for x in range(bound + 50):
        act(upper_u(p, Fraction(x, p)), phi)
    assert _translate.cache_info().currsize == bound


@st.composite
def translation_cases(draw):
    """(g, vertex): g with entries that may be zero, negative, above 2^63, or
    carry p and other primes in the denominator; a vertex of radius <= 3."""
    p = draw(st.sampled_from([2, 3, 5]))
    num = st.one_of(st.sampled_from([0, 1, -1, p, -p]), st.integers(-2**70, 2**70))
    den = st.builds(lambda n, e: n * p**e, st.integers(1, 30), st.integers(0, 3))
    entry = st.builds(Fraction, num, den)
    a, b, c, d = draw(st.tuples(entry, entry, entry, entry).filter(
        lambda m: m[0] * m[3] != m[1] * m[2]))
    return Mat2(p, a, b, c, d), draw(st.sampled_from(ball_vertices(p, 3)))


@settings(max_examples=300, deadline=None)
@given(translation_cases())
def test_integer_translation_matches_vertex_normalize(case):
    g, vert = case
    assert _integer_translation(g, vert, cached=False) == _reference_translation(g, vert)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_canonical_vertex_equals_constructed_vertex(p):
    # `_translate` builds its result from an a that is already canonical
    for vert in ball_vertices(p, 3):
        twin = TreeVertex.canonical(p, vert.d, vert.a.frac)
        assert twin == vert and hash(twin) == hash(vert)
        assert (twin.a.frac, twin.distance(), repr(twin)) == (vert.a.frac, vert.distance(), repr(vert))


def test_unit_scalar_scales_residue_matrix():
    # 2 is a unit at p = 3: 2 g and g / 2 move every vertex as g does, and
    # multiply the residue matrix of k by 2 (2^-1 = 2 mod 3)
    p = 3
    rng = random.Random(13)
    for vert in ball_vertices(p, 2):
        g = random_group_word(p, rng, 6)
        nv, kbar = _integer_translation(g, vert)
        scaled = tuple(tuple(2 * e % p for e in row) for row in kbar)
        assert kbar != scaled
        for h in (g.scale(2), g.scale(Fraction(1, 2))):
            assert _integer_translation(h, vert) == (nv, scaled) == _reference_translation(h, vert)


def test_translation_rejects_singular_matrices():
    p = 3
    with pytest.raises(ValueError, match="singular"):
        _translate.__wrapped__(p, 1, 2, 4, 3, 6)
    with pytest.raises(ValueError, match="singular"):
        act(Mat2.from_ints(p, 1, 1, 2, 2, 4), phi_element(Weight(p, 1, 0)))


def test_residue_matrices_cached_read_only():
    w = Weight(5, 3, 2)
    kbar = ((2, 1), (4, 3))
    mat = w.residue_action(kbar)
    assert np.array_equal(mat, w.action_matrix(kbar))
    assert not mat.flags.writeable
    assert w.residue_action(((2, 1), (4, 3))) is mat
    assert len(w._residue_cache) == 1


def test_hecke_cache_keyed_by_coefficients():
    w = Weight(3, 1, 0)
    base = TreeVertex(3, 0, 0)
    t_minus_1 = HeckeIdeal.parse(w.field, "T-1")
    t_plus_2 = HeckeIdeal.parse(w.field, "T+2")
    assert t_minus_1.key == t_plus_2.key
    assert _ideal_column(w, t_minus_1, base) is _ideal_column(w, t_plus_2, base)
    assert _leading_solver(w, t_minus_1, base) is _leading_solver(w, t_plus_2, base)
    t1 = HeckeIdeal.parse(w.field, "T")
    t2 = HeckeIdeal.parse(w.field, "T^2")
    assert t1.key != t2.key
    assert _ideal_column(w, t1, base) is not _ideal_column(w, t2, base)
    assert _leading_solver(w, t1, base) is not _leading_solver(w, t2, base)


def _hecke_T_termwise(f, variant="default"):
    """T f one summand at a time: sum of a_j act(rep k_j, T phi)."""
    w = f.weight
    ks, S_inv, tphi = _hecke_data(w, variant)
    out = CindElement(w)
    for vert, coeffs in f.support.items():
        a = xf.mat_vec_codes(w.field, S_inv, coeffs)
        for j, aj in enumerate(a):
            if aj:
                out = out + act(vert.rep() * ks[j], tphi).scale(w.field.from_code(int(aj)))
    return out


@pytest.mark.parametrize("w", TRANSLATION_WEIGHTS, ids=lambda w: f"p{w.p}-{w!r}-{w.field!r}")
def test_hecke_T_matches_termwise_sum(w):
    rng = random.Random(f"hecke:{w.p}:{w.r}:{w.m}:{w.field.k}")
    for variant in ("default", "alt"):
        for _ in range(3):
            f = _random_element(w, rng)
            Tf = hecke_T(f, variant)
            assert Tf == _hecke_T_termwise(f, variant)
            assert all(any(cs) for cs in Tf.support.values())
    # cancelling summands leave no zero vector behind
    phi = phi_element(w)
    assert hecke_T(phi - phi).is_zero()


def test_hecke_blocks_cached_read_only():
    w = Weight(3, 2, 1)
    for variant in ("default", "alt"):
        for vert in ball_vertices(3, 1):
            blocks = _hecke_blocks(w, variant, vert)
            assert _hecke_blocks(w, variant, vert) is blocks
            assert w._hecke_cache[("hblock", variant, vert)] is blocks
            assert set(blocks) <= set(ball_vertices(3, 2))
            for B in blocks.values():
                assert B.shape == (w.dim, w.dim) and B.any()
                assert not B.flags.writeable
                with pytest.raises(ValueError):
                    B[0, 0] = 1


IDEAL_MATRIX_WEIGHTS = [Weight(p, r, m) for p in (2, 3, 5) for r in sorted({0, 1, p - 1})
                        for m in range(max(p - 1, 1))]


@pytest.mark.parametrize("w", IDEAL_MATRIX_WEIGHTS, ids=lambda w: f"p{w.p}-{w!r}")
def test_ideal_matrix_matches_basis_vector_columns(w):
    # column b of the block-built matrix against ideal.apply(b) for each basis
    # vector b of the inner ball; hecke_T, which ideal.apply runs, is checked
    # against the termwise sum above
    for spec in ("T", "T^2", "T-1", "T+2"):
        ideal = HeckeIdeal.parse(w.field, spec)
        for R in range(4 if w.p < 5 else 3):
            A, inner, outer = ideal_matrix(w, ideal, R)
            cols = [outer.coords(ideal.apply(b)) for b in inner.basis_elements()]
            assert np.array_equal(A, np.array(cols, dtype=np.int64).T), (spec, R)


def _dense_membership(f, ideal, R):
    """The reference: the preimage from one exact solve against the matrix
    of P(T) on the ball of radius R, or None when there is none."""
    A, inner, outer = ideal_matrix(f.weight, ideal, R)
    x, _, _ = xf.solve_codes(f.weight.field, A, outer.coords(f))
    return None if x is None else inner.elem(x)


MEMBERSHIP_WEIGHTS = ([Weight(p, r, r % (p - 1) if p > 2 else 0) for p in (2, 3, 5)
                       for r in range(p)]
                      + [Weight(2, r, 0, Field(2, 2)) for r in range(2)])


@pytest.mark.parametrize("w", MEMBERSHIP_WEIGHTS, ids=lambda w: f"p{w.p}-{w!r}-{w.field!r}")
def test_membership_matches_dense_solve(w):
    # images P(T) h, images plus a sparse error, and random elements, each
    # against the dense ball solve; P(T) is injective, so a "zero" answer's
    # preimage is the reference one entry for entry
    rng = random.Random(f"membership:{w.p}:{w.r}:{w.field.k}")
    size = w.field.size
    zeros = 0
    for spec in ("T", "T^2", "T-1", "T+2"):
        ideal = HeckeIdeal.parse(w.field, spec)
        for R in range(4 if w.p < 5 else 2):
            ball = BallIndex(w, R)
            inputs = [ball.elem([rng.randrange(size) for _ in range(ball.dim)])]
            if R >= ideal.degree:
                inner = BallIndex(w, R - ideal.degree)
                image = ideal.apply(inner.elem([rng.randrange(size) for _ in range(inner.dim)]))
                vert = rng.choice(ball.vertices)
                noise = CindElement(w, {vert: [rng.randrange(size) for _ in range(w.dim)]})
                inputs += [image, image + noise]
            for f in inputs:
                res = quotient_membership(f, ideal, R)
                ref = _dense_membership(f, ideal, R)
                assert res.status == ("nonzero" if ref is None else "zero"), (spec, R, f)
                assert res.certified_radius == R
                if ref is not None:
                    zeros += 1
                    assert res.preimage == ref, (spec, R, f)
                else:
                    assert not res.certificate.is_zero()
                    assert _dense_membership(f - res.certificate, ideal, R) is not None
    assert zeros > 0


NORMAL_FORM_WEIGHTS = ([Weight(p, r, 0) for p in (2, 3, 5) for r in sorted({1, p - 1})]
                       + [Weight(2, 1, 0, Field(2, 2))])


@pytest.mark.parametrize("w", NORMAL_FORM_WEIGHTS, ids=lambda w: f"p{w.p}-{w!r}-{w.field!r}")
def test_normal_form_matches_dense_reduction(w):
    # the sphere-by-sphere normal form against the reduction modulo the rref
    # of the ball-wide ideal matrix: both are linear with kernel the image in
    # the ball, so every set of rows has one rank under both; the normal form
    # kills images, is idempotent, and f minus it lies in the image
    field, size = w.field, w.field.size
    rng = random.Random(f"normal-form:{w.p}:{w.r}:{field.k}")
    for spec in ("T", "T^2", "T-1", "T+2"):
        ideal = HeckeIdeal.parse(field, spec)
        for R in range(4 if w.p < 5 else 3):
            ball = BallIndex(w, R)
            rows = [ball.coords(ball.elem([rng.randrange(size) for _ in range(ball.dim)]))
                    for _ in range(4)]
            if R < ideal.degree:
                M = np.array(rows)
                assert np.array_equal(normal_form_rows(ideal, ball, M), M)
                continue
            A, inner, _ = ideal_matrix(w, ideal, R - ideal.degree)
            images = [ball.coords(ideal.apply(inner.elem(
                [rng.randrange(size) for _ in range(inner.dim)]))) for _ in range(3)]
            M = np.array(images + rows + [xf.add(field, images[0], rows[0]),
                                          xf.sub(field, rows[1], images[2])])
            nf = normal_form_rows(ideal, ball, M)
            span = xf.IncrementalSpan(field, ball.dim)
            span.add(A.T)
            ref = span.reduce(M)
            for n in range(1, len(M) + 1):
                assert xf.rank_codes(field, nf[:n]) == xf.rank_codes(field, ref[:n]), (spec, R, n)
            assert not nf[:len(images)].any()
            assert np.array_equal(normal_form_rows(ideal, ball, nf), nf)
            for f, r in zip(M, nf):
                assert xf.solve_codes(field, A, xf.sub(field, f, r))[0] is not None, (spec, R)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_parent_is_the_inward_neighbour(p):
    w = Weight(p, 0, 0)
    for v in ball_vertices(p, 3)[1:]:
        up = _parent(v)
        assert up.distance() == v.distance() - 1
        assert v in _hecke_blocks(w, "default", up)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_leading_block_injective_for_every_weight(p):
    # for T the leading block at x evaluates a degree-r form at the points of
    # P^1(F_p) below x: p + 1 of them at the base vertex, p elsewhere
    for r in range(p):
        for m in range(max(p - 1, 1)):
            w = Weight(p, r, m)
            ideal = HeckeIdeal.parse(w.field, "T")
            for x in (TreeVertex(p, 0, 0), ball_vertices(p, 2)[-1]):
                assert _leading_solver(w, ideal, x).rank == w.dim


def test_rank_deficient_leading_block_raises():
    w = Weight(3, 2, 0)
    base = TreeVertex(3, 0, 0)
    child, block = next(iter(_hecke_blocks(w, "default", base).items()))
    # T's column at the base vertex forged down to one neighbour, whose
    # block has rank at most one: the leading block cannot be injective
    w._hecke_cache[("hblock", "default", base)] = {child: block}
    assert xf.rank_codes(w.field, block) < w.dim
    f = CindElement(w, {child: [1, 0, 0]})
    with pytest.raises(RuntimeError, match="rank"):
        quotient_membership(f, HeckeIdeal.parse(w.field, "T"), 1)
