"""The integer-form Mat2 against a plain reference on Fraction 4-tuples.

The reference below is the rational arithmetic the decompositions are
defined by: products, inverses and determinants of (a, b, c, d) tuples,
valuations of Fractions, and the bottom-row case splits of the Iwasawa and
Bruhat factorisations.  Entries are drawn zero, negative, beyond 2^63, and
with p and other primes in the denominator.
"""

from fractions import Fraction
from math import inf

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gl2borel.padicmat import (
    SUBGROUP_TAGS,
    Mat2,
    PadicRational,
    bruhat_side,
    fxk_factor,
    in_subgroup,
    iwasawa,
    tree_distance,
    vertex_normalize,
)

PRIMES = (2, 3, 5, 13)
S = (Fraction(0), Fraction(1), Fraction(1), Fraction(0))

# ---------------------------------------------------------------------------
# the reference
# ---------------------------------------------------------------------------


def val(x: Fraction, p: int):
    if x == 0:
        return inf
    v, n, d = 0, x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def det(x):
    a, b, c, d = x
    return a * d - b * c


def inv(x):
    a, b, c, d = x
    t = det(x)
    return (d / t, -b / t, -c / t, a / t)


def power(x, n):
    out = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))
    for _ in range(abs(n)):
        out = mul(out, x if n > 0 else inv(x))
    return out


def in_tag(x, p, tag):
    a, b, c, d = x
    va, vb, vc, vd = (val(e, p) for e in x)
    return {
        "K": min(va, vb, vc, vd) >= 0 and val(det(x), p) == 0,
        "K1": val(a - 1, p) >= 1 and vb >= 1 and vc >= 1 and val(d - 1, p) >= 1,
        "I": va == 0 and vb >= 0 and vc >= 1 and vd == 0,
        "I1": val(a - 1, p) >= 1 and vb >= 0 and vc >= 1 and val(d - 1, p) >= 1,
        "P": c == 0 and a != 0 and d != 0,
        "T_diag": b == 0 and c == 0,
        "U_upper": c == 0 and a == 1 and d == 1,
        "Center": b == 0 and c == 0 and a == d,
    }[tag]


def lower(x):
    return (Fraction(1), Fraction(0), x, Fraction(1))


def upper(x):
    return (Fraction(1), x, Fraction(0), Fraction(1))


def ref_iwasawa(g, p):
    c, d = g[2], g[3]
    kk = lower(c / d) if val(c, p) >= val(d, p) else mul(S, upper(d / c))
    return mul(g, inv(kk)), kk


def ref_bruhat(g, p):
    c, d = g[2], g[3]
    if val(c, p) > val(d, p):
        u = lower(c / d)
        return "PI1", mul(g, inv(u)), u
    u = upper(d / c)
    return "PsI1", mul(g, inv(mul(S, u))), u


def ref_canonical(z, p, d):
    if z == 0 or val(z, p) >= d:
        return Fraction(0)
    w = val(z, p)
    u = z / Fraction(p) ** w
    span = p ** (d - w)
    return u.numerator * pow(u.denominator, -1, span) % span * Fraction(p) ** w


def ref_vertex(g, p):
    b, _ = ref_iwasawa(g, p)
    d = val(b[0] / b[3], p)
    a = ref_canonical(b[1] / b[3], p, d)
    rep = (Fraction(p) ** d, a, Fraction(0), Fraction(1))
    return (d, a), mul(inv(rep), g)


def ref_fxk(g, p):
    vdet = val(det(g), p)
    if vdet % 2:
        return None
    j = vdet // 2
    k = tuple(e * Fraction(p) ** -j for e in g)
    return (j, k) if in_tag(k, p, "K") else None


def fracs(m: Mat2):
    return tuple(e.frac for e in m.entries())


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@st.composite
def entries(draw, p):
    kind = draw(st.sampled_from(["zero", "small", "huge", "p-denominator", "mixed"]))
    if kind == "zero":
        return Fraction(0)
    if kind == "small":
        return Fraction(draw(st.integers(-2 * p * p, 2 * p * p)))
    if kind == "huge":
        n = draw(st.integers(2**63, 2**80))
        return Fraction(draw(st.sampled_from([n, -n])))
    num = draw(st.integers(-(2**70), 2**70))
    den = p ** draw(st.integers(0, 4))
    if kind == "mixed":
        den *= draw(st.sampled_from([7, 11, 17 * 19, 2**64 + 13]))
        den *= draw(st.sampled_from([1, 2, 3, 5, 13]))
    return Fraction(num, den)


@st.composite
def matrices(draw, p):
    t = tuple(draw(entries(p)) for _ in range(4))
    assume(det(t) != 0)
    return t


@st.composite
def cases(draw, n=1):
    p = draw(st.sampled_from(PRIMES))
    return (p, *(draw(matrices(p)) for _ in range(n)))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(cases(2), st.integers(-3, 3), st.one_of(st.integers(-(2**70), 2**70),
                                               st.fractions(max_denominator=10**6)))
def test_arithmetic_matches_fractions(case, n, x):
    p, g, h = case
    G, H = Mat2(p, *g), Mat2(p, *h)
    L, ints = G.integral_form()
    assert L > 0 and all(e * L == i for e, i in zip(g, ints)) and fracs(G) == g
    assert fracs(G * H) == mul(g, h)
    assert fracs(G.inv()) == inv(g)
    assert G.det().frac == det(g) and G.det_valuation() == val(det(g), p)
    assert fracs(G ** n) == power(g, n)
    if x:
        assert fracs(G.scale(x)) == tuple(e * x for e in g)
    assert G.serialize() == [str(e) for e in g]
    assert repr(G) == f"[[{g[0]}, {g[1]}], [{g[2]}, {g[3]}]]"


@settings(max_examples=300, deadline=None)
@given(cases(2))
def test_equality_and_hash_agree(case):
    p, g, h = case
    G = Mat2(p, *g)
    # the same matrix reached by other routes is the same integer form
    H = Mat2(p, *h)
    for twin in (H * Mat2(p, *inv(h)) * G, G.inv().inv(), G * H * H.inv(), G.scale(-1).scale(-1)):
        assert twin == G and hash(twin) == hash(G)
        assert twin.integral_form() == G.integral_form()
    assert (Mat2(p, *h) == G) == (h == g)
    assert Mat2(p, *(PadicRational(p, e) for e in g)) == G


@settings(max_examples=300, deadline=None)
@given(cases())
def test_membership_matches_valuations(case):
    p, g = case
    G = Mat2(p, *g)
    for tag in SUBGROUP_TAGS:
        assert in_subgroup(G, tag) == in_tag(g, p, tag), tag
    # and for matrices near the subgroups: g scaled to minimal valuation 0,
    # and the I1 / K1 patterns 1 + p x on the diagonal, p x below it
    a, b, c, d = g
    near = [fracs(G.scale(Fraction(p) ** -min(val(e, p) for e in g))),
            (1 + p * a, b, p * c, 1 + p * d), (1 + p * a, p * b, p * c, 1 + p * d)]
    for t in near:
        if det(t):
            for tag in SUBGROUP_TAGS:
                assert in_subgroup(Mat2(p, *t), tag) == in_tag(t, p, tag), (t, tag)


@settings(max_examples=300, deadline=None)
@given(cases())
def test_decompositions_match_fractions(case):
    p, g = case
    G = Mat2(p, *g)
    b, kk = iwasawa(G)
    assert (fracs(b), fracs(kk)) == ref_iwasawa(g, p)
    side, b, u = bruhat_side(G)
    ref_side, ref_b, ref_u = ref_bruhat(g, p)
    assert (side, fracs(b), fracs(u)) == (ref_side, ref_b, ref_u)
    v, kz = vertex_normalize(G)
    assert ((v.d, v.a.frac), fracs(kz)) == ref_vertex(g, p)
    ref = ref_fxk(g, p)
    if ref is None:
        with pytest.raises(ValueError, match="F\\^x K"):
            fxk_factor(G)
    else:
        j, k = fxk_factor(G)
        assert (j, fracs(k)) == ref
    assert tree_distance(G) == val(det(g), p) - 2 * min(val(e, p) for e in g)
