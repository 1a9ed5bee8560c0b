import random
from fractions import Fraction

import pytest

from gl2borel.padicmat import (
    VAL_INF,
    Mat2,
    PadicRational,
    TreeVertex,
    bruhat_side,
    canonical_mod,
    diag,
    fxk_factor,
    in_subgroup,
    iwasawa,
    lower_u,
    pi_mat,
    random_group_word,
    random_in_subgroup,
    random_scalar,
    s_mat,
    t_mat,
    tree_distance,
    unit_lift,
    upper_u,
    vertex_normalize,
)


def test_normalization_and_valuation():
    x = PadicRational(5, Fraction(10, 3))
    assert x.valuation == 1
    assert (x.frac.numerator, x.frac.denominator) == (10, 3)
    y = PadicRational(5, Fraction(3, 25))
    assert y.valuation == -2 and (y.frac.numerator, y.frac.denominator) == (3, 25)
    zero = PadicRational(5, 0)
    assert zero.valuation == VAL_INF
    assert zero.valuation > 10**9  # the sentinel sits above every integer
    assert (zero.frac.numerator, zero.frac.denominator) == (0, 1)
    frac = Fraction(3, 25)
    assert PadicRational(5, frac).frac is frac
    # the prime check is memoised; a non-prime is rejected on every call
    for _ in range(2):
        with pytest.raises(ValueError, match="not prime"):
            PadicRational(4, 1)
        with pytest.raises(ValueError, match="not prime"):
            Mat2(6, 1, 0, 0, 1)


def test_unit_residues():
    x = PadicRational(5, Fraction(3, 2))
    assert x.unit_residue() == (3 * pow(2, -1, 5)) % 5
    assert PadicRational(5, 10).unit_residue() == 2
    with pytest.raises(ZeroDivisionError, match="no unit part"):
        PadicRational(5, 0).unit_residue()


def test_unit_lift():
    assert unit_lift(5, 0) == 0
    assert unit_lift(5, 3) == PadicRational(5, 3)
    inv = unit_lift(5, 3).inv()
    assert inv.valuation == 0 and inv.unit_residue() == 2  # 3*2 = 6 = 1 mod 5
    with pytest.raises(ValueError):
        unit_lift(5, 5)


def test_singular_matrix_rejected():
    with pytest.raises(ValueError, match="singular"):
        Mat2(3, 1, 2, 2, 4)


def test_iwasawa_examples():
    p = 5
    b, kk = iwasawa(t_mat(p))
    assert b == t_mat(p) and kk == Mat2.identity(p)
    b, kk = iwasawa(pi_mat(p))
    assert b == diag(p, 1, p) and kk == s_mat(p)
    assert b * kk == pi_mat(p)
    b, kk = iwasawa(s_mat(p))
    assert b == Mat2.identity(p) and kk == s_mat(p)


def test_bruhat_examples():
    p = 5
    side, b, u = bruhat_side(Mat2.identity(p))
    assert side == "PI1" and b == Mat2.identity(p) and u == Mat2.identity(p)
    side, b, u = bruhat_side(s_mat(p))
    assert side == "PsI1" and b == Mat2.identity(p) and u == Mat2.identity(p)
    side, _, _ = bruhat_side(lower_u(p, p))
    assert side == "PI1"
    side, b, u = bruhat_side(pi_mat(p))
    assert side == "PsI1" and b == diag(p, 1, p) and u == Mat2.identity(p)


def test_vertex_examples():
    p = 5
    v, kz = vertex_normalize(Mat2.identity(p))
    assert (v.d, v.a) == (0, 0) and kz == Mat2.identity(p)
    v, kz = vertex_normalize(t_mat(p))
    assert (v.d, v.a) == (1, 0) and kz == Mat2.identity(p)
    v, kz = vertex_normalize(Mat2(p, 1, Fraction(1, p), 0, 1))
    assert v.d == 0 and v.a == PadicRational(p, Fraction(1, p))
    assert kz == Mat2.identity(p)


def test_tree_distance_examples():
    p = 5
    assert tree_distance(Mat2.identity(p)) == 0
    assert tree_distance(diag(p, p * p, p)) == 1
    assert tree_distance(Mat2(p, 1, Fraction(1, p), 0, 1)) == 2


def test_canonical_mod_idempotent():
    p = 3
    rng = random.Random(0)
    for _ in range(200):
        a = random_scalar(p, rng)
        d = rng.randint(-2, 3)
        c = canonical_mod(a, d)
        assert canonical_mod(c, d) == c
        # the difference is divisible by p^d
        assert a == c or (a - c).valuation >= d


@pytest.mark.parametrize("p", [2, 3, 5])
def test_roundtrips_random(p):
    rng = random.Random(p)
    for _ in range(300):
        g = random_group_word(p, rng)
        b, kk = iwasawa(g)
        assert b * kk == g and in_subgroup(kk, "K") and in_subgroup(b, "P")
        side, bb, uu = bruhat_side(g)
        recomb = bb * uu if side == "PI1" else bb * s_mat(p) * uu
        assert recomb == g and in_subgroup(uu, "I1") and in_subgroup(bb, "P")
        v, kz = vertex_normalize(g)
        assert v.rep() * kz == g
        j, k = fxk_factor(kz)
        assert in_subgroup(k, "K")
        v2, kz2 = vertex_normalize(v.rep())
        assert v2 == v and kz2 == Mat2.identity(p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_trix_identity(p):
    rng = random.Random(100 + p)
    for _ in range(200):
        beta = random_scalar(p, rng)
        lhs = s_mat(p) * upper_u(p, beta)
        rhs = Mat2(p, -beta.inv(), 1, 0, beta) * lower_u(p, beta.inv())
        assert lhs == rhs


@pytest.mark.parametrize("p", [2, 3, 5])
def test_restp_conjugation_identity(p):
    rng = random.Random(200 + p)
    for _ in range(200):
        alpha = PadicRational(p, rng.randint(-p * p, p * p))
        beta = random_scalar(p, rng, max_exp=0) * p
        gamma = 1 + alpha * beta
        assert gamma.is_unit()
        lhs = lower_u(p, beta) * upper_u(p, alpha)
        rhs = upper_u(p, alpha / gamma) * Mat2(p, gamma.inv(), 0, beta, gamma)
        assert lhs == rhs


def test_t_conjugation():
    p = 3
    rng = random.Random(7)
    for _ in range(100):
        beta = random_scalar(p, rng)
        assert t_mat(p).inv() * lower_u(p, beta) * t_mat(p) == lower_u(p, beta * p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_subgroup_chain(p):
    rng = random.Random(300 + p)
    for _ in range(300):
        k1 = random_in_subgroup(p, rng, "K1")
        i1 = random_in_subgroup(p, rng, "I1")
        ii = random_in_subgroup(p, rng, "I")
        kk = random_in_subgroup(p, rng, "K")
        assert in_subgroup(k1, "K1") and in_subgroup(k1, "I1")
        assert in_subgroup(i1, "I1") and in_subgroup(i1, "I")
        assert in_subgroup(ii, "I") and in_subgroup(ii, "K")
        assert in_subgroup(kk, "K")


def test_membership_predicates():
    p = 3
    assert in_subgroup(upper_u(p, 1), "I1")
    assert not in_subgroup(lower_u(p, 1), "I1")
    assert in_subgroup(lower_u(p, p), "I1")
    assert in_subgroup(diag(p, 2, 1), "I") and not in_subgroup(diag(p, 2, 1), "I1")
    assert in_subgroup(diag(p, p, p), "Center")
    assert in_subgroup(upper_u(p, Fraction(1, p)), "P")
    assert not in_subgroup(upper_u(p, Fraction(1, p)), "K")
    assert in_subgroup(upper_u(p, 2), "U_upper")
    assert in_subgroup(diag(p, 1, 2), "T_diag")
    with pytest.raises(ValueError):
        in_subgroup(s_mat(p), "nonsense")


def test_serialization():
    p = 5
    g = Mat2(p, 1, Fraction(1, 5), 0, Fraction(2, 3))
    assert g.serialize() == ["1", "1/5", "0", "2/3"]
    v = TreeVertex(p, 1, 2)
    assert v.serialize() == {"d": 1, "a": "2"}


@pytest.mark.parametrize("inexact", [0.5, 1.0, "1/2", complex(1, 0), None])
def test_inexact_entries_rejected(inexact):
    with pytest.raises(TypeError, match="exact scalar"):
        PadicRational(3, inexact)
    with pytest.raises(TypeError, match="exact scalar"):
        Mat2(3, inexact, 0, 0, 1)
    with pytest.raises(TypeError, match="exact scalar"):
        Mat2.identity(3).scale(inexact)
    with pytest.raises(TypeError, match="exact scalar"):
        upper_u(3, inexact)


def test_exact_entries_accepted():
    g = Mat2(3, True, Fraction(1, 3), PadicRational(3, -2), 1)
    assert g.serialize() == ["1", "1/3", "-2", "1"]
    with pytest.raises(ValueError, match="prime mismatch"):
        Mat2(3, PadicRational(5, 1), 0, 0, 1)
