import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2borel.exactfield import (
    CachedSolver,
    Field,
    IncrementalSpan,
    _code_poly,
    _poly_code,
    _poly_mod,
    _poly_mul,
    add,
    invert_matrix_codes,
    kernel_codes,
    mat_mul_codes,
    mat_vec_codes,
    matrix_relation_kernel,
    monomial_commutant,
    monomial_fixed,
    mul,
    rank_codes,
    rref,
    solve_codes,
    sub,
)
from gl2borel.fqweights import (
    TorusCharacter,
    Weight,
    commutant_dimension,
    induce_from_iwahori,
    intertwiner_dimension,
)


def test_prime_field_examples():
    F5 = Field(5)
    assert F5.el(2).inv() == F5.el(3)
    F3 = Field(3)
    assert F3.el(2) + F3.el(2) == F3.el(1)


def test_extension_field_example():
    F4 = Field(2, 2, modulus=(1, 1, 1))  # x^2 + x + 1
    x = F4.gen()
    assert x * x == x + 1


def test_invalid_parameters():
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(17)
    with pytest.raises(ValueError):
        Field(2, 2, modulus=(0, 0, 1))  # x^2 is reducible
    with pytest.raises(ValueError):
        Field(2, 2, modulus=(1, 1))  # wrong degree


def test_division_by_zero_and_mismatch():
    F3, F5 = Field(3), Field(5)
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        F3.from_int(0).inv()
    with pytest.raises(ValueError, match="field mismatch"):
        F3.one() + F5.one()


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 4)])
def test_field_axioms_random(p, k):
    F = Field(p, k)
    rng = random.Random(p * 10 + k)
    for _ in range(1000 // k):
        a = F.from_code(rng.randrange(F.size))
        b = F.from_code(rng.randrange(F.size))
        c = F.from_code(rng.randrange(F.size))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a.inv() * a == F.one()


def test_solve_examples():
    F2 = Field(2)
    x, kern, cert = solve_codes(F2, np.eye(2, dtype=np.int64), np.array([1, 0]))
    assert cert is None
    assert x.tolist() == [1, 0]
    assert kern.shape == (0, 2)

    A, b = np.zeros((2, 2), dtype=np.int64), np.array([1, 0])
    x, kern, cert = solve_codes(F2, A, b)
    assert x is None
    assert cert is not None
    # certificate: v A = 0 and v . rhs != 0
    assert not np.any(cert @ A % 2)
    assert cert @ b % 2 == 1

    F3 = Field(3)
    x, kern, cert = solve_codes(F3, np.array([[1, 1], [2, 2]]), np.array([0, 0]))
    assert cert is None and x is not None
    assert kern.tolist() == [[1, 2]]


def test_dimension_mismatch():
    F2 = Field(2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve_codes(F2, np.array([[1], [1]]), np.array([1, 0, 1]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve_codes(F2, np.array([[1, 0]]), np.array([1, 0]))


@pytest.mark.parametrize("p", [2, 3])
def test_solver_against_enumeration(p):
    """Brute-force oracle: enumerate all vectors of F_p^3 and compare the
    full solution set with what solve_codes reports."""
    F = Field(p)
    rng = random.Random(p)
    for _ in range(25):
        A = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
        b = [rng.randrange(p) for _ in range(3)]
        truth = []
        for code in range(p**3):
            x = [(code // p**i) % p for i in range(3)]
            if all(sum(A[i][j] * x[j] for j in range(3)) % p == b[i] % p
                   for i in range(3)):
                truth.append(tuple(x))
        x, kern, v = solve_codes(F, np.array(A), np.array(b))
        if not truth:
            assert x is None
            assert all(
                sum(int(v[i]) * A[i][j] for i in range(3)) % p == 0 for j in range(3))
            assert sum(int(v[i]) * b[i] for i in range(3)) % p != 0
        else:
            assert v is None
            sol = tuple(int(e) for e in x)
            assert sol in truth
            assert len(truth) == p ** len(kern)
            # every kernel shift stays a solution
            for kv in kern:
                shifted = tuple((s + int(k)) % p for s, k in zip(sol, kv))
                assert shifted in truth


def test_cached_solver_matches_direct():
    F = Field(3)
    rng = random.Random(9)
    A = np.array([[rng.randrange(3) for _ in range(4)] for _ in range(6)],
                 dtype=np.int64)
    solver = CachedSolver(F, A)
    for _ in range(50):
        b = np.array([rng.randrange(3) for _ in range(6)], dtype=np.int64)
        x1, cert1 = solver.solve(b)
        x2, _, cert2 = solve_codes(F, A, b)
        assert (x1 is None) == (x2 is None)
        if x1 is not None:
            assert np.array_equal((A @ x1) % 3, b % 3)
        else:
            assert np.all((cert1 @ A) % 3 == 0) and (cert1 @ b) % 3 != 0


def test_incremental_span():
    F = Field(5)
    span = IncrementalSpan(F, 4)
    assert span.add([[1, 2, 0, 0], [2, 4, 0, 0], [0, 0, 1, 1]]) == [0, 2]
    assert span.add([[0, 0, 3, 3], [1, 2, 1, 1]]) == []
    assert span.add([[0, 0, 0, 0], [0, 0, 0, 1]]) == [1]
    assert len(span.leads) == 3
    assert not np.any(span.reduce([[3, 1, 2, 2]]))
    assert np.any(span.reduce([[0, 1, 0, 0]]))


def test_matrix_relation_kernel_commutant():
    # the commutant of a cyclic permutation plus a diagonal with distinct
    # entries (1, 2, 3 in F5; 1, x, x + 1 in F4) is scalar.  On the orbit
    # path the diagonal pairs form one admissible orbit and the two
    # off-diagonal orbits are forced to zero by the diagonal's labels.
    P = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=np.int64)
    D = np.diag([1, 2, 3]).astype(np.int64)
    tables = [(np.array([2, 0, 1]), np.ones(3, dtype=np.int64)),
              (np.arange(3), np.array([1, 2, 3]))]
    for F in (Field(5), Field(2, 2)):
        for basis in (matrix_relation_kernel(F, [(P, P), (D, D)], 3, 3),
                      monomial_commutant(F, tables, 3)):
            assert len(basis) == 1
            M = basis[0]
            assert np.array_equal(M, mul(F, np.eye(3, dtype=np.int64), M[0, 0]))
            assert np.array_equal(mat_mul_codes(F, M, D), mat_mul_codes(F, D, M))


def _monomial_matrix(src, coef):
    """The dense map f -> coef * f[src] of a monomial table."""
    A = np.zeros((len(src), len(src)), dtype=np.int64)
    A[np.arange(len(src)), src] = coef
    return A


def _assert_orbit_fixed(F, n, tables):
    """monomial_fixed is kernel_codes of the stacked A - I, entry for entry
    and in order."""
    eye = np.eye(n, dtype=np.int64)
    stacked = np.concatenate([sub(F, _monomial_matrix(src, coef), eye) for src, coef in tables])
    fixed = monomial_fixed(F, tables, n)
    assert fixed.dtype == np.int64
    assert np.array_equal(fixed, kernel_codes(F, stacked))


def _assert_orbit_commutant(F, n, tables):
    """The orbit basis spans the commutant that matrix_relation_kernel finds
    from the dense maps, and each basis matrix commutes with each map."""
    basis = monomial_commutant(F, tables, n)
    dense = [_monomial_matrix(src, coef) for src, coef in tables]
    reference = matrix_relation_kernel(F, [(A, A) for A in dense], n, n)
    assert len(basis) == len(reference)
    R1, piv1 = rref(F, np.array([M.ravel() for M in basis]))
    R2, piv2 = rref(F, np.array([M.ravel() for M in reference]))
    assert piv1 == piv2 and np.array_equal(R1, R2)
    for M in basis:
        for A in dense:
            assert np.array_equal(mat_mul_codes(F, A, M), mat_mul_codes(F, M, A))


@st.composite
def _monomial_sets(draw):
    """1-3 random monomial maps on n <= 8 points over F3, F5, F4 or F9.  Half
    of the coefficients are 1, so orbits of pairs often have trivial labels
    (admissible) and often a label other than 1 around a cycle (zero)."""
    F = draw(st.sampled_from((Field(3), Field(5), Field(2, 2), Field(3, 2))))
    n = draw(st.integers(1, 8))
    codes = (1,) * (F.size - 1) + tuple(range(1, F.size))
    tables = [(np.array(draw(st.permutations(range(n))), dtype=np.int64),
               np.array(draw(st.lists(st.sampled_from(codes), min_size=n, max_size=n)),
                        dtype=np.int64))
              for _ in range(draw(st.integers(1, 3)))]
    return F, n, tables


@settings(max_examples=150, deadline=None)
@given(_monomial_sets())
def test_monomial_commutant_matches_relation_kernel(case):
    _assert_orbit_fixed(*case)
    _assert_orbit_commutant(*case)


@pytest.mark.parametrize("p", [2, 3])
def test_monomial_commutant_on_action_tables(p):
    from gl2borel import principalseries as ps
    from gl2borel.borellab import default_asymmetric_character
    from gl2borel.padicmat import diag, upper_u

    gens = [upper_u(p, 1)] + [diag(p, u, 1) for u in range(2, p)] + [
        diag(p, 1, u) for u in range(2, p)] + [diag(p, p, p)]
    for chi in (default_asymmetric_character(p), TorusCharacter.trivial(Field(p))):
        for level in (1, 2, 3) if p == 2 else (1, 2):
            n = p**level + p ** (level - 1)
            tables = [ps.action_table(chi, g, level) for g in gens]
            _assert_orbit_fixed(chi.field, n, tables)
            _assert_orbit_commutant(chi.field, n, tables)


def test_monomial_commutant_rejects_bad_tables():
    F = Field(5)
    with pytest.raises(ValueError, match="nonzero"):
        monomial_commutant(F, [(np.arange(3), np.array([1, 0, 2]))], 3)
    with pytest.raises(ValueError, match="permutation"):
        monomial_commutant(F, [(np.array([0, 0, 1]), np.ones(3, dtype=np.int64))], 3)
    with pytest.raises(ValueError, match="permutation"):
        monomial_commutant(F, [(np.arange(2), np.ones(2, dtype=np.int64))], 3)


def test_monomial_fixed_rejects_bad_tables():
    F = Field(5)
    for coef in ([1, 0, 2], [1, 5, 2], [1, -1, 2]):  # zero, and codes outside the field
        with pytest.raises(ValueError, match="nonzero"):
            monomial_fixed(F, [(np.arange(3), np.array(coef))], 3)
    with pytest.raises(ValueError, match="permutation"):
        monomial_fixed(F, [(np.array([0, 0, 1]), np.ones(3, dtype=np.int64))], 3)
    with pytest.raises(ValueError, match="permutation"):
        monomial_fixed(F, [(np.arange(2), np.ones(2, dtype=np.int64))], 3)
    with pytest.raises(ValueError, match="permutation"):
        monomial_fixed(F, [(np.array([0, 1, 3]), np.ones(3, dtype=np.int64))], 3)


def test_rref_determinism_and_rank():
    F = Field(3)
    A = np.array([[1, 2, 0], [0, 1, 1], [0, 0, 1]], dtype=np.int64)
    R1, p1 = rref(F, A)
    R2, p2 = rref(F, A)
    assert np.array_equal(R1, R2) and p1 == p2
    assert rank_codes(F, A) == 3
    assert kernel_codes(F, A).shape[0] == 0
    # the singular variant drops rank and gains a kernel line
    B = np.array([[1, 2, 0], [2, 1, 1], [0, 0, 1]], dtype=np.int64)  # det = -3
    assert rank_codes(F, B) == 2
    assert kernel_codes(F, B).shape[0] == 1


# ---------------------------------------------------------------------------
# the array engine against the scalar reference arithmetic
# ---------------------------------------------------------------------------

ALL_FIELDS = [(p, k) for p in (2, 3, 5, 7, 11, 13) for k in (1, 2, 3, 4)]


def _ref_mat_mul(F, A, B):
    """Entry-by-entry product with the scalar Field methods."""
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            acc = 0
            for t in range(A.shape[1]):
                acc = F.add_codes(acc, F.mul_codes(int(A[i, t]), int(B[t, j])))
            out[i, j] = acc
    return out


@pytest.mark.parametrize("p,k", ALL_FIELDS)
def test_engine_matches_scalar_reference(p, k):
    F = Field(p, k)
    rng = np.random.default_rng(p * 10 + k)
    a = rng.integers(0, F.size, size=60)
    b = rng.integers(0, F.size, size=60)
    a[:3] = [0, 1, F.size - 1]
    b[:3] = [F.size - 1, 0, 1]
    assert add(F, a, b).tolist() == [F.add_codes(int(x), int(y)) for x, y in zip(a, b)]
    assert sub(F, a, b).tolist() == [F.sub_codes(int(x), int(y)) for x, y in zip(a, b)]
    assert mul(F, a, b).tolist() == [F.mul_codes(int(x), int(y)) for x, y in zip(a, b)]
    assert sub(F, 0, a).tolist() == [F.neg_code(int(x)) for x in a]
    outer = mul(F, a[:7, None], b[None, :5])
    assert outer.tolist() == [[F.mul_codes(int(x), int(y)) for y in b[:5]] for x in a[:7]]
    A = rng.integers(0, F.size, size=(4, 6))
    B = rng.integers(0, F.size, size=(6, 3))
    assert np.array_equal(mat_mul_codes(F, A, B), _ref_mat_mul(F, A, B))
    assert np.array_equal(mat_vec_codes(F, A, B[:, 0]), _ref_mat_mul(F, A, B[:, :1])[:, 0])


@pytest.mark.parametrize("p,k", [(2, 2), (3, 3), (7, 4), (11, 3), (13, 4)])
def test_engine_products_match_sympy_galoistools(p, k):
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_mul, gf_rem, gf_strip

    F = Field(p, k)
    modulus = [int(c) for c in reversed(F.modulus)]  # galoistools: leading first

    def poly(code):
        return gf_strip([code // p**i % p for i in reversed(range(k))])

    def code(poly_big_endian):
        return sum(int(c) * p**i for i, c in enumerate(reversed(poly_big_endian)))

    rng = random.Random(p + k)
    a = [rng.randrange(F.size) for _ in range(40)]
    b = [rng.randrange(F.size) for _ in range(40)]
    want = [code(gf_rem(gf_mul(poly(x), poly(y), p, ZZ), modulus, p, ZZ)) for x, y in zip(a, b)]
    assert mul(F, a, b).tolist() == want


def _ref_poly_mul(F, a, b):
    """a b as the product of code polynomials reduced mod the modulus: the
    scalar product before the exp/log tables."""
    p = F.p
    prod = _poly_mul(_code_poly(a, p), _code_poly(b, p), p)
    return _poly_code(_poly_mod(prod, F.modulus, p), p)


@pytest.mark.parametrize("p,k", ALL_FIELDS)
def test_scalar_products_and_powers_match_polynomial_reference(p, k):
    """Field.mul_codes and pow_code (exp/log over F_{p^k}, builtin pow over
    F_p) against the polynomial product and sympy's galoistools; powers go
    through FieldElem.__pow__, with 0, 1 and negative exponents."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_mul, gf_pow_mod, gf_rem, gf_strip

    F = Field(p, k)
    q = F.size
    modulus = [int(c) for c in reversed(F.modulus)]  # galoistools: leading first

    def poly(code):
        return gf_strip([code // p**i % p for i in reversed(range(k))])

    def code(poly_big_endian):
        return sum(int(c) * p**i for i, c in enumerate(reversed(poly_big_endian)))

    rng = random.Random(100 * p + k)
    special = [0, 1, q - 1, min(p, q - 1)]
    if q <= 64:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        pairs = [(a, b) for a in special for b in special]
        pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(400)]
    for a, b in pairs:
        want = _ref_poly_mul(F, a, b)
        assert F.mul_codes(a, b) == want == code(gf_rem(gf_mul(poly(a), poly(b), p, ZZ),
                                                         modulus, p, ZZ)), (a, b)
    exponents = [0, 1, 2, 3, q - 2, q - 1, q, 2 * q + 1, 10**6 + 3]
    exponents += [-n for n in exponents if n] + [rng.randrange(-3 * q, 3 * q) for _ in range(6)]
    for a in special + [rng.randrange(q) for _ in range(12)]:
        x = F.from_code(a)
        for n in exponents:
            if a == 0 and n < 0:
                with pytest.raises(ZeroDivisionError):
                    x ** n
                continue
            # a^n = a^(n mod q - 1) by square-and-multiply of polynomials
            m = n % (q - 1) if a else n
            want, base = 1, a
            while m:
                if m & 1:
                    want = _ref_poly_mul(F, want, base)
                base, m = _ref_poly_mul(F, base, base), m >> 1
            m = n % (q - 1) if a else n
            assert (x ** n).code == want == code(gf_pow_mod(poly(a), m, modulus, p, ZZ)), (a, n)
            if n >= 0:
                assert F.pow_code(a, n) == want


def _ref_relation_kernel_dim(F, pairs, dim_in, dim_out):
    """dim {M : M A = B M}, the system built entry by entry with scalars."""
    rows = []
    for A, B in pairs:
        for i in range(dim_out):
            for j in range(dim_in):
                row = [0] * (dim_out * dim_in)
                for t in range(dim_in):
                    row[i * dim_in + t] = F.add_codes(row[i * dim_in + t], int(A[t, j]))
                for t in range(dim_out):
                    row[t * dim_in + j] = F.sub_codes(row[t * dim_in + j], int(B[i, t]))
                rows.append(row)
    return dim_out * dim_in - rank_codes(F, np.array(rows, dtype=np.int64))


@pytest.mark.parametrize("p", [2, 3])
def test_module_dimensions_match_scalar_system(p):
    fields = [Field(p), Field(p, 2)]
    weights = [Weight(p, r, m, field=F) for F in fields
               for r in range(p) for m in range(max(p - 1, 1))]
    for w in weights:
        mod = w.k_module()
        pairs = [(A, A) for A in mod.gens.values()]
        assert commutant_dimension(mod) == _ref_relation_kernel_dim(
            w.field, pairs, w.dim, w.dim) == 1
    for F in fields:
        ind = induce_from_iwahori(TorusCharacter.trivial(F))
        pairs = [(A, A) for A in ind.gens.values()]
        assert commutant_dimension(ind) == _ref_relation_kernel_dim(F, pairs, ind.dim, ind.dim)
        for w in [w for w in weights if w.field is F]:
            gens = w.k_module().gens
            pairs = [(gens[name], ind.gens[name]) for name in gens]
            assert intertwiner_dimension(F, gens, ind.gens, w.dim, ind.dim) == \
                _ref_relation_kernel_dim(F, pairs, w.dim, ind.dim)


HYPOTHESIS_FIELDS = [Field(3), Field(2, 2), Field(3, 2), Field(7, 4)]


@st.composite
def _system(draw):
    F = draw(st.sampled_from(HYPOTHESIS_FIELDS))
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    codes = st.integers(0, F.size - 1)
    # small codes often, so that rank drops and certificates appear
    entry = st.one_of(st.sampled_from([0, 0, 1]), codes)
    A = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                               min_size=m, max_size=m)), dtype=np.int64)
    b = np.array(draw(st.lists(entry, min_size=m, max_size=m)), dtype=np.int64)
    return F, A, b


@settings(max_examples=150, deadline=None)
@given(_system())
def test_rank_nullity_kernel_and_certificate(system):
    F, A, b = system
    K = kernel_codes(F, A)
    assert rank_codes(F, A) + K.shape[0] == A.shape[1]
    if K.shape[0]:
        assert not np.any(_ref_mat_mul(F, A, K.T))
    x, kern, cert = solve_codes(F, A, b)
    assert np.array_equal(kern, K)
    if cert is None:
        assert np.array_equal(_ref_mat_mul(F, A, x[:, None])[:, 0], b)
    else:
        assert x is None
        assert not np.any(_ref_mat_mul(F, cert[None, :], A))
        assert _ref_mat_mul(F, cert[None, :], b[:, None])[0, 0] != 0


# ---------------------------------------------------------------------------
# the solver's compact row transform against elimination of [A | I]
# ---------------------------------------------------------------------------

def _solver_case(F, rng, m, n, rank):
    """A random m x n code matrix of rank at most `rank` (a product of
    random m x rank and rank x n factors)."""
    left = rng.integers(0, F.size, size=(m, rank))
    right = rng.integers(0, F.size, size=(rank, n))
    if rank == 0:
        return np.zeros((m, n), dtype=np.int64)
    return mat_mul_codes(F, left, right)


SOLVER_FIELDS = [Field(3), Field(2, 2), Field(3, 2), Field(7, 4)]
SOLVER_SHAPES = [(4, 9, 4), (9, 4, 4), (6, 6, 0), (7, 7, 7), (8, 10, 5), (10, 8, 3),
                 (1, 5, 1), (5, 1, 1), (0, 3, 0), (3, 0, 0)]


def _solve_by_full_elimination(F, A, b):
    """The reference solve: eliminate [A | b | I_m] in full, read x off the
    b column, and the kernel off the A block (free columns 1, pivot columns
    minus the free column of R, leading entries scaled to 1)."""
    m, n = A.shape
    R, piv = rref(F, np.concatenate([A, b[:, None], np.eye(m, dtype=np.int64)], axis=1))
    a_piv = [c for c in piv if c < n]
    free = [c for c in range(n) if c not in a_piv]
    kern = np.zeros((len(free), n), dtype=np.int64)
    for i, f in enumerate(free):
        kern[i, f] = 1
        for ri, pc in enumerate(a_piv):
            kern[i, pc] = F.neg_code(int(R[ri, f]))
        inv = F.inv_code(int(kern[i, np.flatnonzero(kern[i])[0]]))
        kern[i] = [F.mul_codes(int(c), inv) for c in kern[i]]
    if n in piv:
        return None, kern
    x = np.zeros(n, dtype=np.int64)
    for ri, pc in enumerate(a_piv):
        x[pc] = R[ri, n]
    return x, kern


@pytest.mark.parametrize("F", SOLVER_FIELDS, ids=repr)
def test_cached_solver_matches_full_elimination(F):
    rng = np.random.default_rng(F.size)
    for m, n, rank in SOLVER_SHAPES:
        for _ in range(3):
            A = _solver_case(F, rng, m, n, rank)
            solver = CachedSolver(F, A)
            R, piv = rref(F, np.concatenate([A, np.eye(m, dtype=np.int64)], axis=1),
                          pivot_limit=n)
            assert solver.pivots == piv
            assert solver.rank == len(piv) <= rank
            assert np.array_equal(solver.R, R[:, :n])
            assert np.array_equal(solver.L, R[:, n:])
            assert np.array_equal(solver.kernel(), kernel_codes(F, A))
            if m == n:
                if solver.rank == n:
                    full, _ = rref(F, np.concatenate([A, np.eye(n, dtype=np.int64)], axis=1))
                    assert np.array_equal(invert_matrix_codes(F, A), full[:, n:])
                else:
                    with pytest.raises(ValueError, match="singular"):
                        invert_matrix_codes(F, A)
            # one consistent right-hand side (A times a vector) and one random
            for b in (mat_vec_codes(F, A, rng.integers(0, F.size, size=n)),
                      rng.integers(0, F.size, size=m)):
                x, kern, cert = solve_codes(F, A, b)
                x_ref, kern_ref = _solve_by_full_elimination(F, A, b)
                assert np.array_equal(kern, kern_ref)
                if x_ref is None:
                    assert x is None
                    assert not np.any(_ref_mat_mul(F, cert[None, :], A))
                    assert _ref_mat_mul(F, cert[None, :], b[:, None])[0, 0] != 0
                else:
                    assert cert is None and np.array_equal(x, x_ref)


class _GreedySpan:
    """The one-vector insertion that IncrementalSpan.add replaced: a row is
    reduced modulo the span, and a nonzero remainder, scaled to lead 1, is
    folded into every span row so that each lead column stays a unit vector."""

    def __init__(self, F, dim):
        self.F, self.rows, self.leads = F, np.zeros((0, dim), dtype=np.int64), []

    def reduce(self, M):
        M = np.asarray(M, dtype=np.int64)
        return sub(self.F, M, mat_mul_codes(self.F, M[:, self.leads], self.rows))

    def add(self, vec) -> bool:
        F, v = self.F, self.reduce(np.asarray(vec)[None, :])[0]
        nz = np.flatnonzero(v)
        if nz.size == 0:
            return False
        lead = int(nz[0])
        v = mul(F, v, F.inv_code(int(v[lead])))
        reduced = sub(F, self.rows, mul(F, self.rows[:, lead, None], v))
        self.rows = np.concatenate([reduced, v[None, :]])
        self.leads.append(lead)
        return True


def _assert_add_matches_greedy(F, span, ref, rows, probe):
    """Batched add into span picks the rows the greedy reference keeps, in
    order; afterwards both hold one reduced echelon basis and reduce alike."""
    assert span.add(rows) == [i for i, row in enumerate(rows) if ref.add(row)]
    assert sorted(span.leads) == sorted(ref.leads)
    assert np.array_equal(span.rows[np.argsort(span.leads)], ref.rows[np.argsort(ref.leads)])
    assert np.array_equal(span.reduce(probe), ref.reduce(probe))


def _with_zero_repeated_dependent(F, rng, rows):
    """rows plus a zero row, a repeat and a sum of two rows, shuffled."""
    m, n = rows.shape
    extra = [np.zeros((1, n), dtype=np.int64)]
    if m:
        extra += [rows[rng.integers(m)][None, :],
                  add(F, rows[rng.integers(m)], rows[rng.integers(m)])[None, :]]
    out = np.concatenate([rows] + extra)
    return out[rng.permutation(len(out))]


@pytest.mark.parametrize("F", SOLVER_FIELDS, ids=repr)
def test_incremental_span_add_matches_greedy(F):
    """Three batches into one span on every solver shape, the first as drawn
    (independent at full rank), the others with zero, repeated and dependent
    rows: the picks and the reduction of batched add are those of the
    one-vector greedy add."""
    rng = np.random.default_rng(F.size + 1)
    for m, n, rank in SOLVER_SHAPES:
        span, ref = IncrementalSpan(F, n), _GreedySpan(F, n)
        for extras in (False, True, True):
            rows = _solver_case(F, rng, m, n, rank)
            if extras:
                rows = _with_zero_repeated_dependent(F, rng, rows)
            _assert_add_matches_greedy(F, span, ref, rows, rng.integers(0, F.size, size=(4, n)))


@st.composite
def _span_batches(draw):
    F = draw(st.sampled_from(SOLVER_FIELDS))
    n = draw(st.integers(1, 10))
    entry = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(0, F.size - 1))
    row = st.lists(entry, min_size=n, max_size=n)
    batches = draw(st.lists(st.lists(row, max_size=8), min_size=1, max_size=4))
    return F, n, [np.array(b, dtype=np.int64).reshape(len(b), n) for b in batches]


@settings(max_examples=100, deadline=None)
@given(_span_batches())
def test_incremental_span_add_property(case):
    F, n, batches = case
    span, ref = IncrementalSpan(F, n), _GreedySpan(F, n)
    probe = np.eye(n, dtype=np.int64)
    for rows in batches:
        _assert_add_matches_greedy(F, span, ref, rows, probe)


def _closure_by_re_elimination(mod, rows):
    """The fixed-point loop FiniteKModule.span_closure replaced: the rref of
    the basis and all its images, until the rank stops growing."""
    F = mod.field

    def basis_of(M):
        R, piv = rref(F, M)
        return R[:len(piv)]
    basis = basis_of(rows)
    while True:
        bigger = basis_of(np.concatenate(
            [basis] + [mat_mul_codes(F, basis, A.T) for A in mod.gens.values()]))
        if len(bigger) == len(basis):
            return basis
        basis = bigger


@pytest.mark.parametrize("p", [2, 3, 5])
def test_span_closure_matches_re_elimination(p):
    """The spin-up span_closure returns the bytes of the loop that
    re-eliminated the whole basis each round, on Ind_I^K chi for every chi
    with trivial residue scalars, from unit vectors, random vectors and a
    zero row."""
    F = Field(p)
    rng = np.random.default_rng(p)
    for i1 in range(max(p - 1, 1)):
        for i2 in range(max(p - 1, 1)):
            mod = induce_from_iwahori(TorusCharacter(F, i1, i2, 1, 1))
            starts = [np.eye(mod.dim, dtype=np.int64)[[j]] for j in range(mod.dim)]
            starts += [rng.integers(0, p, size=(2, mod.dim)), np.zeros((1, mod.dim), dtype=np.int64)]
            for rows in starts:
                got, want = mod.span_closure(rows), _closure_by_re_elimination(mod, rows)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


@st.composite
def _solver_system(draw):
    F = draw(st.sampled_from(SOLVER_FIELDS))
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 8))
    entry = st.one_of(st.sampled_from([0, 0, 1]), st.integers(0, F.size - 1))
    if draw(st.booleans()):  # mostly zero, so that pivot columns touch few rows
        entry = st.one_of(st.just(0), st.just(0), st.just(0), entry)
    A = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                               min_size=m, max_size=m)), dtype=np.int64)
    bs = np.array(draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                                min_size=1, max_size=4)), dtype=np.int64)
    return F, A, bs


@settings(max_examples=100, deadline=None)
@given(_solver_system())
def test_cached_solver_transform_and_certificates(system):
    F, A, bs = system
    solver = CachedSolver(F, A)
    assert np.array_equal(_ref_mat_mul(F, solver.L, A), solver.R)
    # R is reduced: unit pivot columns, zero rows below the rank
    rank = solver.rank
    assert np.array_equal(solver.R[:, solver.pivots], np.eye(A.shape[0], rank, dtype=np.int64))
    assert not np.any(solver.R[rank:])
    # the rows below the rank span the left kernel
    assert not np.any(_ref_mat_mul(F, solver.L[solver.rank:], A))
    for b in bs:
        x, cert = solver.solve(b)
        assert (x is None) != (cert is None)
        if cert is None:
            assert np.array_equal(_ref_mat_mul(F, A, x[:, None])[:, 0], b)
        else:
            assert not np.any(_ref_mat_mul(F, cert[None, :], A))
            assert _ref_mat_mul(F, cert[None, :], b[:, None])[0, 0] != 0
