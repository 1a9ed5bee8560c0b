"""The pivot loop `exactfield._eliminate` against the slow reference it
replaced, and the float64 products of `exactfield._matmul` against int64.

`_eliminate_reference` is the elimination that reduced mod p after every
step: each pivot reduced the whole rewritten block and walked the columns
one at a time.  The delayed-reduction loop must return the same pivots and
row order, and digit planes congruent mod p to the reference's, entry for
entry, over every supported field: on wide matrices with runs of zero
columns, on tall ones whose pivot columns touch few rows, with a pivot
limit below the width, and in the grown-transform form CachedSolver uses.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2borel.exactfield import (
    Field,
    _codes,
    _digits,
    _eliminate,
    _mul_ops,
    _BLAS_MIN_CELLS,
    _float_exact,
    mat_mul_codes,
    mat_vec_codes,
)

ALL_FIELDS = [(p, k) for p in (2, 3, 5, 7, 11, 13) for k in (1, 2, 3, 4)]


def _eliminate_reference(field, A, stop, grow=False):
    """Gauss-Jordan elimination of the digit planes A (m, width, k) in place,
    reduced mod p at every step; returns (pivots, order)."""
    p, k = field.p, field.k
    m, width = A.shape[:2]
    order = np.arange(m)
    pivots = []
    r = 0
    for c in range(stop):
        if r == m:
            break
        nz = np.flatnonzero(A[r:, c].any(axis=1))
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
            order[[r, i]] = order[[i, r]]
        end = width
        if grow:
            end = stop + r + 1
            A[r, end - 1, 0] = 1  # digits of 1
        inv = field.inv_code(int(_codes(field, A[r, c])))
        row = A[r, c:end] @ _mul_ops(field, _digits(field, inv)) % p
        A[r, c:end] = row
        touched = A[:, c].any(axis=1)
        touched[r] = False
        rows = np.flatnonzero(touched)
        if rows.size:
            ops = _mul_ops(field, row).transpose(1, 0, 2).reshape(k, -1)
            A[rows, c:end] = (A[rows, c:end]
                              - (A[rows, c] @ ops).reshape(rows.size, -1, k)) % p
        pivots.append(c)
        r += 1
    return pivots, order


@st.composite
def _elimination_case(draw):
    """(field, digit planes, stop, grow) for one of the shapes the loop has
    fast paths for."""
    F = Field(*draw(st.sampled_from(ALL_FIELDS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["wide", "tall", "square"]))
    if shape == "wide":
        m, n = draw(st.integers(1, 8)), draw(st.integers(10, 80))
    elif shape == "tall":
        m, n = draw(st.integers(20, 150)), draw(st.integers(1, 12))
    else:
        m = n = draw(st.integers(1, 14))
    density = draw(st.sampled_from([0.04, 0.3, 1.0]))
    codes = rng.integers(1, F.size, size=(m, n)) * (rng.random((m, n)) < density)
    if shape == "wide":  # runs of zero columns
        for _ in range(draw(st.integers(1, 4))):
            start = int(rng.integers(n))
            codes[:, start:start + int(rng.integers(1, n // 2 + 1))] = 0
    if m > 1 and draw(st.booleans()):  # repeated rows, so that the rank drops
        codes[rng.integers(m, size=m // 2)] = codes[rng.integers(m, size=m // 2)]
    mode = draw(st.sampled_from(["rref", "limit", "grow"]))
    if mode == "grow":  # CachedSolver's layout: room for the grown transform
        A = np.zeros((m, n + min(m, n), F.k), dtype=np.int64)
        A[:, :n] = _digits(F, codes)
        return F, A, n, True
    stop = n if mode == "rref" else draw(st.integers(0, max(n - 1, 0)))
    return F, _digits(F, codes), stop, False


@settings(max_examples=300, deadline=None)
@given(_elimination_case())
def test_eliminate_matches_reference(case):
    F, A, stop, grow = case
    ref, new = A.copy(), A.copy()
    ref_pivots, ref_order = _eliminate_reference(F, ref, stop, grow)
    pivots, order = _eliminate(F, new, stop, grow)
    assert pivots == ref_pivots
    assert np.array_equal(order, ref_order)
    assert np.array_equal(new, ref)


def test_eliminate_every_field_on_one_shape():
    """Each of the 24 fields at least once, on a tall, rank-deficient matrix
    with a pivot limit and on its grown-transform form."""
    rng = np.random.default_rng(17)
    for p, k in ALL_FIELDS:
        F = Field(p, k)
        codes = rng.integers(0, F.size, size=(30, 9)) * (rng.random((30, 9)) < 0.5)
        codes[20:] = codes[:10]
        for stop, width in ((9, 9), (6, 9), (9, 18)):
            A = np.zeros((30, width, k), dtype=np.int64)
            A[:, :9] = _digits(F, codes)
            ref, new = A.copy(), A.copy()
            want = _eliminate_reference(F, ref, stop, grow=width == 18)
            got = _eliminate(F, new, stop, grow=width == 18)
            assert got[0] == want[0] and np.array_equal(got[1], want[1])
            assert np.array_equal(new, ref)


def test_float_products_at_the_exactness_bound():
    """The float64 rule admits an inner size n exactly while n k (p-1)^2 <
    2^53, and at p = 13, k = 4 its products equal the int64 ones.  The
    largest admitted n (about 1.6e13) cannot be allocated, so the product is
    checked at the largest size that runs quickly, with two rows of the left
    factor and one column of the right one at the largest code, every digit
    p - 1."""
    F = Field(13, 4)
    n_max = (2**53 - 1) // (4 * 12**2)
    assert _float_exact(F, n_max) and not _float_exact(F, n_max + 1)
    n = 12000
    assert 3 * n * 3 * 4**2 >= _BLAS_MIN_CELLS and _float_exact(F, n)  # the float64 path
    rng = np.random.default_rng(13)
    A = np.full((3, n), F.size - 1, dtype=np.int64)  # digits all 12
    A[1] = rng.integers(0, F.size, size=n)
    B = rng.integers(0, F.size, size=(n, 3))
    B[:, 0] = F.size - 1
    # a matrix-vector product (one column) always runs in int64
    want = np.stack([mat_vec_codes(F, A, B[:, j]) for j in range(3)], axis=1)
    assert np.array_equal(mat_mul_codes(F, A, B), want)
