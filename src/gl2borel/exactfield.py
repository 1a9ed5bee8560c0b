"""Exact arithmetic in small finite fields and dense linear algebra over them.

Everything downstream (coset decompositions, Hecke operators, principal-series
tables, experiment drivers) reduces its questions to linear solves over
F_{p^k}, so this module is deliberately small, exact and deterministic:
integer codes for field elements, first-nonzero pivoting, and floating point
only where every number it holds is an integer below 2^53, so exact.

Elements of F_{p^k} = F_p[x]/(modulus) are coded as integers
c0 + c1*p + ... + c_{k-1}*p^{k-1}.  The scalar methods of Field are the
reference arithmetic.  Over F_p they are integer arithmetic mod p; over
F_{p^k} products, powers and inverses are read from the exp/log tables of
the multiplicative group (exp_log, cached on first use), so polynomial
arithmetic only finds the modulus and builds those tables.  Arrays of codes
go through one engine for every field: a code splits into its k base-p
digits, sums are digitwise mod p, and a product is an integer matrix product
with the k x k matrix of "multiply by b" on the basis 1, x, ..., x^{k-1},
built from the codes of x^e for e < 2k-1; matrix products over a prime field
skip the digit split, since there a code is its own digit.  Such a product
of n terms sums n k products of digits below p, so it is exact in float64
while n k (p-1)^2 < 2^53, and _matmul runs it there, through BLAS, when it
is large enough to pay for that.  Fixed vectors and commutants of monomial
maps come from orbits with discrete-log labels (monomial_fixed), without an
elimination.

One pivot loop, _eliminate, does every elimination, in one of two forms:
- rref: the reduced echelon form alone.  kernel_codes and rank_codes read
  it, and IncrementalSpan.add picks rows by the pivots of their transpose;
- CachedSolver: the echelon form plus the row transform L with L A = R,
  grown one column per pivot.  solve_codes is one solve and the kernel of
  one factorization, and invert_matrix_codes returns L.
It delays the reduction mod p: a step reduces only the pivot column and the
pivot row and subtracts its rank-1 update unreduced, so that an entry grows
by less than k (p-1)^2 per step, and the block is reduced once, at the end.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)


@lru_cache(maxsize=128)
def is_prime(n: int) -> bool:
    # memoised: every Mat2 and PadicRational built from entries asks about
    # its prime (products and decompositions reuse the prime they were given)
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (little-endian coefficient tuples)
# ---------------------------------------------------------------------------

def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, modulus, p):
    # modulus is monic
    a = list(a)
    dm = len(modulus) - 1
    while len(a) > dm:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(modulus):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()
    return _poly_trim(a)


def _poly_is_irreducible(modulus, p):
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(modulus) - 1
    if deg < 1 or modulus[-1] != 1:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for code in range(p**d):
            divisor = [0] * (d + 1)
            c = code
            for i in range(d):
                divisor[i] = c % p
                c //= p
            divisor[d] = 1
            if not _poly_mod(modulus, tuple(divisor), p):
                return False
    return True


def _default_modulus(p, k):
    """Lexicographically first monic irreducible of degree k over F_p."""
    if k == 1:
        return (0, 1)
    for code in range(p**k):
        cand = [0] * (k + 1)
        c = code
        for i in range(k):
            cand[i] = c % p
            c //= p
        cand[k] = 1
        if _poly_is_irreducible(tuple(cand), p):
            return tuple(cand)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# fields and elements
# ---------------------------------------------------------------------------

class Field:
    """The finite field F_{p^k}, with p prime (2..13) and 1 <= k <= 4."""

    def __init__(self, p: int, k: int = 1, modulus=None):
        if p not in SUPPORTED_PRIMES:
            raise ValueError(f"p must be a prime in {SUPPORTED_PRIMES}, got {p}")
        if not 1 <= k <= 4:
            raise ValueError(f"extension degree k must be in 1..4, got {k}")
        if modulus is None:
            modulus = _default_modulus(p, k)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if not _poly_is_irreducible(modulus, p):
            raise ValueError("modulus is not irreducible over F_p")
        self.p = p
        self.k = k
        self.modulus = modulus
        self.size = p**k
        # exp/log as lists, for scalar products, powers and inverses over
        # F_{p^k} and for the labels of monomial tables
        self._exp, self._log = (t.tolist() for t in exp_log(p, modulus))
        # array engine data: digit weights p^i, and _mul_op with
        # digits(b) @ _mul_op = the k x k matrix whose row i is digits(x^i b),
        # from the codes of x^e = exp[e log x] for e < 2k - 1 (x has code p)
        self._weights = p ** np.arange(k, dtype=np.int64)
        xpow = [1] + [self._exp[e * self._log[p] % (self.size - 1)] for e in range(1, 2 * k - 1)]
        xpow = np.array(xpow, dtype=np.int64)[:, None] // self._weights % p
        self._mul_op = xpow[np.add.outer(np.arange(k), np.arange(k))].reshape(k, k * k)

    # -- identity / compatibility ------------------------------------------
    def same_as(self, other) -> bool:
        return (
            isinstance(other, Field)
            and other.p == self.p
            and other.k == self.k
            and other.modulus == self.modulus
        )

    def __repr__(self):
        if self.k == 1:
            return f"F({self.p})"
        return f"F({self.p}^{self.k})"

    # -- element construction ----------------------------------------------
    def el(self, value) -> "FieldElem":
        """Make an element from an int residue, a code is not guessed: ints
        embed through the prime subfield; pass a coeff list for extensions."""
        if isinstance(value, FieldElem):
            if not self.same_as(value.field):
                raise ValueError("field mismatch")
            return value
        if isinstance(value, (list, tuple)):
            if len(value) > self.k:
                raise ValueError("too many coefficients")
            code = 0
            for i, c in enumerate(value):
                code += (int(c) % self.p) * self.p**i
            return FieldElem(self, code)
        return FieldElem(self, int(value) % self.p)

    def from_code(self, code: int) -> "FieldElem":
        if not 0 <= code < self.size:
            raise ValueError("code out of range")
        return FieldElem(self, code)

    def from_int(self, n: int) -> "FieldElem":
        """Embed an integer residue through the prime subfield."""
        return FieldElem(self, int(n) % self.p)

    def one(self) -> "FieldElem":
        return FieldElem(self, 1)

    def gen(self) -> "FieldElem":
        """The class of x (for k = 1 this is just 1)."""
        return FieldElem(self, self.p if self.k > 1 else 1)

    # -- code-level arithmetic ---------------------------------------------
    def add_codes(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        out = 0
        mult = 1
        for _ in range(self.k):
            out += ((a % self.p + b % self.p) % self.p) * mult
            a //= self.p
            b //= self.p
            mult *= self.p
        return out

    def neg_code(self, a):
        if self.k == 1:
            return (-a) % self.p
        out = 0
        mult = 1
        for _ in range(self.k):
            out += ((-a) % self.p) * mult
            a //= self.p
            mult *= self.p
        return out

    def sub_codes(self, a, b):
        return self.add_codes(a, self.neg_code(b))

    def mul_codes(self, a, b):
        if self.k == 1:
            return (a * b) % self.p
        if not a or not b:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.size - 1)]

    def pow_code(self, a, n):
        """a^n for n >= 0, with 0^0 = 1."""
        if self.k == 1:
            return pow(a, n, self.p)
        if not a:
            return 0 if n else 1
        return self._exp[self._log[a] * n % (self.size - 1)]

    def inv_code(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[-self._log[a] % (self.size - 1)]  # a^-1 = g^(-log a)


class FieldElem:
    """An element of a Field, identified by its integer code."""

    __slots__ = ("field", "code")

    def __init__(self, field: Field, code: int):
        self.field = field
        self.code = code

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if not self.field.same_as(other.field):
                raise ValueError("field mismatch")
            return other.code
        if isinstance(other, int):
            return other % self.field.p
        return NotImplemented

    def __add__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field.add_codes(self.code, c))

    __radd__ = __add__

    def __sub__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field.sub_codes(self.code, c))

    def __rsub__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field.sub_codes(c, self.code))

    def __mul__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field.mul_codes(self.code, c))

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElem(self.field, self.field.neg_code(self.code))

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        return FieldElem(self.field, self.field.pow_code(self.code, n))

    def inv(self) -> "FieldElem":
        return FieldElem(self.field, self.field.inv_code(self.code))

    def __truediv__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, self.field.mul_codes(self.code, self.field.inv_code(c)))

    def is_zero(self) -> bool:
        return self.code == 0

    @property
    def coeffs(self):
        out = []
        c = self.code
        for _ in range(self.field.k):
            out.append(c % self.field.p)
            c //= self.field.p
        return tuple(out)

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.field.same_as(other.field) and self.code == other.code
        if isinstance(other, int):
            return self.code == self.field.el(other).code
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.code))

    def __repr__(self):
        if self.field.k == 1:
            return str(self.code)
        return "+".join(
            f"{c}x^{i}" if i else str(c)
            for i, c in enumerate(self.coeffs)
            if c
        ) or "0"


# ---------------------------------------------------------------------------
# the array engine: elementwise and matrix arithmetic on int64 code arrays
# ---------------------------------------------------------------------------

def _digits(field: Field, a) -> np.ndarray:
    """Codes of shape S -> base-p digits of shape S + (k,), a new array."""
    d = np.asarray(a, dtype=np.int64)[..., None] // field._weights
    d %= field.p
    return d


def _codes(field: Field, d) -> np.ndarray:
    """Digit arrays (reduced or not) of shape S + (k,) -> codes of shape S."""
    return (d % field.p) @ field._weights


def _reduced_codes(field: Field, d) -> np.ndarray:
    """Reduced digit arrays of shape S + (k,) -> codes of shape S; over a
    prime field the one digit plane itself, as a view."""
    return d[..., 0] if field.k == 1 else d @ field._weights


def _mul_ops(field: Field, d) -> np.ndarray:
    """Digits of b, shape S + (k,) -> shape S + (k, k): row i is digits(x^i b)."""
    k = field.k
    return (d @ field._mul_op).reshape(d.shape[:-1] + (k, k)) % field.p


def add(field: Field, a, b) -> np.ndarray:
    """Elementwise a + b on broadcastable code arrays."""
    if field.k == 1:  # a prime-field code is its own digit
        return (np.asarray(a, dtype=np.int64) + b) % field.p
    return _codes(field, _digits(field, a) + _digits(field, b))


def sub(field: Field, a, b) -> np.ndarray:
    """Elementwise a - b on broadcastable code arrays; sub(field, 0, a) = -a."""
    if field.k == 1:
        return (np.asarray(a, dtype=np.int64) - b) % field.p
    return _codes(field, _digits(field, a) - _digits(field, b))


def mul(field: Field, a, b) -> np.ndarray:
    """Elementwise a * b on broadcastable code arrays; an outer product is
    mul(field, col[:, None], row[None, :])."""
    if field.k == 1:
        return np.asarray(a, dtype=np.int64) * b % field.p
    ops = _mul_ops(field, _digits(field, b))
    return _codes(field, (_digits(field, a)[..., None, :] @ ops)[..., 0, :])


# Products with at least this many multiply-adds, and more than one column,
# run in float64 through BLAS.  With one thread on a 2-core x86-64 machine
# BLAS beats numpy's int64 loops from about 2^14 multiply-adds, but its first
# call maps packing buffers that raise the process's peak memory by about
# 0.3 MB; from 2^19 on, each product saves 0.35 ms or more, which pays for
# it.  A matrix-vector product spends more on the casts than it saves.
_BLAS_MIN_CELLS = 1 << 19


# The rank-1 update of _eliminate over F_{p^k} casts only its two small
# factors, so float64 pays there from about 2^11 multiply-adds (measured as
# above); smaller updates stay in int64, so runs of small matrices never
# call BLAS.
_BLAS_MIN_UPDATE_CELLS = 1 << 11


def _float_exact(field: Field, n: int) -> bool:
    """Whether float64 holds the digit product of an (m x n) by (n x l) code
    product exactly: each of its sums has n k terms, products of two digits
    below p, so it does while n k (p-1)^2 < 2^53."""
    return n * field.k * (field.p - 1) ** 2 < 2**53


def _matmul(field: Field, A, B) -> np.ndarray:
    """A (m x n) times B (n x l): one integer product of the digits of A with
    the multiply-by-B[j, l] matrices, in float64 (BLAS) when that is exact
    and the product has more than one column and _BLAS_MIN_CELLS
    multiply-adds, in int64 otherwise."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    (m, n), l, k = A.shape, B.shape[1], field.k
    if k == 1:  # a prime-field code is its own digit
        left, right = A, B
    else:
        left = _digits(field, A).reshape(m, n * k)
        right = _mul_ops(field, _digits(field, B)).transpose(0, 2, 1, 3).reshape(n * k, l * k)
    if l > 1 and m * n * l * k * k >= _BLAS_MIN_CELLS and _float_exact(field, n):
        prod = np.matmul(left, right, dtype=np.float64).astype(np.int64)
    else:
        prod = left @ right
    return prod % field.p if k == 1 else _codes(field, prod.reshape(m, l, k))


def mat_vec_codes(field: Field, A: np.ndarray, x: np.ndarray) -> np.ndarray:
    return _matmul(field, A, np.asarray(x, dtype=np.int64)[:, None])[:, 0]


def mat_mul_codes(field: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return _matmul(field, A, B)


# ---------------------------------------------------------------------------
# dense linear algebra on integer-code matrices
# ---------------------------------------------------------------------------

def _next_column(A: np.ndarray, p: int, r: int, c: int, stop: int) -> int:
    """The first column from c on (stop if none) of the digit planes A with
    a nonzero residue from row r down.  It looks in windows of doubling
    width, so a run of zero columns costs a few calls and at most about
    twice its own cells."""
    w = 4
    while c < stop:
        hit = (A[r:, c:c + w] % p).any(axis=(0, 2)).nonzero()[0]
        if hit.size:
            return c + int(hit[0])
        c += w
        w *= 2
    return stop


def _eliminate(field: Field, A: np.ndarray, stop: int, grow: bool = False):
    """Gauss-Jordan elimination of the int64 digit planes A (m, width, k) in
    place, pivoting on the first `stop` columns; returns (pivots, order) with
    order[i] the original index of the row now at position i.

    The pivot is always the first row with a nonzero entry.  Rows from the
    pivot row down vanish left of the pivot column, so only the columns from
    there to the right change, and only in the rows with a nonzero entry in
    the pivot column.  Those rows alone are rewritten, unless they are most
    of the rows: then one in-place pass over the block, with factor 0 in the
    others, costs less.  A column that is zero from the pivot row down is
    skipped with the run of such columns after it (_next_column).

    Reduction is delayed (Dumas, Giorgi and Pernet, "FFLAS-FFPACK", ACM TOMS
    35, 2008).  Each step reduces mod p only the pivot column, whose residues
    pick the pivot and are the factors, and the pivot row, as it is scaled;
    the rank-1 update is subtracted unreduced, and the block is reduced once,
    at the end.  An entry of the update is a sum of k products of two
    reduced digits, below k (p-1)^2, so after s steps every entry is below
    p + s k (p-1)^2 in size: int64 stays exact for any matrix that fits in
    memory.  Over F_{p^k}, k > 1, the update is a product with the
    multiply-by-row matrices, run in float64 (BLAS) once it has
    _BLAS_MIN_UPDATE_CELLS multiply-adds; each of its entries, below
    k (p-1)^2 < 2^53, is exact there.

    With grow, the columns from `stop` on are a row transform built one
    column per pivot: when the row at position r becomes the r-th pivot row,
    column stop + r is set to the unit vector e_r, and the update stops at
    that column.  A pivot row is nonzero only in the identity columns of rows
    that were pivots before it, so the identity column of a row stays a unit
    vector until that row becomes a pivot, and the grown columns are all of
    the transform that elimination changes.
    """
    p, k = field.p, field.k
    m, width = A.shape[:2]
    order = list(range(m))
    pivots = []
    r = c = 0
    while r < m and c < stop:
        col = A[:, c] % p
        live = col.any(axis=1)
        i = r + int(live[r:].argmax())
        if not live[i]:
            c = _next_column(A, p, r, c + 1, stop)
            continue
        inv = field.inv_code(int(col[i] @ field._weights))
        if i != r:
            A[[r, i]] = A[[i, r]]
            order[r], order[i] = order[i], order[r]
        end = width
        if grow:
            end = stop + r + 1
            A[r, end - 1, 0] = 1  # digits of 1
        if k == 1:
            row = A[r, c:end] * inv % p
        else:
            row = A[r, c:end] @ _mul_ops(field, _digits(field, inv)) % p
        A[r, c:end] = row
        live[i] = False  # the row now at position i is zero in column c
        rows = live.nonzero()[0]
        if 2 * rows.size > m:
            col[i] = 0  # col, indexed by position, is now 0 off the touched rows
            rows = slice(None)
        f = col[rows]
        if len(f):
            if k == 1:
                A[rows, c:end] -= f[:, None] * row
            else:
                ops = _mul_ops(field, row).transpose(1, 0, 2).reshape(k, -1)
                dtype = np.float64 if len(f) * ops.size >= _BLAS_MIN_UPDATE_CELLS else np.int64
                prod = np.matmul(f, ops, dtype=dtype).astype(np.int64, copy=False)
                A[rows, c:end] -= prod.reshape(len(f), -1, k)
        pivots.append(c)
        r += 1
        c += 1
    A %= p
    return pivots, np.array(order, dtype=np.int64)


def rref(field: Field, mat: np.ndarray, pivot_limit: int | None = None):
    """Reduced row echelon form over the field.

    mat is an int64 array of codes; returns (R, pivot_columns).
    Deterministic: the pivot is always the first row with a nonzero entry.
    With pivot_limit, only the first pivot_limit columns are eliminated
    (the rest are carried along, e.g. an augmented identity block).
    """
    A = _digits(field, mat)  # (m, n, k) digit planes, eliminated in place
    n = A.shape[1]
    stop = n if pivot_limit is None else min(pivot_limit, n)
    pivots, _ = _eliminate(field, A, stop)
    return _reduced_codes(field, A), pivots


def _kernel_rows(field: Field, R: np.ndarray, pivots, n: int) -> np.ndarray:
    """Right kernel of an n-column matrix read off its reduced echelon form R:
    one basis row per free column, scaled to leading entry 1."""
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    if not free:
        return basis
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = sub(field, 0, R[: len(pivots), free].T)
    # normalize leading entries to 1 for reproducible output
    leads = basis[np.arange(len(free)), np.argmax(basis != 0, axis=1)]
    exp, log = exp_log(field.p, field.modulus)
    return mul(field, basis, exp[-log[leads] % (field.size - 1)][:, None])


def kernel_codes(field: Field, mat: np.ndarray) -> np.ndarray:
    """Basis of the right kernel, rows = basis vectors, leading entry 1."""
    R, pivots = rref(field, mat)
    return _kernel_rows(field, R, pivots, R.shape[1])


def rank_codes(field: Field, mat: np.ndarray) -> int:
    A = np.asarray(mat, dtype=np.int64)
    if A.size == 0:
        return 0
    _, pivots = rref(field, A)
    return len(pivots)


def solve_codes(field: Field, A: np.ndarray, b: np.ndarray):
    """One solution of A x = b plus kernel, or an inconsistency certificate.

    Returns (solution | None, kernel_rows, certificate | None); the
    certificate is a left null vector v with v A = 0 and v . b != 0.
    """
    A = np.asarray(A, dtype=np.int64)
    if np.shape(b) != A.shape[:1]:
        raise ValueError("dimension mismatch between matrix and rhs")
    solver = CachedSolver(field, A)
    x, cert = solver.solve(b)
    return x, solver.kernel(), cert


def invert_matrix_codes(field: Field, A: np.ndarray) -> np.ndarray:
    """A^{-1}: the row transform L with L A = I, once A has full rank."""
    A = np.asarray(A, dtype=np.int64)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("dimension mismatch")
    solver = CachedSolver(field, A)
    if solver.rank != n:
        raise ValueError("matrix is singular")
    return solver.L


class CachedSolver:
    """Factor A once and answer A x = b queries with exact certificates.

    The row transform L with L A = R (R echelon, pivot columns unit) is kept,
    so each query costs one matrix-vector product, and the kernel of A is
    read off R.  L, R and the pivots are those of rref([A | I_m],
    pivot_limit=n), entry for entry, but the identity block is never
    eliminated: `_eliminate` grows a row's transform column only when that
    row becomes a pivot row, and every other row keeps its identity column,
    so each pivot updates at most m x (n + 1) cells instead of m x (n + m).
    solve_codes and invert_matrix_codes are this factorization.
    """

    def __init__(self, field: Field, A: np.ndarray):
        self.field = field
        A = np.asarray(A, dtype=np.int64)
        m, n = self.m, self.n = A.shape
        work = np.zeros((m, n + min(m, n), field.k), dtype=np.int64)
        work[:, :n] = _digits(field, A)
        piv, order = _eliminate(field, work, n, grow=True)
        codes = _reduced_codes(field, work)
        rank = len(piv)
        self.pivots = piv
        self.rank = rank
        self.R = codes[:, :n]
        # column j of L belongs to original row j: the grown transform
        # column for pivot rows, the unit at its final position otherwise
        L = np.zeros((m, m), dtype=np.int64)
        L[:, order[:rank]] = codes[:, n : n + rank]
        L[np.arange(rank, m), order[rank:]] = 1
        self.L = L

    def solve(self, b: np.ndarray):
        """(solution, certificate): exactly one of the two is not None."""
        b = np.asarray(b, dtype=np.int64)
        c = mat_vec_codes(self.field, self.L, b)
        for i in range(self.rank, self.m):
            if c[i]:
                return None, self.L[i]
        # pivot columns are unit vectors (full elimination), so reading the
        # transformed rhs off the pivot rows is an exact solution
        x = np.zeros(self.n, dtype=np.int64)
        for ri, pc in enumerate(self.pivots):
            x[pc] = c[ri]
        return x, None

    def kernel(self) -> np.ndarray:
        """Basis of the right kernel of A, the rows of kernel_codes(A)."""
        return _kernel_rows(self.field, self.R, self.pivots, self.n)


def basis_coordinates(field: Field, basis_rows: np.ndarray, images) -> list:
    """For each matrix in images, whose rows lie in the span of basis_rows,
    the matrix whose columns are those rows' coordinates in that basis; one
    factorization serves every image.  Raises ValueError("subspace not
    stable") at the first row outside the span."""
    solver = CachedSolver(field, np.asarray(basis_rows, dtype=np.int64).T)
    out = []
    for img in images:
        cols = []
        for row in img:
            x, cert = solver.solve(row)
            if cert is not None:
                raise ValueError("subspace not stable")
            cols.append(x)
        out.append(np.array(cols, dtype=np.int64).T)
    return out


class IncrementalSpan:
    """A subspace in reduced echelon form, grown a batch of rows at a time by
    add.  Rows are in the order their leads were found, every lead column is
    a unit vector, and reduce gives representatives modulo the span."""

    def __init__(self, field: Field, dim: int):
        self.field = field
        self.rows = np.zeros((0, dim), dtype=np.int64)
        self.leads = []

    def reduce(self, M) -> np.ndarray:
        """The rows of M minus their components along the span: every lead
        column is zero in the other rows, so the coefficients of the
        reduction are the entries of M at the leads."""
        M = np.asarray(M, dtype=np.int64)
        return sub(self.field, M, _matmul(self.field, M[:, self.leads], self.rows))

    def add(self, rows) -> list:
        """Insert the rows of a matrix; returns, in order, the indices of the
        rows that inserting them one at a time would keep: all of them when
        they are independent modulo the span, else their row rank profile,
        the pivots of one rref of the transpose (Dumas, Pernet and Sultan,
        ISSAC 2013).  It runs on the columns where the rows or span are nonzero."""
        field, M = self.field, np.asarray(rows, dtype=np.int64)
        cols = np.flatnonzero(M.any(axis=0) | self.rows.any(axis=0))
        X = sub(field, M[:, cols], _matmul(field, M[:, self.leads], self.rows[:, cols]))
        live = X.any(axis=0)
        cols, X = cols[live], X[:, live]
        if not X.size:  # X keeps its nonzero columns only: empty exactly at rank 0
            return []
        E, piv = rref(field, X)
        picked = list(range(len(X))) if len(piv) == len(X) else rref(field, X.T)[1]
        E, leads = E[:len(piv)], cols[piv]
        self.rows[:, cols] = sub(field, self.rows[:, cols], _matmul(field, self.rows[:, leads], E))
        grown = np.zeros((len(self.rows) + len(piv), self.rows.shape[1]), dtype=np.int64)
        grown[:len(self.rows)] = self.rows
        grown[len(self.rows):, cols] = E
        self.rows = grown
        self.leads += leads.tolist()
        return picked


def matrix_relation_kernel(field: Field, pairs, dim_in: int, dim_out: int):
    """Basis of {M (dim_out x dim_in) : M A = B M for every (A, B) pair}.

    On M flattened row-major, M A - B M is (kron(I_out, A^T) - kron(B, I_in)) M."""
    eye_in = np.eye(dim_in, dtype=np.int64)
    eye_out = np.eye(dim_out, dtype=np.int64)
    rows = [sub(field, np.kron(eye_out, np.asarray(A, dtype=np.int64).T),
                np.kron(np.asarray(B, dtype=np.int64), eye_in)) for A, B in pairs]
    kern = kernel_codes(field, np.concatenate(rows))
    return [k.reshape(dim_out, dim_in) for k in kern]


def _code_poly(code: int, p: int) -> tuple:
    out = []
    while code:
        out.append(code % p)
        code //= p
    return tuple(out)


def _poly_code(poly, p: int) -> int:
    return sum(c * p**i for i, c in enumerate(poly))


@lru_cache(maxsize=None)
def exp_log(p: int, modulus):
    """exp[e] = g^e (e < q - 1) for the first primitive element g of F_q^*
    in code order, and log with log[exp[e]] = e, for F_q = F_p[x]/(modulus).
    Over F_p (modulus (0, 1)) g is the least primitive root, 1 at p = 2.
    Powers are polynomial products: Field multiplies through these tables."""
    size = p ** (len(modulus) - 1)
    for g in range(1, size):
        gpoly, exp = _code_poly(g, p), [1]
        while (x := _poly_code(_poly_mod(_poly_mul(_code_poly(exp[-1], p), gpoly, p),
                                         modulus, p), p)) != 1:
            exp.append(x)
        if len(exp) == size - 1:
            log = np.zeros(size, dtype=np.int64)
            log[exp] = np.arange(len(exp))
            exp = np.array(exp, dtype=np.int64)
            exp.flags.writeable = log.flags.writeable = False  # shared by every caller
            return exp, log


def _table_logs(field: Field, src, coef, n: int):
    """(src, log coef^-1) of a monomial table as lists, logs mod q - 1.
    Raises ValueError unless src is a permutation of range(n) and coef holds
    n nonzero codes."""
    src, coef = np.asarray(src, dtype=np.int64), np.asarray(coef, dtype=np.int64)
    if src.shape != (n,) or sorted(src := src.tolist()) != list(range(n)):
        raise ValueError("src must be a permutation of range(n)")
    if coef.shape != (n,) or n and not 0 < min(coef := coef.tolist()) <= max(coef) < field.size:
        raise ValueError("coef must hold n nonzero codes")
    log, order = field._log, field.size - 1
    return src, [-log[c] % order for c in coef]


def monomial_fixed(field: Field, tables, n: int) -> np.ndarray:
    """Basis of {f : A f = f for every A}, each A monomial and given by its
    table (src, coef): (A f)[i] = coef[i] f[src[i]].  The rows are those of
    kernel_codes of the stacked A - I, entry for entry and in order.  Raises
    ValueError unless src is a permutation of range(n) and coef is nonzero.

    A f = f reads f[src i] = coef[i]^-1 f[i], so f is fixed on each orbit of
    indices by its value at the orbit's first index.  An orbit whose labels
    disagree around a cycle is forced to zero; each other orbit gives one
    basis row, 1 at its first index.  Elimination leaves the orbit's last
    index free, so the rows are ordered by it.  Labels are discrete
    logarithms mod q - 1, so the search multiplies no field codes."""
    order = field.size - 1
    # per map: where index i goes, and the log of its label coef[i]^-1
    moves = [_table_logs(field, src, coef, n) for src, coef in tables]
    phase = [None] * n
    orbits = []
    for start in range(n):
        if phase[start] is not None:
            continue
        phase[start], members, consistent = 0, [start], True
        for x in members:  # a breadth-first search: members grows as it is read
            for dst, label in moves:
                y, e = dst[x], (phase[x] + label[x]) % order
                if phase[y] is None:
                    phase[y] = e
                    members.append(y)
                elif phase[y] != e:
                    consistent = False
        if consistent:
            orbits.append((max(members), members))
    orbits.sort()
    rows, cols = [], []
    for row, (_, members) in enumerate(orbits):
        rows += [row] * len(members)
        cols += members
    basis = np.zeros((len(orbits), n), dtype=np.int64)
    basis[rows, cols] = [field._exp[phase[x]] for x in cols]
    return basis


def monomial_commutant(field: Field, tables, n: int) -> list:
    """Basis of {M (n x n) : A M = M A for every A}, each A a monomial table
    as in monomial_fixed.  A M = M A reads M[i, l] = coef[i] coef[l]^-1
    M[src i, src l], a monomial map on the index pairs i n + l, so this is
    monomial_fixed on the pairs: the orbital basis of a centraliser algebra
    (D. G. Higman, "Coherent configurations I", Geom. Dedicata 4, 1975)."""
    exp = exp_log(field.p, field.modulus)[0]
    pairs = []
    for src, inv in (_table_logs(field, src, coef, n) for src, coef in tables):
        src, inv = np.array(src), np.array(inv)
        pairs.append(((src[:, None] * n + src).ravel(),
                      exp[(inv - inv[:, None]).ravel() % (field.size - 1)]))
    return [row.reshape(n, n) for row in monomial_fixed(field, pairs, n * n)]
