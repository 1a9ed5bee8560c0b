"""Exact 2x2 matrix arithmetic in GL_2(Q_p) and its coset normal forms.

A matrix is held in its primitive integer form (p; L, A, B, C, D), meaning
g = [[A, B], [C, D]] / L with L > 0 and gcd(L, A, B, C, D) = 1.  The form is
canonical, so equality and hashing compare integer tuples, and products,
inverses, valuations, subgroup membership and the decompositions below run
on Python integers: every identity is checked with equality, never
numerically.  `PadicRational` is the exact scalar of the entry views
(`Mat2.a` .. `Mat2.d`), of tree-vertex offsets and of the drivers.
Conventions fixed here and used everywhere:

  * uniformiser = p, residue field = F_p (q = p);
  * Teichmuller lifts are replaced by integer lifts 0..p-1, and by the exact
    rational inverse 1/l where an inverse lift is required;
  * tree vertices name right cosets g.(F^x K) of the canonical representative
    [[p^d, a], [0, 1]] with a reduced mod p^d Z_p.

The named constants follow the usual generators: pi_mat = [[0,1],[p,0]],
s_mat = [[0,1],[1,0]], t_mat = [[p,0],[0,1]].
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm

from .exactfield import is_prime

#: valuation of zero; ordered above every integer
VAL_INF = inf


def vp_split(n: int, p: int):
    """(v_p(n), n / p^v_p(n)) of a nonzero integer; the unit part keeps the
    sign of n."""
    if n == 0:
        raise ValueError("valuation of zero integer")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _vp(n: int, p: int):
    """v_p(n) of an integer, VAL_INF for zero."""
    return vp_split(n, p)[0] if n else VAL_INF


def _ratio(p: int, x):
    """(numerator, denominator) of an int, Fraction or PadicRational of the
    prime p; anything inexact is refused."""
    if isinstance(x, PadicRational):
        if x.p != p:
            raise ValueError("prime mismatch")
        x = x.frac
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"exact scalar expected (int, Fraction or PadicRational), "
                    f"got {type(x).__name__}")


class PadicRational:
    """Exact rational with its p-adic valuation.

    Held as one Fraction in lowest terms; the valuation is read off its
    numerator and denominator.
    """

    __slots__ = ("p", "frac")

    def __init__(self, p: int, value=0):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.frac = value if isinstance(value, Fraction) else Fraction(*_ratio(p, value))

    # -- normalized fields ---------------------------------------------------
    @property
    def valuation(self):
        if self.frac == 0:
            return VAL_INF
        num, den = self.frac.numerator, self.frac.denominator
        return vp_split(num, self.p)[0] - vp_split(den, self.p)[0]

    # -- arithmetic ------------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, PadicRational):
            if other.p != self.p:
                raise ValueError("prime mismatch")
            return other.frac
        if isinstance(other, Fraction):
            return other
        if isinstance(other, int):
            return Fraction(other)
        return NotImplemented

    def __add__(self, other):
        f = self._coerce(other)
        if f is NotImplemented:
            return NotImplemented
        return PadicRational(self.p, self.frac + f)

    __radd__ = __add__

    def __sub__(self, other):
        f = self._coerce(other)
        if f is NotImplemented:
            return NotImplemented
        return PadicRational(self.p, self.frac - f)

    def __rsub__(self, other):
        f = self._coerce(other)
        if f is NotImplemented:
            return NotImplemented
        return PadicRational(self.p, f - self.frac)

    def __mul__(self, other):
        f = self._coerce(other)
        if f is NotImplemented:
            return NotImplemented
        return PadicRational(self.p, self.frac * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        f = self._coerce(other)
        if f is NotImplemented:
            return NotImplemented
        if f == 0:
            raise ZeroDivisionError("division by zero")
        return PadicRational(self.p, self.frac / f)

    def __neg__(self):
        return PadicRational(self.p, -self.frac)

    def inv(self) -> "PadicRational":
        if self.frac == 0:
            raise ZeroDivisionError("division by zero")
        return PadicRational(self.p, 1 / self.frac)

    def is_unit(self) -> bool:
        return self.valuation == 0

    def unit_residue(self) -> int:
        """Residue mod p of the unit part x * p^(-v(x)); requires x != 0."""
        if self.frac == 0:
            raise ZeroDivisionError("zero has no unit part")
        v = self.valuation
        u = self.frac / Fraction(self.p) ** v
        return u.numerator * pow(u.denominator, -1, self.p) % self.p

    def __eq__(self, other):
        f = self._coerce(other)
        if f is NotImplemented:
            return NotImplemented
        return self.frac == f

    def __hash__(self):
        return hash((self.p, self.frac))

    def __repr__(self):
        return f"{self.frac}"

    def serialize(self) -> str:
        """String form num/(unit*p^e) flattened to an exact fraction."""
        return str(self.frac)


def unit_lift(p: int, lam: int) -> PadicRational:
    """Integer lift of a residue 0..p-1 (stand-in for the multiplicative lift)."""
    if not 0 <= lam < p:
        raise ValueError(f"residue must be in 0..{p - 1}")
    return PadicRational(p, lam)


class Mat2:
    """Invertible 2x2 matrix over Q_p with exact rational entries, held in
    its primitive integer form: g = [[A, B], [C, D]] / L with L > 0 and
    gcd(L, A, B, C, D) = 1.

    Entries are given as int, Fraction or PadicRational; anything else is a
    TypeError.  `a` .. `d` and `entries()` are PadicRational views built on
    demand; arithmetic never goes through them."""

    __slots__ = ("p", "L", "A", "B", "C", "D", "_hash")

    def __init__(self, p, a, b, c, d):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        nd = [_ratio(p, x) for x in (a, b, c, d)]
        L = lcm(*(m for _, m in nd))  # the least such L is primitive
        self.p, self.L, self._hash = p, L, None
        self.A, self.B, self.C, self.D = (n * (L // m) for n, m in nd)
        if self.A * self.D == self.B * self.C:
            raise ValueError("singular matrix")

    @classmethod
    def from_ints(cls, p, L, A, B, C, D) -> "Mat2":
        """[[A, B], [C, D]] / L for integers with L != 0, in primitive form;
        p is taken as given (callers pass the prime of an existing Mat2)."""
        if not L:
            raise ZeroDivisionError("division by zero")
        g = gcd(L, A, B, C, D) if L > 0 else -gcd(L, A, B, C, D)
        out = object.__new__(cls)
        out.p, out._hash = p, None
        out.L, out.A, out.B, out.C, out.D = L // g, A // g, B // g, C // g, D // g
        return out

    @classmethod
    def identity(cls, p):
        return cls(p, 1, 0, 0, 1)

    a = property(lambda self: PadicRational(self.p, Fraction(self.A, self.L)))
    b = property(lambda self: PadicRational(self.p, Fraction(self.B, self.L)))
    c = property(lambda self: PadicRational(self.p, Fraction(self.C, self.L)))
    d = property(lambda self: PadicRational(self.p, Fraction(self.D, self.L)))

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def det(self) -> PadicRational:
        return PadicRational(self.p, Fraction(self.A * self.D - self.B * self.C, self.L**2))

    def det_valuation(self):
        return _vp(self.A * self.D - self.B * self.C, self.p) - 2 * _vp(self.L, self.p)

    def integral_form(self):
        """(L, (A, B, C, D)): L the least common denominator of the entries
        and L g = [[A, B], [C, D]] over Z."""
        return self.L, (self.A, self.B, self.C, self.D)

    def __mul__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        if other.p != self.p:
            raise ValueError("prime mismatch")
        A, B, C, D = self.A, self.B, self.C, self.D
        E, F, G, H = other.A, other.B, other.C, other.D
        return Mat2.from_ints(self.p, self.L * other.L, A * E + B * G, A * F + B * H,
                              C * E + D * G, C * F + D * H)

    def scale(self, x) -> "Mat2":
        n, m = _ratio(self.p, x)
        return Mat2.from_ints(self.p, self.L * m, self.A * n, self.B * n, self.C * n,
                              self.D * n)

    def inv(self) -> "Mat2":
        L, A, B, C, D = self.L, self.A, self.B, self.C, self.D
        return Mat2.from_ints(self.p, A * D - B * C, L * D, -L * B, -L * C, L * A)

    def __pow__(self, n: int) -> "Mat2":
        if n < 0:
            return self.inv() ** (-n)
        out = Mat2.identity(self.p)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def _key(self):
        return (self.p, self.L, self.A, self.B, self.C, self.D)

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        if self._hash is None:  # memoised: a Mat2 is never changed once built
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"

    def serialize(self):
        return [e.serialize() for e in self.entries()]


# ---------------------------------------------------------------------------
# named generators
# ---------------------------------------------------------------------------

def upper_u(p, x) -> Mat2:
    return Mat2(p, 1, x, 0, 1)


def lower_u(p, x) -> Mat2:
    return Mat2(p, 1, 0, x, 1)


def diag(p, x, y) -> Mat2:
    return Mat2(p, x, 0, 0, y)


def s_mat(p) -> Mat2:
    return Mat2(p, 0, 1, 1, 0)


def t_mat(p) -> Mat2:
    return Mat2(p, p, 0, 0, 1)


def pi_mat(p) -> Mat2:
    return Mat2(p, 0, 1, p, 0)


# ---------------------------------------------------------------------------
# subgroup membership
# ---------------------------------------------------------------------------

SUBGROUP_TAGS = ("K", "K1", "I", "I1", "P", "T_diag", "U_upper", "Center")


def in_subgroup(g: Mat2, tag: str) -> bool:
    """Decide membership on the primitive integer form; tags follow the
    standard names: K = GL2(Z_p), K1 its principal congruence subgroup, I / I1
    the Iwahori and pro-p Iwahori, P upper-triangular, plus
    torus/unipotent/center.

    g is integral iff p does not divide L (L is primitive), so K asks p to
    divide neither L nor AD - BC, and K1, I and I1 are congruences mod p on
    A - L, B, C and D - L."""
    p, L, A, B, C, D = g.p, g.L, g.A, g.B, g.C, g.D
    if tag == "K":
        return L % p != 0 and (A * D - B * C) % p != 0
    if tag == "K1":  # these congruences force p not to divide L
        return (A - L) % p == 0 and B % p == 0 and C % p == 0 and (D - L) % p == 0
    if tag == "I":
        return L % p != 0 and A % p != 0 and C % p == 0 and D % p != 0
    if tag == "I1":
        return L % p != 0 and (A - L) % p == 0 and C % p == 0 and (D - L) % p == 0
    if tag == "P":
        return C == 0 and A != 0 and D != 0
    if tag == "T_diag":
        return B == 0 and C == 0
    if tag == "U_upper":
        return C == 0 and A == L and D == L
    if tag == "Center":
        return B == 0 and C == 0 and A == D
    raise ValueError(f"unknown subgroup tag {tag!r}")


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

def _triangular_factor(g: Mat2, lower: bool) -> Mat2:
    """b upper-triangular with g = b . lower-u(c/d) if lower, else
    g = b . s . u(d/c); lower-u(c/d) is [[D, 0], [C, D]] / D and s . u(d/c)
    is [[0, C], [C, D]] / C."""
    p, L, A, B, C, D = g.p, g.L, g.A, g.B, g.C, g.D
    if lower:
        return Mat2.from_ints(p, L * D, A * D - B * C, B * D, 0, D * D)
    return Mat2.from_ints(p, L * C, B * C - A * D, A * C, 0, C * C)


def iwasawa(g: Mat2):
    """g = b . kk with b upper-triangular and kk in K (integral, unit det):
    kk = lower-u(c/d) if v(c) >= v(d), else s . u(d/c)."""
    p, C, D = g.p, g.C, g.D
    if _vp(C, p) >= _vp(D, p):
        return _triangular_factor(g, True), Mat2.from_ints(p, D, D, 0, C, D)
    return _triangular_factor(g, False), Mat2.from_ints(p, C, 0, C, C, D)


def bruhat_side(g: Mat2):
    """Which half of G = P.I1 u P.s.I1 the element lies in, with witnesses.

    Returns (side, b, u) where side is "PI1" or "PsI1", b in P, u in I1 and
    g = b*u or g = b*s*u respectively.  The side is read off the bottom row:
    PI1 iff v(c) > v(d), with u = lower-u(c/d); otherwise u = u(d/c).
    """
    p, C, D = g.p, g.C, g.D
    if _vp(C, p) > _vp(D, p):
        return "PI1", _triangular_factor(g, True), Mat2.from_ints(p, D, D, 0, C, D)
    return "PsI1", _triangular_factor(g, False), Mat2.from_ints(p, C, C, D, 0, C)


class TreeVertex:
    """A vertex of the (p+1)-regular tree: the coset g.(F^x K) of the
    canonical representative [[p^d, a], [0, 1]], with a reduced mod p^d Z_p.

    Canonical a: either exactly 0 or c * p^w with w = v(a) < d, 0 < c < p^(d-w)
    and p coprime to c.  The vertex is named by its primitive integer form
    (P, X, S), see `int_form`: equality compares it.
    """

    __slots__ = ("p", "d", "a", "_hash", "_ints")

    def __init__(self, p: int, d: int, a):
        self._hash = self._ints = None  # memoised: a vertex is never changed once built
        self.p = p
        self.d = d
        self.a = canonical_mod(PadicRational(p, a), d)

    @classmethod
    def canonical(cls, p: int, d: int, a) -> "TreeVertex":
        """The vertex (d, a) for an a that is already canonical mod p^d, as
        `canonical_mod` would return it; equal to TreeVertex(p, d, a)."""
        out = cls.__new__(cls)
        out._hash = out._ints = None
        out.p = p
        out.d = d
        out.a = PadicRational(p, a)
        return out

    def rep(self) -> Mat2:
        """[[p^d, a], [0, 1]] = [[p^d m, n q], [0, m q]] / (m q) for a = n / m
        and q = p^max(-d, 0)."""
        p, d, a = self.p, self.d, self.a.frac
        m, q = a.denominator, p ** max(-d, 0)
        return Mat2.from_ints(p, m * q, p ** max(d, 0) * m, a.numerator * q, 0, m * q)

    def int_form(self):
        """(P, X, S) with p^t rep(self) = [[P, X], [0, S]] over Z for the least
        such power S = p^t: rep() in primitive form, computed once."""
        if self._ints is None:
            rep = self.rep()
            self._ints = (rep.A, rep.B, rep.L)
        return self._ints

    def distance(self) -> int:
        """Tree distance to the base vertex (identity coset): v_p(det) of the
        primitive integer form [[P, X], [0, S]], whose P and S are powers of p."""
        P, _, S = self.int_form()
        return vp_split(P * S, self.p)[0]

    def __eq__(self, other):
        if not isinstance(other, TreeVertex):
            return NotImplemented
        return self.p == other.p and self.int_form() == other.int_form()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.p, self.d, self.a))
        return self._hash

    def __repr__(self):
        return f"V(d={self.d}, a={self.a})"

    def sort_key(self):
        return (self.distance(), self.d, self.a.frac)

    def serialize(self):
        return {"d": self.d, "a": self.a.serialize()}


def _canonical_frac(p: int, n: int, m: int, d: int) -> Fraction:
    """Canonical representative of n/m mod p^d Z_p, for integers n and m != 0:
    0, or c p^w with w = v(n/m) < d and c the unit part of n/m mod p^(d-w)."""
    if n == 0:
        return Fraction(0)
    vn, un = vp_split(n, p)
    vm, um = vp_split(m, p)
    w = vn - vm
    if w >= d:
        return Fraction(0)
    span = p ** (d - w)
    c = un % span * pow(um, -1, span) % span
    return Fraction(c * p**w) if w >= 0 else Fraction(c, p**-w)


def canonical_mod(a: PadicRational, d: int) -> PadicRational:
    """Canonical representative of a mod p^d Z_p (idempotent)."""
    return PadicRational(a.p, _canonical_frac(a.p, a.frac.numerator, a.frac.denominator, d))


def vertex_normalize(g: Mat2):
    """Write g = rep(v) . kz with kz in F^x K; v is the unique tree vertex.

    Idempotent on canonical representatives: rep(v) normalizes to (v, id).
    With b the upper-triangular factor of `iwasawa`, v = (v(b_a / b_d),
    b_b / b_d): that is (v(det) - 2 v(D), B / D) if v(C) >= v(D), else
    (v(det) - 2 v(C), A / C), on the integer form [[A, B], [C, D]] / L.
    """
    p, A, B, C, D = g.p, g.A, g.B, g.C, g.D
    num, den = (B, D) if _vp(C, p) >= _vp(D, p) else (A, C)
    d = _vp(A * D - B * C, p) - 2 * _vp(den, p)
    v = TreeVertex.canonical(p, d, _canonical_frac(p, num, den, d))
    return v, v.rep().inv() * g


def fxk_factor(h: Mat2):
    """Split h in F^x K as p^j * k with k in K; raises if h is not in F^x K."""
    vdet = h.det_valuation()
    if vdet % 2:
        raise ValueError("not in F^x K: odd determinant valuation")
    j = vdet // 2
    k = h.scale(Fraction(h.p) ** (-j))
    if not in_subgroup(k, "K"):
        raise ValueError("not in F^x K")
    return j, k


def tree_distance(g: Mat2) -> int:
    """|alpha - beta| for the elementary divisors p^alpha, p^beta of g after
    central scaling to integral entries with minimal valuation 0; L cancels,
    so it is v(AD - BC) - 2 min v(A, B, C, D)."""
    p, A, B, C, D = g.p, g.A, g.B, g.C, g.D
    return _vp(A * D - B * C, p) - 2 * min(_vp(A, p), _vp(B, p), _vp(C, p), _vp(D, p))


# ---------------------------------------------------------------------------
# pseudo-random sampling (tests and the identities suite)
# ---------------------------------------------------------------------------

def random_scalar(p, rng, max_exp=2):
    """Nonzero element of Z[1/p]: n / p^e with 0 < |n| <= p^2."""
    n = 0
    while n == 0:
        n = rng.randint(-p * p, p * p)
    return PadicRational(p, Fraction(n, p ** rng.randint(0, max_exp)))


def random_group_word(p, rng, max_len=8) -> Mat2:
    """Product of <= max_len generators drawn from
    {u(a), lower-u(p a), diagonal unit lifts, s, t, Pi}."""
    g = Mat2.identity(p)
    for _ in range(rng.randint(0, max_len)):
        kind = rng.randrange(6)
        if kind == 0:
            g = g * upper_u(p, random_scalar(p, rng))
        elif kind == 1:
            g = g * lower_u(p, random_scalar(p, rng) * p)
        elif kind == 2:
            g = g * diag(p, rng.randint(1, p - 1), rng.randint(1, p - 1))
        elif kind == 3:
            g = g * s_mat(p)
        elif kind == 4:
            g = g * t_mat(p)
        else:
            g = g * pi_mat(p)
    return g


def random_in_subgroup(p, rng, tag: str) -> Mat2:
    """Uniform-ish sample from K, I, I1 or K1 via integral entries mod p^3."""
    span = p**3
    while True:
        a = rng.randrange(span)
        b = rng.randrange(span)
        c = rng.randrange(span)
        d = rng.randrange(span)
        if tag == "K1":
            a, b, c, d = 1 + p * a, p * b, p * c, 1 + p * d
        elif tag == "I1":
            a, c, d = 1 + p * a, p * c, 1 + p * d
        elif tag == "I":
            c = p * c
            if a % p == 0 or d % p == 0:
                continue
        if (a * d - b * c) % p == 0:
            continue
        return Mat2(p, a, b, c, d)
