"""Exact 2x2 matrix arithmetic in GL_2(Q_p) and its coset normal forms.

Scalars are exact rationals carrying the prime p, so every valuation,
decomposition and identity below is checked with equality, never numerically.
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
from math import inf, lcm

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


class PadicRational:
    """Exact rational with its p-adic valuation.

    Normalized view: value = numerator / (denom_unit * p^denom_exp) with
    p coprime to denom_unit, denom_exp >= 0, and p coprime to numerator
    whenever denom_exp > 0; zero is (0, 1, 0).
    """

    __slots__ = ("p", "frac")

    def __init__(self, p: int, value=0):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if isinstance(value, PadicRational):
            if value.p != p:
                raise ValueError("prime mismatch")
            value = value.frac
        self.p = p
        self.frac = value if isinstance(value, Fraction) else Fraction(value)

    # -- normalized fields ---------------------------------------------------
    @property
    def valuation(self):
        if self.frac == 0:
            return VAL_INF
        num, den = self.frac.numerator, self.frac.denominator
        return vp_split(num, self.p)[0] - vp_split(den, self.p)[0]

    @property
    def numerator(self) -> int:
        return self.frac.numerator

    @property
    def denom_exp(self) -> int:
        if self.frac == 0:
            return 0
        return vp_split(self.frac.denominator, self.p)[0]

    @property
    def denom_unit(self) -> int:
        if self.frac == 0:
            return 1
        return self.frac.denominator // self.p**self.denom_exp

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

    def is_zero(self) -> bool:
        return self.frac == 0

    def is_unit(self) -> bool:
        return self.valuation == 0

    def unit_residue(self) -> int:
        """Residue mod p of the unit part x * p^(-v(x)); requires x != 0."""
        if self.frac == 0:
            raise ZeroDivisionError("zero has no unit part")
        v = self.valuation
        u = self.frac / Fraction(self.p) ** v
        return u.numerator * pow(u.denominator, -1, self.p) % self.p

    def residue(self, mod_power: int = 1) -> int:
        """The class mod p^mod_power; requires valuation >= 0."""
        if self.valuation < 0:
            raise ValueError("negative valuation has no residue")
        q = self.p**mod_power
        num = self.frac.numerator % q
        return num * pow(self.frac.denominator, -1, q) % q

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
    """Invertible 2x2 matrix over PadicRational."""

    __slots__ = ("p", "a", "b", "c", "d", "_hash")

    def __init__(self, p, a, b, c, d, check=True):
        self._hash = None  # memoised: a Mat2 is never changed once built
        self.p = p
        self.a = PadicRational(p, a)
        self.b = PadicRational(p, b)
        self.c = PadicRational(p, c)
        self.d = PadicRational(p, d)
        if check and self.det().is_zero():
            raise ValueError("singular matrix")

    @classmethod
    def identity(cls, p):
        return cls(p, 1, 0, 0, 1)

    def det(self) -> PadicRational:
        return self.a * self.d - self.b * self.c

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def integral_form(self):
        """(L, (A, B, C, D)): L the least common denominator of the entries
        and L g = [[A, B], [C, D]] over Z."""
        fracs = [e.frac for e in self.entries()]
        L = lcm(*(x.denominator for x in fracs))
        return L, tuple(x.numerator * (L // x.denominator) for x in fracs)

    def __mul__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        if other.p != self.p:
            raise ValueError("prime mismatch")
        return Mat2(
            self.p,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            check=False,
        )

    def scale(self, x) -> "Mat2":
        x = PadicRational(self.p, x)
        return Mat2(self.p, self.a * x, self.b * x, self.c * x, self.d * x, check=False)

    def inv(self) -> "Mat2":
        det = self.det()
        return Mat2(
            self.p,
            self.d / det,
            -self.b / det,
            -self.c / det,
            self.a / det,
            check=False,
        )

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

    def min_valuation(self):
        return min(e.valuation for e in self.entries())

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return self.p == other.p and all(
            x == y for x, y in zip(self.entries(), other.entries())
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.p, tuple(e.frac for e in self.entries())))
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
    """Decide membership by entry valuations; tags follow the standard names:
    K = GL2(Z_p), K1 its principal congruence subgroup, I / I1 the Iwahori and
    pro-p Iwahori, P upper-triangular, plus torus/unipotent/center."""
    a, b, c, d = g.entries()
    va, vb, vc, vd = (e.valuation for e in g.entries())
    one = PadicRational(g.p, 1)
    if tag == "K":
        return min(va, vb, vc, vd) >= 0 and g.det().valuation == 0
    if tag == "K1":
        return (
            (a - one).valuation >= 1
            and vb >= 1
            and vc >= 1
            and (d - one).valuation >= 1
        )
    if tag == "I":
        return va == 0 and vb >= 0 and vc >= 1 and vd == 0
    if tag == "I1":
        return (
            (a - one).valuation >= 1
            and vb >= 0
            and vc >= 1
            and (d - one).valuation >= 1
        )
    if tag == "P":
        return c.is_zero() and not a.is_zero() and not d.is_zero()
    if tag == "T_diag":
        return b.is_zero() and c.is_zero()
    if tag == "U_upper":
        return c.is_zero() and a == one and d == one
    if tag == "Center":
        return b.is_zero() and c.is_zero() and a == d
    raise ValueError(f"unknown subgroup tag {tag!r}")


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

def iwasawa(g: Mat2):
    """g = b . kk with b upper-triangular and kk in K (integral, unit det)."""
    c, d = g.c, g.d
    if c.valuation >= d.valuation:
        kk = lower_u(g.p, c / d)
    else:
        kk = s_mat(g.p) * upper_u(g.p, d / c)
    b = g * kk.inv()
    return b, kk


def bruhat_side(g: Mat2):
    """Which half of G = P.I1 u P.s.I1 the element lies in, with witnesses.

    Returns (side, b, u) where side is "PI1" or "PsI1", b in P, u in I1 and
    g = b*u or g = b*s*u respectively.  The side is read off the bottom row:
    PI1 iff v(c) > v(d).
    """
    c, d = g.c, g.d
    if c.valuation > d.valuation:
        u = lower_u(g.p, c / d)
        b = g * u.inv()
        return "PI1", b, u
    u = upper_u(g.p, d / c)
    b = g * (s_mat(g.p) * u).inv()
    return "PsI1", b, u


class TreeVertex:
    """A vertex of the (p+1)-regular tree: the coset g.(F^x K) of the
    canonical representative [[p^d, a], [0, 1]], with a reduced mod p^d Z_p.

    Canonical a: either exactly 0 or c * p^w with w = v(a) < d, 0 < c < p^(d-w)
    and p coprime to c.
    """

    __slots__ = ("p", "d", "a", "_hash")

    def __init__(self, p: int, d: int, a):
        self._hash = None  # memoised: a vertex is never changed once built
        self.p = p
        self.d = d
        self.a = canonical_mod(PadicRational(p, a), d)

    @classmethod
    def canonical(cls, p: int, d: int, a) -> "TreeVertex":
        """The vertex (d, a) for an a that is already canonical mod p^d, as
        `canonical_mod` would return it; equal to TreeVertex(p, d, a)."""
        out = cls.__new__(cls)
        out._hash = None
        out.p = p
        out.d = d
        out.a = PadicRational(p, a)
        return out

    def rep(self) -> Mat2:
        return Mat2(self.p, Fraction(self.p) ** self.d, self.a, 0, 1, check=False)

    def distance(self) -> int:
        """Tree distance to the base vertex (identity coset)."""
        if self.a.is_zero():
            return abs(self.d)
        return self.d - 2 * min(self.a.valuation, 0)

    def __eq__(self, other):
        if not isinstance(other, TreeVertex):
            return NotImplemented
        return (self.p, self.d, self.a) == (other.p, other.d, other.a)

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


def canonical_mod(a: PadicRational, d: int) -> PadicRational:
    """Canonical representative of a mod p^d Z_p (idempotent)."""
    p = a.p
    if a.is_zero() or a.valuation >= d:
        return PadicRational(p, 0)
    w = a.valuation
    u = a.frac / Fraction(p) ** w
    span = p ** (d - w)
    c = u.numerator % span * pow(u.denominator, -1, span) % span
    return PadicRational(p, Fraction(c) * Fraction(p) ** w)


def vertex_normalize(g: Mat2):
    """Write g = rep(v) . kz with kz in F^x K; v is the unique tree vertex.

    Idempotent on canonical representatives: rep(v) normalizes to (v, id).
    """
    b, kk = iwasawa(g)
    y = b.a / b.d
    z = b.b / b.d
    dd = y.valuation
    v = TreeVertex(g.p, dd, z)
    kz = v.rep().inv() * g
    return v, kz


def fxk_factor(h: Mat2):
    """Split h in F^x K as p^j * k with k in K; raises if h is not in F^x K."""
    vdet = h.det().valuation
    if vdet % 2:
        raise ValueError("not in F^x K: odd determinant valuation")
    j = vdet // 2
    k = h.scale(Fraction(h.p) ** (-j))
    if not in_subgroup(k, "K"):
        raise ValueError("not in F^x K")
    return j, k


def tree_distance(g: Mat2) -> int:
    """|alpha - beta| for the elementary divisors p^alpha, p^beta of g after
    central scaling to integral entries with minimal valuation 0."""
    m = g.min_valuation()
    return int(g.det().valuation) - 2 * int(m)


# ---------------------------------------------------------------------------
# pseudo-random sampling (tests and the identities suite)
# ---------------------------------------------------------------------------

def random_scalar(p, rng, max_num=None, max_exp=2):
    """Nonzero element of Z[1/p]: n / p^e with small n."""
    max_num = max_num or p * p
    n = 0
    while n == 0:
        n = rng.randint(-max_num, max_num)
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


def random_in_subgroup(p, rng, tag: str, depth=3) -> Mat2:
    """Uniform-ish sample from K, I, I1 or K1 via integral entries mod p^depth."""
    span = p**depth
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
