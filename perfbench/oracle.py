"""Independent arithmetic for the benchmark's correctness checks.

Nothing here imports gl2borel: 2x2 matrices are tuples of plain Fractions,
finite-field values are integer codes handled by tables built from scratch
(F_p by integer arithmetic, F_4 from the polynomial x^2 + x + 1), and ranks
come from a small Gaussian elimination of our own.  The checks compare the
program's outputs against these computations.
"""

from __future__ import annotations

from fractions import Fraction

# ---------------------------------------------------------------------------
# 2x2 matrices over Q as (a, b, c, d)
# ---------------------------------------------------------------------------


def frac_entries(entries) -> tuple:
    """Four exact entries from strings such as "-3/2" or anything Fraction takes."""
    return tuple(Fraction(e) for e in entries)


def mul(x, y) -> tuple:
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def det(x) -> Fraction:
    a, b, c, d = x
    return a * d - b * c


def scale(x, s) -> tuple:
    return tuple(e * s for e in x)


IDENTITY = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))


def vp(x: Fraction, p: int):
    """p-adic valuation of a nonzero rational; None for zero."""
    if x == 0:
        return None
    v = 0
    n, d = x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def is_integral(x: Fraction, p: int) -> bool:
    return x == 0 or vp(x, p) >= 0


def in_K(m, p: int) -> bool:
    """Integral entries and unit determinant: GL2(Z_p)."""
    return all(is_integral(e, p) for e in m) and vp(det(m), p) == 0


def in_P(m) -> bool:
    a, b, c, d = m
    return c == 0 and a != 0 and d != 0


def in_I1(m, p: int) -> bool:
    """Pro-p Iwahori: integral, a = d = 1 mod p, c = 0 mod p."""
    a, b, c, d = m
    return (all(is_integral(e, p) for e in m)
            and _val_at_least(a - 1, p, 1) and _val_at_least(d - 1, p, 1)
            and _val_at_least(c, p, 1))


def _val_at_least(x: Fraction, p: int, n: int) -> bool:
    return x == 0 or vp(x, p) >= n


def in_FxK(m, p: int) -> bool:
    """Whether m = p^j k with k in GL2(Z_p)."""
    v = vp(det(m), p)
    if v % 2:
        return False
    return in_K(scale(m, Fraction(p) ** (-(v // 2))), p)


def residue(x: Fraction, p: int, n: int = 1) -> int:
    """The class of a p-integral rational modulo p^n."""
    q = p ** n
    return x.numerator * pow(x.denominator, -1, q) % q


def unit_residue(x: Fraction, p: int) -> int:
    return residue(x / Fraction(p) ** vp(x, p), p)


# ---------------------------------------------------------------------------
# small finite fields as code tables
# ---------------------------------------------------------------------------


class CodeField:
    """F_p (codes 0..p-1) or F_4 = F_2[x]/(x^2+x+1) (codes c0 + 2 c1), with
    addition and multiplication tables computed here."""

    def __init__(self, p: int, k: int = 1):
        if k == 1:
            size = p
            add = [[(a + b) % p for b in range(p)] for a in range(p)]
            mul_t = [[a * b % p for b in range(p)] for a in range(p)]
        elif (p, k) == (2, 2):
            size = 4
            add = [[a ^ b for b in range(4)] for a in range(4)]
            mul_t = [[_f4_mul(a, b) for b in range(4)] for a in range(4)]
        else:
            raise ValueError("only prime fields and F_4 are modelled")
        self.p, self.k, self.size = p, k, size
        self.add_t = add
        self.mul_t = mul_t
        self.neg_t = [next(b for b in range(size) if add[a][b] == 0) for a in range(size)]
        self.inv_t = [0] + [next(b for b in range(size) if mul_t[a][b] == 1)
                            for a in range(1, size)]

    def add(self, a, b):
        return self.add_t[a][b]

    def sub(self, a, b):
        return self.add_t[a][self.neg_t[b]]

    def mul(self, a, b):
        return self.mul_t[a][b]

    def power(self, a, n: int):
        if n < 0:
            a, n = self.inv_t[a], -n
        out = 1
        for _ in range(n):
            out = self.mul_t[out][a]
        return out

    def from_int(self, n: int):
        return n % self.p


def _f4_mul(a: int, b: int) -> int:
    # polynomials c0 + c1 x over F_2, reduced by x^2 = x + 1
    a0, a1 = a & 1, a >> 1
    b0, b1 = b & 1, b >> 1
    c0 = (a0 & b0) ^ (a1 & b1)
    c1 = (a0 & b1) ^ (a1 & b0) ^ (a1 & b1)
    return c0 | (c1 << 1)


def mat_vec(F: CodeField, rows, vec) -> list:
    out = []
    for row in rows:
        acc = 0
        for x, y in zip(row, vec):
            acc = F.add(acc, F.mul(int(x), int(y)))
        out.append(acc)
    return out


def rank(F: CodeField, rows) -> int:
    """Rank by Gaussian elimination on a copy of the rows."""
    m = [[int(x) for x in row] for row in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv_l = F.inv_t[m[r][c]]
        m[r] = [F.mul(x, inv_l) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


# ---------------------------------------------------------------------------
# tame characters and principal-series evaluation
# ---------------------------------------------------------------------------


def char_value(F: CodeField, p: int, char, alpha: Fraction, delta: Fraction) -> int:
    """chi(diag(alpha, delta)) for char = (i1, i2, s1, s2) given as codes:
    s1^v(alpha) s2^v(delta) res(alpha)^i1 res(delta)^i2."""
    i1, i2, s1, s2 = char
    out = F.mul(F.power(s1, vp(alpha, p)), F.power(s2, vp(delta, p)))
    out = F.mul(out, F.power(F.from_int(unit_residue(alpha, p)), i1))
    return F.mul(out, F.power(F.from_int(unit_residue(delta, p)), i2))


def ps_points(p: int, level: int) -> list:
    return [("a", x) for x in range(p ** level)] + [("i", y) for y in range(p ** (level - 1))]


def point_matrix(p: int, point) -> tuple:
    """lower-u(x) for [x : 1], s u(p y) for [1 : p y]."""
    kind, val = point
    if kind == "a":
        return (Fraction(1), Fraction(0), Fraction(val), Fraction(1))
    return (Fraction(0), Fraction(1), Fraction(1), Fraction(p * val))


def ps_value(F: CodeField, p: int, char, table, level: int, h) -> int:
    """f(h) for the level-`level` table of f: write h = b . rep(point) with b
    upper-triangular and read chi(b) f(point)."""
    a, b, c, d = h
    if c == 0 or (d != 0 and vp(d, p) <= vp(c, p)):
        x = c / d
        # h . lower-u(-x) is upper-triangular with diagonal (a - b x, d)
        diag_a, diag_d = a - b * x, d
        idx = residue(x, p, level)
    else:
        w = d / c
        # h . (s u(w))^-1 = [[b - a w, a], [0, c]]
        diag_a, diag_d = b - a * w, c
        idx = p ** level + (residue(w / p, p, level - 1) if level > 1 else 0)
    return F.mul(char_value(F, p, char, diag_a, diag_d), int(table[idx]))


def ps_act_entry(F: CodeField, p: int, char, table, level: int, g, point) -> int:
    """Entry of g . f at `point` (right translation): f(rep(point) g)."""
    return ps_value(F, p, char, table, level, mul(point_matrix(p, point), g))
