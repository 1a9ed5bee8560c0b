"""Compact induction from F^x K in a weight, its Hecke operator, and the
quotients by polynomials in that operator.

Elements are finite formal sums [g, v] over tree vertices (right cosets
g.(F^x K)), with v a coefficient vector of the weight held as a tuple of
field codes, so sums and translates build no field objects.  The group acts
on labels by left multiplication; the Hecke operator is pinned by its value
on the canonical generator phi = [1, v0] and extended linearly and
G-equivariantly, which keeps every computation inside finite balls.

Translating a label runs in Python integers.  A vertex is a homothety class
of lattices, so g rep(v) = rep(v') p^j k with k in K is read off the integer
matrix N = (L g)(p^t rep(v)), where L clears the denominators of g and p^t
those of rep(v) (the vertex's `int_form`, kept on it): one column operation
in SL_2(Z) makes N upper triangular, the valuations of its diagonal give
v', and k comes from N by exact division.  Both scalars are central; only
the prime-to-p part of L survives, as the unit it multiplies the residue
matrix of k by.  The pair (v', residue matrix) is kept in a bounded cache
keyed on N, so a summand costs one integer product, one lookup and one
product with the weight's cached matrix of that residue; translates and
balls share one object per vertex, so vertex-keyed dicts match by identity.
`padicmat.vertex_normalize` and `fxk_factor` are the exact reference the
integer path is tested against.

T moves each vertex to its neighbours, so on coefficient vectors it is
block-sparse: the block column of T at a vertex x is one dim x dim matrix
B per vertex x', with T[x, c] the sum of the [x', B c].  It is compiled once per
(weight, variant, vertex) from translates of T phi and kept on the weight.
`hecke_T` sums the blocks of the vertices of its argument.  The block
column of P(T) at a vertex is composed from them once per (ideal, vertex).

Reduction modulo P(T) needs no ball matrix.  c-Ind is free over F[T], so
P(T) is injective, and its leading part at a vertex x (deg P spheres further
out) maps onto x's descendants there, disjoint for distinct x.  So one normal
form, computed from the outermost sphere inward with one small product per
ancestor vertex for a whole batch of vectors, serves quotient membership,
the quotient frames of the drivers (`normal_form_rows`) and `i1_fixed_ball`:
it is linear, zero exactly on the image, and exact at the radius of its
input.  `ideal_matrix` lays the block columns of P(T) out over a ball; it is
the injectivity check and the reference the normal form is tested against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import exactfield as xf
from .exactfield import Field
from .fqweights import Weight
from .padicmat import (
    Mat2,
    TreeVertex,
    diag,
    lower_u,
    pi_mat,
    s_mat,
    t_mat,
    upper_u,
    vp_split,
)

DEFAULT_R_MAX = 4


class TruncationError(ValueError):
    pass


class SpanningSetError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class CindElement:
    """Finite formal sum over tree vertices with weight-vector coefficients.

    `support` maps each vertex to its coefficient vector as a tuple of field
    codes (ints), zero vectors dropped; arithmetic runs on the codes.  The
    constructor reads each coefficient as `field.el` does (a FieldElem, or an
    int residue of the prime subfield, never a code: see `from_codes`);
    FieldElem appears nowhere else but in `repr`."""

    __slots__ = ("weight", "support")

    def __init__(self, weight: Weight, support=None):
        self.weight = weight
        clean = {}
        for v, coeffs in (support or {}).items():
            codes = tuple(weight.field.el(c).code for c in coeffs)
            if len(codes) != weight.dim:
                raise ValueError("coefficient length mismatch")
            if any(codes):
                clean[v] = codes
        self.support = clean

    @classmethod
    def from_codes(cls, weight: Weight, support: dict) -> "CindElement":
        """The element with the given code vector at each vertex: an ndarray
        or a sequence of int codes, or a tuple of Python ints, which is kept
        as it is; vertices whose vector is zero are dropped."""
        out = cls.__new__(cls)
        out.weight = weight
        out.support = {v: codes for v, c in support.items() if any(
            codes := c if type(c) is tuple
            else tuple(c.tolist() if isinstance(c, np.ndarray) else map(int, c)))}
        return out

    def is_zero(self) -> bool:
        return not self.support

    def radius(self) -> int:
        if not self.support:
            return -1
        return max(v.distance() for v in self.support)

    def __add__(self, other):
        if not isinstance(other, CindElement) or other.weight != self.weight:
            return NotImplemented
        add = self.weight.field.add_codes
        out = dict(self.support)
        for v, b in other.support.items():
            a = out.get(v)
            out[v] = b if a is None else tuple(map(add, a, b))
        return CindElement.from_codes(self.weight, out)

    def __neg__(self):
        neg = self.weight.field.neg_code
        return CindElement.from_codes(
            self.weight, {v: tuple(map(neg, codes)) for v, codes in self.support.items()})

    def __sub__(self, other):
        if not isinstance(other, CindElement):
            return NotImplemented
        return self + (-other)

    def scale(self, x) -> "CindElement":
        fld = self.weight.field
        x = fld.el(x).code
        return CindElement.from_codes(self.weight, {
            v: tuple(fld.mul_codes(x, c) for c in codes) for v, codes in self.support.items()})

    def __eq__(self, other):
        if not isinstance(other, CindElement):
            return NotImplemented
        return self.weight == other.weight and self.support == other.support

    def _sorted(self):
        return sorted(self.support.items(), key=lambda kv: kv[0].sort_key())

    def __repr__(self):
        if self.is_zero():
            return "0"
        fld = self.weight.field
        return " + ".join(f"[{v}]*{[fld.from_code(c) for c in codes]}"
                          for v, codes in self._sorted())

    def serialize(self):
        return [{"vertex": v.serialize(), "coeffs": list(codes)} for v, codes in self._sorted()]


def phi_element(weight: Weight) -> CindElement:
    """The canonical generator: supported on the base coset, value spanning
    the pro-p Iwahori fixed line."""
    v0, _ = weight.i1_fixed_line()
    base = _vertex(weight.p, 0, 0)
    return CindElement(weight, {base: v0})


def _integer_form(g: Mat2):
    """((A, B, C, D), u): the primitive integer form L g = [[A, B], [C, D]]
    of g, and u the inverse mod p of the prime-to-p part of L (the p-part of
    L is central in F^x K)."""
    return (g.A, g.B, g.C, g.D), pow(vp_split(g.L, g.p)[1], -1, g.p)


def _ext_gcd(a: int, b: int):
    """(g, x, y) with x a + y b = g = gcd(a, b) > 0, for (a, b) != (0, 0)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a > 0 else (-a, -x0, -y0)


# 2^14 holds the radius-8 ball at p=3 (13,121 vertices), one sphere past the
# radius-7 frames of `generation --p 3 --word-length 6`, so no vertex those
# frames or their translates reach is evicted and rebuilt as a second object.
@lru_cache(maxsize=1 << 14)
def _vertex(p: int, d: int, a) -> TreeVertex:
    """The shared TreeVertex (d, a), a canonical mod p^d: translates and balls
    hand out one object per vertex, so vertex-keyed dicts match by identity."""
    return TreeVertex.canonical(p, d, a)


@lru_cache(maxsize=4096)
def _translate(p: int, u: int, A: int, B: int, C: int, D: int):
    """(v', residue matrix of k) with N = [[A, B], [C, D]] = rep(v') p^j k / u
    over Z_p, k in K: the translate of a vertex whose integer form, times the
    integer form of g, is N (u as `_integer_form` gives it).

    The column operation [[D/g0, x], [-C/g0, y]] in SL_2(Z), with g0 = gcd(C, D)
    = x C + y D, makes N upper triangular, [[det N / g0, A x + B y], [0, g0]].
    With e1, e2 the valuations of its diagonal, v' = (e1 - e2, a') where a' is
    (A x + B y) / g0 reduced mod p^(e1 - e2) as `canonical_mod` reduces it, and
    k = [[p^e2, -X], [0, p^e1]] N / p^(e1 + e2) with X = a' p^e2 an integer.
    Raises ValueError unless every entry of k divides exactly and k is
    invertible mod p, so a wrong factor can never be cached."""
    det = A * D - B * C
    if not det:
        raise ValueError("singular matrix")
    if C:
        g0, x, y = _ext_gcd(C, D)
        top, right = det // g0, A * x + B * y
    else:
        g0, top, right = D, A, B
    e1 = vp_split(top, p)[0]
    e2, delta = vp_split(g0, p)
    a, X = 0, 0
    if right:
        b, beta = vp_split(right, p)
        if b < e1:  # a' = c p^(b - e2) with c a unit mod p^(e1 - b)
            span = p ** (e1 - b)
            X = beta * pow(delta, -1, span) % span * p**b
            a = Fraction(X, p**e2)
    pe1, pe2 = p**e1, p**e2
    den = pe1 * pe2
    k = []
    for entry in (pe2 * A - X * C, pe2 * B - X * D, pe1 * C, pe1 * D):
        q, rem = divmod(entry, den)
        if rem:
            raise ValueError("not in F^x K")
        k.append(u * q % p)
    if (k[0] * k[3] - k[1] * k[2]) % p == 0:
        raise ValueError("not in F^x K")
    return _vertex(p, e1 - e2, a), ((k[0], k[1]), (k[2], k[3]))


def _translate_vertex(p: int, G, u: int, vint):
    """(v', residue matrix of k) with g x = rep(v') p^j k, for (G, u) the
    integer form of g and vint = (P, X, S) that of the vertex x."""
    A, B, C, D = G
    P, X, S = vint
    return _translate(p, u, A * P, A * X + B * S, C * P, C * X + D * S)


def _translate_into(acc: dict, G, u: int, w: Weight, summands):
    """Add [g x, v] to acc (vertex -> code vector) for each (integer form of
    x, codes of v), with (G, u) the integer form of g."""
    for vint, codes in summands:
        nv, kbar = _translate_vertex(w.p, G, u, vint)
        term = xf.mat_vec_codes(w.field, w.residue_action(kbar), codes)
        acc[nv] = xf.add(w.field, acc[nv], term) if nv in acc else term


def act(g: Mat2, f: CindElement) -> CindElement:
    """Left translation on labels: [x, v] |-> [g x, v], renormalized."""
    if g.p != f.weight.p:
        raise ValueError("prime mismatch")
    G, u = _integer_form(g)
    acc = {}
    _translate_into(acc, G, u, f.weight,
                    ((v.int_form(), codes) for v, codes in f.support.items()))
    return CindElement.from_codes(f.weight, acc)


# ---------------------------------------------------------------------------
# the Hecke operator
# ---------------------------------------------------------------------------

def _spanning_set(weight: Weight, variant: str):
    """K-elements k_j with sigma(k_j) v0 a basis: u(j) s for r+1 consecutive j."""
    shift = 0 if variant == "default" else 1
    return [upper_u(weight.p, j + shift) * s_mat(weight.p) for j in range(weight.r + 1)]


def _hecke_data(weight: Weight, variant: str = "default"):
    key = ("hecke", variant)
    if key in weight._hecke_cache:
        return weight._hecke_cache[key]
    v0, _ = weight.i1_fixed_line()
    ks = _spanning_set(weight, variant)
    S = np.array([[c.code for c in weight.act(k, v0)] for k in ks], dtype=np.int64).T
    try:
        S_inv = xf.invert_matrix_codes(weight.field, S)
    except ValueError as exc:
        raise SpanningSetError("spanning set insufficient") from exc

    p = weight.p
    phi = phi_element(weight)
    tphi = CindElement(weight)
    if weight.is_character():
        # the translate of phi by Pi enters with the intrinsic coefficient
        # psi(-1) = (-1)^m; this is forced by K-semi-invariance of T(phi)
        # (act(s, T phi) = sigma(s) T phi), hence by equivariant extension
        sign = weight.field.from_int((-1) ** weight.m)
        tphi = tphi + act(pi_mat(p), phi).scale(sign)
    for lam in range(p):
        tphi = tphi + act(upper_u(p, lam) * t_mat(p), phi)
    data = (ks, S_inv, tphi)
    weight._hecke_cache[key] = data
    return data


def _hecke_blocks(weight: Weight, variant: str, vertex: TreeVertex) -> dict:
    """The block column of T at one vertex: {v': B} with T[vertex, c] the sum
    of [v', B c], every B nonzero, read-only and kept on the weight.

    Column j of V_{v'} = B_{v'} S is the part at v' of the translate of
    T phi by rep(vertex) k_j, with S the matrix of the basis sigma(k_j) v0;
    so B = V S_inv takes (r+1) |T phi| translations, made once per vertex."""
    key = ("hblock", variant, vertex)
    blocks = weight._hecke_cache.get(key)
    if blocks is not None:
        return blocks
    ks, S_inv, tphi = _hecke_data(weight, variant)
    summands = [(v.int_form(), codes) for v, codes in tphi.support.items()]
    P, X, S = vertex.int_form()
    cols = {}
    for j, k in enumerate(ks):
        acc = {}  # k_j is integral, so its L is 1
        _translate_into(acc, (P * k.A + X * k.C, P * k.B + X * k.D, S * k.C, S * k.D),
                        1, weight, summands)
        for nv, vec in acc.items():
            cols.setdefault(nv, np.zeros((weight.dim, len(ks)), dtype=np.int64))[:, j] = vec
    blocks = {}
    for nv, V in cols.items():
        B = xf.mat_mul_codes(weight.field, V, S_inv)
        if B.any():
            B.flags.writeable = False
            blocks[nv] = B
    weight._hecke_cache[key] = blocks
    return blocks


def _hecke_apply(weight: Weight, variant: str, support: dict) -> dict:
    """T on {vertex: M} with M a dim x n code matrix (n coefficient vectors at
    that vertex side by side): the sum over vertices of B M for each block B
    of the vertex's block column, accumulated per target vertex."""
    field = weight.field
    out = {}
    for vert, M in support.items():
        for nv, B in _hecke_blocks(weight, variant, vert).items():
            term = xf.mat_mul_codes(field, B, M)
            out[nv] = xf.add(field, out[nv], term) if nv in out else term
    return out


def hecke_T(f: CindElement, variant: str = "default") -> CindElement:
    """T f from the block columns of T at the vertices of f: each coefficient
    vector goes through the dim x dim blocks of its vertex, and the images
    are summed per target vertex."""
    w = f.weight
    out = _hecke_apply(w, variant, {v: np.array(codes, dtype=np.int64)[:, None]
                                    for v, codes in f.support.items()})
    return CindElement.from_codes(w, {v: M[:, 0] for v, M in out.items()})


class HeckeIdeal:
    """A monic polynomial in T over the coefficient field."""

    def __init__(self, field: Field, coeffs):
        coeffs = [field.el(c) for c in coeffs]
        if len(coeffs) < 2 or coeffs[-1] != field.one():
            raise ValueError("ideal generator must be monic of degree >= 1")
        self.field = field
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def key(self) -> tuple:
        """The coefficient codes, constant term first: equal ideals over one
        field have equal keys, whatever text they were parsed from."""
        return tuple(c.code for c in self.coeffs)

    @classmethod
    def parse(cls, field: Field, text: str) -> "HeckeIdeal":
        """Accepts "T", "T^n", and "T-c" with c an integer residue."""
        text = text.replace(" ", "")
        if text == "T":
            return cls(field, [0, 1])
        if text.startswith("T^"):
            n = int(text[2:])
            return cls(field, [0] * n + [1])
        if text.startswith("T-"):
            c = field.from_int(int(text[2:]))
            return cls(field, [-c, field.one()])
        if text.startswith("T+"):
            c = field.from_int(int(text[2:]))
            return cls(field, [c, field.one()])
        raise ValueError(f"cannot parse ideal spec {text!r}")

    def apply(self, f: CindElement) -> CindElement:
        out = f.scale(self.coeffs[0])
        power = f
        for c in self.coeffs[1:]:
            power = hecke_T(power)
            out = out + power.scale(c)
        return out

    def __repr__(self):
        bits = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if i == 0:
                bits.append(f"{c}")
            elif i == 1:
                bits.append("T" if c == self.field.one() else f"{c}*T")
            else:
                bits.append(f"T^{i}" if c == self.field.one() else f"{c}*T^{i}")
        return " + ".join(reversed(bits))


# ---------------------------------------------------------------------------
# balls and coordinates
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def ball_vertices(p: int, R: int) -> tuple:
    """All tree vertices at distance <= R, in a fixed deterministic order;
    one shared tuple per (p, R)."""
    out = [_vertex(p, 0, 0)]
    for d in range(-R, R + 1):
        if d != 0 and abs(d) <= R:
            out.append(_vertex(p, d, 0))
    # a = c * p^w nonzero, w < d, c a unit below p^(d - w): canonical
    for d in range(1, R + 1):
        for w in range(0, d):
            for c in range(1, p ** (d - w)):
                if c % p:
                    out.append(_vertex(p, d, Fraction(c) * Fraction(p) ** w))
    for w in range(-1, -(R + 1), -1):
        if w < 1 - R:
            break
        for d in range(w + 1, R + 2 * w + 1):
            for c in range(1, p ** (d - w)):
                if c % p:
                    out.append(_vertex(p, d, Fraction(c) * Fraction(p) ** w))
    return tuple(sorted((v for v in out if v.distance() <= R), key=lambda v: v.sort_key()))


class BallIndex:
    """Coordinates on the span of basis elements [vertex, e_i] with
    vertex distance <= R."""

    def __init__(self, weight: Weight, R: int):
        self.weight = weight
        self.R = R
        self.vertices = ball_vertices(weight.p, R)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.dim = len(self.vertices) * weight.dim

    def coords(self, f: CindElement) -> np.ndarray:
        out = np.zeros(self.dim, dtype=np.int64)
        d = self.weight.dim
        for v, codes in f.support.items():
            i = self.index.get(v)
            if i is None:
                raise ValueError(f"support outside ball radius {self.R}: {v}")
            out[i * d:(i + 1) * d] = codes
        return out

    def elem(self, codes) -> CindElement:
        d = self.weight.dim
        return CindElement.from_codes(self.weight, {
            v: codes[i * d:(i + 1) * d] for i, v in enumerate(self.vertices)})

    def basis_elements(self):
        return (self.elem(row) for row in np.eye(self.dim, dtype=np.int64))


@lru_cache(maxsize=4096)
def _parent(vertex: TreeVertex) -> TreeVertex:
    """The neighbour of a vertex one step nearer the base vertex: of the p + 1
    neighbours rep(vertex) [[p, l], [0, 1]] (0 <= l < p) and
    rep(vertex) [[1, 0], [0, p]], the one at distance one less."""
    p, n = vertex.p, vertex.distance() - 1
    P, X, S = vertex.int_form()
    for A, B, D in [(P * p, P * l + X, S) for l in range(p)] + [(P, X * p, S * p)]:
        nv = _translate(p, 1, A, B, 0, D)[0]
        if nv.distance() == n:
            return nv
    raise ValueError("the base vertex has no parent")


def _ideal_column(weight: Weight, ideal: HeckeIdeal, x: TreeVertex):
    """(vertices, stack, lead): P(T)'s block column at x, with P(T)[x, c] the
    sum of [vertices[i], B_i c] for B_i the i-th dim x dim block of stack.

    The column is the sum of c_n T^n[x] over the coefficients c_n of the
    ideal, T^(n+1)[x] composed from the block columns of T.  Only T^deg
    reaches the sphere deg further out than x, and only at x's descendants
    there: those vertices come first, and lead maps each to its index."""
    key = ("pcol", ideal.key, x)
    entry = weight._hecke_cache.get(key)
    if entry is not None:
        return entry
    field, d = weight.field, weight.dim
    one = field.one()
    col = {}
    power = {x: np.eye(d, dtype=np.int64)}
    for n, c in enumerate(ideal.coeffs):
        if not c.is_zero():
            for v, M in power.items():
                term = M if c == one else xf.mul(field, M, c.code)
                col[v] = xf.add(field, col[v], term) if v in col else term
        if n < ideal.degree:
            power = _hecke_apply(weight, "default", power)
    outer = x.distance() + ideal.degree
    verts = sorted(col, key=lambda v: v.distance() != outer)
    stack = np.concatenate([col[v] for v in verts])
    stack.flags.writeable = False
    lead = {v: i for i, v in enumerate(verts) if v.distance() == outer}
    entry = (tuple(verts), stack, lead)
    weight._hecke_cache[key] = entry
    return entry


def _leading_solver(weight: Weight, ideal: HeckeIdeal, x: TreeVertex) -> xf.CachedSolver:
    """A solver on the leading block L_x of P(T)'s column at x, its blocks
    at x's descendants deg spheres further out stacked.  L_x is injective
    (for deg = 1 it evaluates a degree-r form at the p or p + 1 points of
    P^1(F_p) below x, and r <= p - 1), which is what makes the normal form
    exact sphere by sphere; a rank below dim raises."""
    key = ("plead", ideal.key, x)
    solver = weight._hecke_cache.get(key)
    if solver is None:
        _, stack, lead = _ideal_column(weight, ideal, x)
        solver = xf.CachedSolver(weight.field, stack[:len(lead) * weight.dim])
        if solver.rank != weight.dim:
            raise RuntimeError(f"leading block of {ideal!r} at {x} has rank "
                               f"{solver.rank} < {weight.dim}: P(T) is not injective")
        weight._hecke_cache[key] = solver
    return solver


def ideal_matrix(weight: Weight, ideal: HeckeIdeal, R: int):
    """Matrix of ideal(T): ball(R) -> ball(R + deg), columns over the ball
    basis.  Column block x (the dim columns of one inner vertex) is P(T)'s
    block column at x from `_ideal_column`."""
    inner = BallIndex(weight, R)
    outer = BallIndex(weight, R + ideal.degree)
    d = weight.dim
    A = np.zeros((outer.dim, inner.dim), dtype=np.int64)
    for i, x in enumerate(inner.vertices):
        verts, stack, _ = _ideal_column(weight, ideal, x)
        for k, v in enumerate(verts):
            j = outer.index[v]
            A[j * d:(j + 1) * d, i * d:(i + 1) * d] = stack[k * d:(k + 1) * d]
    return A, inner, outer


# ---------------------------------------------------------------------------
# quotient membership
# ---------------------------------------------------------------------------

class MembershipResult:
    def __init__(self, status, preimage=None, certificate=None, certified_radius=None):
        self.status = status  # "zero" | "nonzero"
        self.preimage = preimage
        self.certificate = certificate
        self.certified_radius = certified_radius

    def __repr__(self):
        return f"<{self.status} @R={self.certified_radius}>"


def _normal_form(weight: Weight, ideal: HeckeIdeal, rest: dict) -> dict:
    """Reduce rest ({vertex: dim x m code matrix}, m vectors side by side,
    changed in place, zero blocks dropped) modulo the image of P(T), sphere
    by sphere from the outside in; the {x: C} whose P(T)[x, C] it subtracted.

    Sphere N >= deg is grouped by ancestor x at distance N - deg.  With B the
    blocks of rest stacked over the rows of the leading block L_x and L the
    row transform of L_x's solver (L L_x is the identity over zero rows, as
    L_x is injective), C = L[:dim] B is the unique C with B - L_x C outside
    L_x's column space, and P(T)[x, C] is subtracted from every vertex of x's
    column.  So the remainder is a linear function of the input, zero exactly
    on the image, unchanged by a second reduction, and the input minus it is
    P(T) applied to sum [x, C]."""
    field, d, deg = weight.field, weight.dim, ideal.degree
    m = next(iter(rest.values())).shape[1] if rest else 0
    zero = np.zeros((d, m), dtype=np.int64)
    pre = {}
    for N in range(max((v.distance() for v in rest), default=-1), deg - 1, -1):
        ancestors = {}
        for y in rest:
            if y.distance() == N:
                for _ in range(deg):
                    y = _parent(y)
                ancestors[y] = None
        for x in ancestors:
            verts, stack, lead = _ideal_column(weight, ideal, x)
            old = np.concatenate([rest.pop(v, zero) for v in verts])
            C = pre[x] = xf.mat_mul_codes(field, _leading_solver(weight, ideal, x).L[:d],
                                          old[:len(lead) * d])
            diff = xf.sub(field, old, xf.mat_mul_codes(field, stack, C)).reshape(-1, d, m)
            for v, block, nz in zip(verts, diff, diff.any(axis=(1, 2))):
                if nz:
                    rest[v] = block
    return pre


def normal_form_rows(ideal: HeckeIdeal, ball: BallIndex, M: np.ndarray) -> np.ndarray:
    """The normal forms modulo P(T) of the rows of M, code vectors in the
    coordinates of ball, laid out in the same coordinates: two rows agree in
    the quotient exactly when their normal forms are equal, and the rank of
    the result is the dimension of the rows' span in the quotient."""
    blocks = M.reshape(len(M), len(ball.vertices), ball.weight.dim).transpose(1, 2, 0)
    rest = {ball.vertices[i]: blocks[i] for i in np.flatnonzero(blocks.any(axis=(1, 2)))}
    _normal_form(ball.weight, ideal, rest)
    out = np.zeros_like(blocks)
    for v, block in rest.items():
        out[ball.index[v]] = block
    return out.transpose(2, 0, 1).reshape(M.shape)


def quotient_membership(f: CindElement, ideal: HeckeIdeal, R: int,
                        r_max: int = DEFAULT_R_MAX) -> MembershipResult:
    """Decide f in ideal(T).c-Ind, sphere by sphere from the outside in.

    c-Ind is free over F[T], so P(T) is injective and P(T) h has radius
    exactly radius(h) + deg: the preimage, when there is one, is unique and
    has radius <= R - deg, and no larger ball can find one that R misses, so
    no radius beyond R is tried.  f is reduced to its normal form
    (`_normal_form`), which is zero exactly on the image.  A nonzero normal
    form gives "nonzero" with it as the certificate: f minus an element of
    the image, and a normal form itself, so not in the image.  A zero normal
    form gives "zero" with the preimage h = sum [x, C] of the subtracted
    columns, re-verified by applying the ideal.
    """
    if R < f.radius():
        raise ValueError("R must be at least the radius of f")
    if R > r_max:
        raise TruncationError(
            f"truncation too small: radius {R} exceeds R_max={r_max}; raise R_max")
    w = f.weight
    rest = {v: np.array(codes, dtype=np.int64)[:, None] for v, codes in f.support.items()}
    pre = _normal_form(w, ideal, rest)
    if rest:
        return MembershipResult("nonzero", certified_radius=R, certificate=CindElement.from_codes(
            w, {v: block[:, 0] for v, block in rest.items()}))
    h = CindElement.from_codes(w, {x: C[:, 0] for x, C in pre.items()})
    if not (ideal.apply(h) - f).is_zero():
        raise RuntimeError("solver returned an invalid preimage")
    return MembershipResult("zero", preimage=h, certified_radius=R)


# ---------------------------------------------------------------------------
# fixed vectors in balls
# ---------------------------------------------------------------------------

def one_mod_p_unit_gens(p: int, N: int) -> list:
    """Generators of the units congruent to 1 mod p, modulo p^N."""
    if N <= 1:
        return []
    if p > 2:
        return [1 + p]
    if N == 2:
        return [3]
    return [2**N - 1, 5]


@lru_cache(maxsize=64)
def i1_generators(p: int, N: int) -> tuple:
    """Topological generators of the pro-p Iwahori, enough modulo level N;
    one shared tuple per (p, N)."""
    gens = [upper_u(p, 1), lower_u(p, p)]
    for u in one_mod_p_unit_gens(p, N):
        gens.append(diag(p, u, 1))
        gens.append(diag(p, 1, u))
    return tuple(gens)


def k1_check_gens(p: int) -> list:
    gens = [upper_u(p, p), lower_u(p, p), diag(p, 1 + p, 1), diag(p, 1, 1 + p)]
    return gens


def i1_fixed_ball(weight: Weight, R: int, ideal: HeckeIdeal | None = None) -> list:
    """Basis of pro-p-Iwahori-fixed elements supported in radius <= R, in the
    quotient by the ideal when one is given.

    Fixedness is solved against generators modulo the congruence level
    N = R + 1 (the principal congruence subgroup of that level acts trivially
    on the ball) and re-checked at level N + 1 for stabilization.
    """
    if R > DEFAULT_R_MAX:
        raise TruncationError(f"truncation too small: R={R} exceeds R_max={DEFAULT_R_MAX}")
    ball = BallIndex(weight, R)
    field = weight.field

    if ideal is None:
        reduce_fn = lambda M: M
    else:
        reduce_fn = lambda M: normal_form_rows(ideal, ball, M)
    d = weight.dim
    eye = np.eye(ball.dim, dtype=np.int64)
    vints = [x.int_form() for x in ball.vertices]

    def condition_matrix(level):
        # g sends the block of vertex x to the block of g x through the
        # residue matrix of its K-part: one translation per vertex; the
        # columns of every g - 1 are reduced in one batch
        cols = []
        for g in i1_generators(weight.p, level):
            G, u = _integer_form(g)
            M = np.zeros((ball.dim, ball.dim), dtype=np.int64)
            for i, vint in enumerate(vints):
                nv, kbar = _translate_vertex(weight.p, G, u, vint)
                j = ball.index[nv]
                M[j * d:(j + 1) * d, i * d:(i + 1) * d] = weight.residue_action(kbar)
            cols.append(xf.sub(field, M, eye).T)
        return np.concatenate([X.T for X in np.split(reduce_fn(np.concatenate(cols)), len(cols))])

    kern = xf.kernel_codes(field, condition_matrix(R + 1))
    kern2 = xf.kernel_codes(field, condition_matrix(R + 2))
    if kern.shape[0] != kern2.shape[0] or xf.rank_codes(
            field, np.concatenate([kern, kern2])) != kern.shape[0]:
        raise RuntimeError("fixed space did not stabilize across levels")
    # in the quotient, keep one representative per class: the normal forms
    # of the kernel modulo the ideal image (which is stable under the compact
    # action), without those that die in the quotient or repeat a class
    rows = reduce_fn(kern)
    return [ball.elem(rows[i]) for i in xf.IncrementalSpan(field, ball.dim).add(rows)]
