"""Smooth principal series induced from a tame torus character, modeled at
finite level by tables on P^1(Z/p^N).

A level-N function is right-invariant under the principal congruence subgroup
of level N; its points are [x : 1] for x in Z/p^N and [1 : p y] for y in
Z/p^(N-1), with exact matrix representatives lower-u(x) and s u(p y).  The
group acts by right translation on arguments; each action raises the level by
at most v(det g) - 2 min-valuation(g).

An action is a compiled monomial table: for each point x of the raised level,
x g = b . rep(x') with b upper-triangular and x' a point of the source level,
so (g . f)(x) = chi(b) f(x').  Its geometry, the index of x' and the
valuations and unit residues of b's diagonal, depends only on (g, level) and
is shared by every character; a character's coefficients chi(b) are one
gather from the exp/log tables of its field.  Both are kept in bounded
caches, so applying g is one gather and one field multiplication.  The
compiler factors every point on the bottom row of rep(x) L g, L g the
primitive integer form of g, in exact Python integers.  `_coset_factor` is
the same factorisation of one product rep(x) g through `padicmat.iwasawa`,
and `evaluate` applies it to a single group element: they are the reference
the tables are tested against.  The pro-p Iwahori keeps the level, so its
fixed vectors are read off the orbits of its tables
(`exactfield.monomial_fixed`).  Refinement to a finer level is a gather
through a cached index of point reductions.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import exactfield as xf
from .exactfield import FieldElem
from .fqweights import TorusCharacter
from .padicmat import Mat2, PadicRational, iwasawa, s_mat, t_mat, tree_distance, upper_u, vp_split
from .compactind import i1_generators

N_MAX = 4  # the finest level a table may reach


class LevelOverflowError(ValueError):
    pass


class ModelInconsistencyError(RuntimeError):
    pass


def level_shift(g: Mat2) -> int:
    """How many levels a right translation by g can cost: the tree distance
    of g, symmetric in g and its inverse."""
    return tree_distance(g)


class PSFunction:
    """A level-N vector of the principal series attached to chi."""

    __slots__ = ("chi", "level", "table")

    def __init__(self, chi: TorusCharacter, level: int, table):
        if level < 1:
            raise ValueError("level must be >= 1")
        self.chi = chi
        self.level = level
        self.table = np.asarray(table, dtype=np.int64)
        expected = chi.p**level + chi.p ** (level - 1)
        if self.table.shape != (expected,):
            raise ValueError("table size does not match the level")

    @classmethod
    def zero(cls, chi, level=1):
        p = chi.p
        return cls(chi, level, np.zeros(p**level + p ** (level - 1), dtype=np.int64))

    @property
    def field(self):
        return self.chi.field

    @property
    def p(self):
        return self.chi.p

    def is_zero(self) -> bool:
        return not np.any(self.table)

    def value(self, point) -> FieldElem:
        return self.field.from_code(int(self.table[point_index(self.p, self.level, point)]))

    def refine(self, to_level: int) -> "PSFunction":
        """Pull back to a finer level (no-op on the function it represents)."""
        _check_refine(self.level, to_level)
        if to_level == self.level:
            return self
        out = self.table[_refine_index(self.p, self.level, to_level)]
        return PSFunction(self.chi, to_level, out)

    def _pair(self, other):
        if not isinstance(other, PSFunction) or other.chi != self.chi:
            raise ValueError("mismatched principal-series vectors")
        lv = max(self.level, other.level)
        return self.refine(lv), other.refine(lv)

    def __add__(self, other):
        a, b = self._pair(other)
        return PSFunction(self.chi, a.level, xf.add(self.field, a.table, b.table))

    def __neg__(self):
        return self.scale(self.field.from_int(-1))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "PSFunction":
        c = self.field.el(c) if not isinstance(c, FieldElem) else c
        return PSFunction(self.chi, self.level, xf.mul(self.field, self.table, c.code))

    def __eq__(self, other):
        if not isinstance(other, PSFunction):
            return NotImplemented
        a, b = self._pair(other)
        return bool(np.array_equal(a.table, b.table))

    def __repr__(self):
        return f"<PS chi={self.chi} level={self.level}>"

    def serialize(self):
        return {
            "chi": repr(self.chi),
            "level": self.level,
            "values": [int(c) for c in self.table],
        }


def point_index(p: int, N: int, point) -> int:
    kind, val = point
    if kind == "a":
        return val
    return p**N + val


def _check_refine(level: int, to_level: int):
    if to_level < level:
        raise ValueError("cannot coarsen a table")
    if to_level > N_MAX:
        raise LevelOverflowError("level overflow")


@lru_cache(maxsize=64)
def _refine_index(p: int, level: int, to_level: int) -> np.ndarray:
    """Index at `level` of each point of `to_level` reduced to it: [x : 1] to
    x mod p^level, [1 : p y] to p^level + y mod p^(level-1); read-only."""
    idx = np.concatenate([np.arange(p**to_level) % p**level,
                          p**level + np.arange(p ** (to_level - 1)) % p ** (level - 1)])
    idx.flags.writeable = False
    return idx


def _coset_factor(p: int, g: Mat2, level: int):
    """g = b . rep with b upper-triangular and rep the exact representative of
    the level-`level` point of g's coset; returns (b, point).  rep is the K
    factor of `iwasawa`: lower-u(x) = [[L, 0], [C, L]] / L with x = C / L
    integral, or s u(p y) = [[0, L], [L, D]] / L with p y = D / L."""
    b, k = iwasawa(g)
    if k.A:
        q = p**level
        return b, ("a", k.C * pow(k.L, -1, q) % q)
    q = p ** (level - 1)
    return b, ("i", k.D // p * pow(k.L, -1, q) % q)


def evaluate(f: PSFunction, g: Mat2) -> FieldElem:
    """Exact evaluation of the smooth function at an arbitrary group element:
    factor g = b . rep through the exact representative of its coset point."""
    b, pt = _coset_factor(f.p, g, f.level)
    return f.chi.value_upper(b) * f.value(pt)


def _raised_level(g: Mat2, level: int) -> int:
    new_level = level + level_shift(g)
    if new_level > N_MAX:
        raise LevelOverflowError(
            f"level overflow: need level {new_level} > N_max={N_MAX}")
    return new_level


@lru_cache(maxsize=1024)
def _geometry(g: Mat2, level: int):
    """The character-free part of right translation by g from `level`:
    (src, torus, key).  The point i of the raised level level + level_shift(g)
    factors as rep(i) g = b . rep(src[i]), and torus[:, key[i]] holds
    (va, ra, vd, rd), the valuations and unit residues mod p of the diagonal
    entries alpha, delta of b.  Read-only, shared by every character.

    Every point is factored in Python integers, as `_coset_factor` factors
    rep(x) g.  With L the common denominator of g's entries and
    G = L g = [[A, B], [C, D]], the bottom row (C', D') of rep(x) G is
    (xA + C, xB + D) at [x : 1], where det rep(x) = 1, and (A + py C, B + py D)
    at [1 : p y], where det rep(x) = -1.  If v(D') <= v(C'), then x' = C'/D' and
    b = [[det rep(x) det(g) L / D', *], [0, D' / L]]; otherwise
    p y' = D'/C' and b = [[-det rep(x) det(g) L / C', *], [0, C' / L]].
    The diagonal of b depends only on the sign, the valuation and the unit
    residue mod p of D' (or C'), so torus has one column per such key."""
    p = g.p
    L, (A, B, C, D) = g.integral_form()
    vl, ul = vp_split(L, p)
    vdet, udet = vp_split(A * D - B * C, p)
    new_level = level + level_shift(g)
    rows = [(x * A + C, x * B + D, 1) for x in range(p**new_level)]
    rows += [(A + p * y * C, B + p * y * D, -1) for y in range(p ** (new_level - 1))]
    q, q_inf = p**level, p ** (level - 1)
    src = np.empty(len(rows), dtype=np.intp)
    key = np.empty(len(rows), dtype=np.intp)
    keys = {}
    for i, (c, d, sign) in enumerate(rows):
        e, u = vp_split(d, p) if d else (0, 0)
        if d and c % p**e == 0:  # the affine branch: x' = C'/D'
            src[i] = c // p**e * pow(u, -1, q) % q
        else:  # the infinity branch: y' = D'/(p C'), 0 at level 1
            e, u = vp_split(c, p)
            sign = -sign
            src[i] = q + d // p ** (e + 1) * pow(u, -1, q_inf) % q_inf
        key[i] = keys.setdefault((sign, e, u % p), len(keys))
    # b.a = sign det(L g) / (L D') and b.d = D' / L, D' = p^e u
    torus = np.array([(vdet - vl - e, sign * udet * pow(ul * r, -1, p) % p,
                       e - vl, r * pow(ul, -1, p) % p) for sign, e, r in keys],
                     dtype=np.int64).T
    for arr in (src, torus, key):
        arr.flags.writeable = False
    return src, torus, key


@lru_cache(maxsize=1024)
def _action_table(g: Mat2, chi: TorusCharacter, level: int):
    """Right translation by g from `level` as a monomial table (src, coef):
    (g . f).table = coef * f.table[src] at level + level_shift(g).  src is
    the geometry's, and coef = chi(b) is one gather of chi's values at the
    geometry's torus keys."""
    src, torus, key = _geometry(g, level)
    coef = chi.value_codes(torus)[key]
    coef.flags.writeable = False  # shared by every caller with an equal key
    return src, coef


def ps_act(g: Mat2, f: PSFunction) -> PSFunction:
    """Right translation: (g . f)(x) = f(x g), tabulated at the raised level."""
    new_level = _raised_level(g, f.level)
    src, coef = _action_table(g, f.chi, f.level)
    return PSFunction(f.chi, new_level, xf.mul(f.field, coef, f.table[src]))


def eval_at_identity(f: PSFunction) -> FieldElem:
    return f.value(("a", 0))


def make_phi1(chi: TorusCharacter) -> PSFunction:
    """The pro-p-Iwahori-fixed function supported on P.I1 with value 1 at 1."""
    p = chi.p
    table = np.zeros(p + 1, dtype=np.int64)
    table[0] = 1  # the point [0:1]; all other level-1 points lie off P.I1
    return PSFunction(chi, 1, table)


def make_phi2(chi: TorusCharacter) -> PSFunction:
    """Sum over lambda of u(lift(lambda)) s applied to phi1."""
    p = chi.p
    phi1 = make_phi1(chi)
    out = PSFunction.zero(chi, 1)
    for lam in range(p):
        out = out + ps_act(upper_u(p, lam) * s_mat(p), phi1)
    return out


def action_table(chi: TorusCharacter, g: Mat2, N: int):
    """ps_act(g, .) from level N as its monomial table (src, coef): the table
    of g . f at level N + level_shift(g) is coef * f.table[src].  Raises
    LevelOverflowError when that level exceeds N_MAX.  The arrays are
    read-only and shared with every caller of an equal (g, chi, N)."""
    _raised_level(g, N)
    return _action_table(g, chi, N)


def action_matrix(chi: TorusCharacter, g: Mat2, N: int):
    """Matrix of ps_act(g, .) from level N to level N + shift, on code tables:
    the monomial matrix with coef[i] at (i, src[i])."""
    src, coef = action_table(chi, g, N)
    out = np.zeros((len(src), chi.p**N + chi.p ** (N - 1)), dtype=np.int64)
    out[np.arange(len(src)), src] = coef
    return out


def refine_matrix(chi: TorusCharacter, N: int, to_level: int):
    """Matrix of refine from level N to `to_level`: 1 at (i, idx[i])."""
    _check_refine(N, to_level)
    idx = _refine_index(chi.p, N, to_level)
    out = np.zeros((len(idx), chi.p**N + chi.p ** (N - 1)), dtype=np.int64)
    out[np.arange(len(idx)), idx] = 1
    return out


def i1_invariants(chi: TorusCharacter, N: int) -> list:
    """Basis of the pro-p-Iwahori-fixed vectors at level N: the generators
    lie in K, so they keep the level and act by monomial tables, and the
    basis is read off their orbits."""
    tables = [_action_table(g, chi, N) for g in i1_generators(chi.p, N)]
    fixed = xf.monomial_fixed(chi.field, tables, chi.p**N + chi.p ** (N - 1))
    return [PSFunction(chi, N, row) for row in fixed]


def eigen_relation(chi: TorusCharacter) -> FieldElem:
    """The nonzero scalar with sum_mu u(lift(mu)) t . phi2 = lambda . phi2."""
    p = chi.p
    phi2 = make_phi2(chi)
    w = PSFunction.zero(chi, 2)
    for mu in range(p):
        w = w + ps_act(upper_u(p, mu) * t_mat(p), phi2)
    phi2r = phi2.refine(w.level)
    nz = np.nonzero(phi2r.table)[0]
    if nz.size == 0:
        raise ModelInconsistencyError("model inconsistency: phi2 vanished")
    field = chi.field
    lam_code = field.mul_codes(int(w.table[nz[0]]), field.inv_code(int(phi2r.table[nz[0]])))
    lam = field.from_code(lam_code)
    if not (w - phi2r.scale(lam)).is_zero():
        raise ModelInconsistencyError("model inconsistency: sum not proportional to phi2")
    if lam.is_zero():
        raise ModelInconsistencyError("model inconsistency: eigenvalue zero")
    return lam


# ---------------------------------------------------------------------------
# the determinant-character splitting
# ---------------------------------------------------------------------------

class DetSplitting:
    """For chi = psi o det: the P-equivariant projector and section of the
    evaluation sequence, and the dictionary between its kernel and the
    Steinberg model inside the trivial principal series."""

    def __init__(self, chi: TorusCharacter):
        if not chi.is_det_twist():
            raise ValueError("character does not factor through det")
        self.chi = chi
        self.exponent = chi.i1
        self.scalar = chi.s1  # value of psi at p
        self.trivial = TorusCharacter.trivial(chi.field)

    def psi_hat(self, x: PadicRational) -> FieldElem:
        """psi extended to Q^x by psi(p) = scalar."""
        field = self.chi.field
        return self.scalar ** x.valuation * field.from_int(x.unit_residue()) ** self.exponent

    def det_function(self, level: int = 1) -> PSFunction:
        """The G-eigenfunction g |-> psi(det g), tabulated once per (chi, level)."""
        return PSFunction(self.chi, level, _det_table(self.chi, level))

    def project(self, f: PSFunction) -> FieldElem:
        return eval_at_identity(f)

    def include(self, c, level: int = 1) -> PSFunction:
        return self.det_function(level).scale(c)

    def kappa_part(self, f: PSFunction) -> PSFunction:
        return f - self.include(self.project(f), f.level)

    def to_steinberg(self, f: PSFunction) -> PSFunction:
        """Pointwise division by psi(det): lands in the trivial-character
        series, intertwining the action up to the psi(det g) twist."""
        field = self.chi.field
        inv = [field.inv_code(int(c)) for c in self.det_function(f.level).table]
        return PSFunction(self.trivial, f.level, xf.mul(field, f.table, inv))

    def from_steinberg(self, f: PSFunction) -> PSFunction:
        table = xf.mul(self.chi.field, f.table, self.det_function(f.level).table)
        return PSFunction(self.chi, f.level, table)


@lru_cache(maxsize=256)
def _det_table(chi: TorusCharacter, level: int) -> np.ndarray:
    """psi(det) at the representative of each level-`level` point, for
    chi = psi o det: det rep = 1 on [x : 1] and -1 on [1 : p y].  Shared
    read-only by every caller with an equal key."""
    p = chi.p
    psi_hat = DetSplitting(chi).psi_hat
    table = np.repeat([psi_hat(PadicRational(p, 1)).code, psi_hat(PadicRational(p, -1)).code],
                      [p**level, p ** (level - 1)]).astype(np.int64)
    table.flags.writeable = False
    return table


def random_ps_function(chi: TorusCharacter, N: int, rng) -> PSFunction:
    p = chi.p
    dim = p**N + p ** (N - 1)
    table = np.array([rng.randrange(chi.field.size) for _ in range(dim)], dtype=np.int64)
    return PSFunction(chi, N, table)
