"""Irreducible GL_2(F_p) representations Sym^r tensor det^m, tame torus
characters, induction from the Iwahori, and irreducibility testing.

Ind_I^K chi is the level-1 principal series restricted to K: the level-1
points of P^1 are the cosets I\\K, so its generators are read off the
compiled `principalseries` tables rather than built a second time.

Action convention, fixed once: a matrix g = [[a,b],[c,d]] acts on the row of
linear forms (x y) by right multiplication, so x |-> a x + c y and
y |-> b x + d y.  Polynomials in x, y are listed on the basis
x^r, x^(r-1) y, ..., y^r.  With this convention the upper unipotent fixes the
monomial x^r, and diag(lam, mu) acts on it by lam^(r+m) mu^m.
"""

from __future__ import annotations

from math import comb

import numpy as np

from . import exactfield as xf
from .exactfield import Field, FieldElem
from .padicmat import Mat2, in_subgroup, vp_split


def primitive_root(p: int) -> int:
    """The least primitive root mod p (1 at p = 2), read off the cached
    exp/log table of F_p."""
    exp, _ = xf.exp_log(p, (0, 1))
    return int(exp[1 % (p - 1)])


class Weight:
    """The (r+1)-dimensional representation Sym^r tensor det^m of GL_2(F_p),
    inflated to GL_2(Z_p) through reduction mod p (so K_1 acts trivially)."""

    def __init__(self, p: int, r: int, m: int, field: Field | None = None):
        if field is None:
            field = Field(p)
        if field.p != p:
            raise ValueError("field characteristic mismatch")
        if not 0 <= r <= p - 1:
            raise ValueError(f"r must be in 0..{p - 1}")
        if not 0 <= m < max(p - 1, 1):
            raise ValueError(f"m must be in 0..{max(p - 2, 0)}")
        self.p = p
        self.r = r
        self.m = m
        self.field = field
        self.dim = r + 1
        self._hecke_cache = {}
        # residue matrix -> action_matrix, read-only: at most |GL2(F_p)| keys
        self._residue_cache = {}

    def is_character(self) -> bool:
        return self.r == 0

    def __eq__(self, other):
        return (
            isinstance(other, Weight)
            and (self.p, self.r, self.m) == (other.p, other.r, other.m)
            and self.field.same_as(other.field)
        )

    def __hash__(self):
        return hash((self.p, self.r, self.m, self.field.k))

    def __repr__(self):
        return f"Sym^{self.r} det^{self.m}"

    # -- matrices -------------------------------------------------------------
    def action_matrix(self, gbar) -> np.ndarray:
        """Matrix of gbar = [[a,b],[c,d]] (integer residues) in code form;
        column i is the image of x^(r-i) y^i."""
        p, r = self.p, self.r
        (a, b), (c, d) = gbar
        det = (a * d - b * c) % p
        if det == 0:
            raise ValueError("not invertible mod p")
        detm = pow(det, self.m, p)
        cols = []
        for i in range(r + 1):
            # (a x + c y)^(r-i) * (b x + d y)^i, coefficients by y-degree
            first = [comb(r - i, j) * pow(a, r - i - j, p) * pow(c, j, p) % p
                     for j in range(r - i + 1)]
            second = [comb(i, j) * pow(b, i - j, p) * pow(d, j, p) % p
                      for j in range(i + 1)]
            out = [0] * (r + 1)
            for j1, c1 in enumerate(first):
                if c1:
                    for j2, c2 in enumerate(second):
                        out[j1 + j2] = (out[j1 + j2] + c1 * c2) % p
            cols.append([x * detm % p for x in out])
        # residues embed through the prime subfield, where codes coincide
        return np.array(cols, dtype=np.int64).T

    def residue_action(self, kbar) -> np.ndarray:
        """action_matrix(kbar) for a residue matrix as reduce_k returns it,
        built once per residue matrix and shared read-only by every caller."""
        mat = self._residue_cache.get(kbar)
        if mat is None:
            mat = self.action_matrix(kbar)
            mat.flags.writeable = False
            self._residue_cache[kbar] = mat
        return mat

    @staticmethod
    def reduce_k(k: Mat2):
        """Residue matrix of k in K, entries in 0..p-1; raises if k is not
        integral."""
        if not in_subgroup(k, "K"):
            raise ValueError("not integral")
        p = k.p
        u = pow(k.L, -1, p)
        return ((k.A * u % p, k.B * u % p), (k.C * u % p, k.D * u % p))

    def act(self, k: Mat2, vec) -> list:
        """Apply k in K to a coefficient vector."""
        codes = self._vec_codes(vec)
        out = xf.mat_vec_codes(self.field, self.residue_action(self.reduce_k(k)), codes)
        return [self.field.from_code(int(c)) for c in out]

    def _vec_codes(self, vec) -> np.ndarray:
        if len(vec) != self.dim:
            raise ValueError("vector length mismatch")
        out = []
        for x in vec:
            out.append(x.code if isinstance(x, FieldElem) else self.field.el(x).code)
        return np.array(out, dtype=np.int64)

    def i1_fixed_line(self):
        """(v0, (e1, e2)): the line fixed by the pro-p Iwahori and the
        character exponents of the Iwahori torus on it."""
        u1 = self.action_matrix(((1, 1), (0, 1)))
        lp = self.action_matrix(((1, 0), (0, 1)))  # lower-u(p) reduces to 1 mod p
        eye = np.eye(self.dim, dtype=np.int64)
        stacked = np.concatenate([xf.sub(self.field, u1, eye), xf.sub(self.field, lp, eye)])
        kern = xf.kernel_codes(self.field, stacked)
        if kern.shape[0] != 1:
            raise RuntimeError("weight model broken: fixed space not a line")
        v0 = kern[0]
        g = primitive_root(self.p)
        e1 = self._eigen_exponent(((g, 0), (0, 1)), v0)
        e2 = self._eigen_exponent(((1, 0), (0, g)), v0)
        return [self.field.from_code(int(c)) for c in v0], (e1, e2)

    def _eigen_exponent(self, gbar, v0) -> int:
        p = self.p
        out = xf.mat_vec_codes(self.field, self.action_matrix(gbar), v0)
        nz = int(np.nonzero(v0)[0][0])
        lam = self.field.mul_codes(int(out[nz]), self.field.inv_code(int(v0[nz])))
        if not np.array_equal(out, xf.mul(self.field, v0, lam)):
            raise RuntimeError("weight model broken: torus not scalar on fixed line")
        return int(xf.exp_log(p, (0, 1))[1][lam])

    def k_module(self) -> "FiniteKModule":
        gens = {
            name: self.action_matrix(mat)
            for name, mat in standard_k_residue_gens(self.p).items()
        }
        return FiniteKModule(self.field, self.dim, gens)


# ---------------------------------------------------------------------------
# tame torus characters
# ---------------------------------------------------------------------------

class TorusCharacter:
    """Tame character of the diagonal torus: exponents (i1, i2) mod p-1 on
    unit lifts, scalars (s1, s2) = values at diag(p,1), diag(1,p)."""

    def __init__(self, field: Field, i1: int, i2: int, s1, s2):
        self.field = field
        self.p = field.p
        n = max(self.p - 1, 1)
        self.i1 = i1 % n
        self.i2 = i2 % n
        self.s1 = field.el(s1)
        self.s2 = field.el(s2)
        if self.s1.is_zero() or self.s2.is_zero():
            raise ValueError("character scalars must be nonzero")
        self._exp, self._log = xf.exp_log(self.p, field.modulus)
        # s1^va ra^i1 s2^vd rd^i2 = g^e with e = _weights . (va, log ra, vd, log rd)
        self._weights = np.array([self._log[self.s1.code], self.i1,
                                  self._log[self.s2.code], self.i2])

    @classmethod
    def trivial(cls, field: Field):
        return cls(field, 0, 0, 1, 1)

    def value_codes(self, torus):
        """Codes of the values at diag(alpha, delta) for the rows
        (va, ra, vd, rd) of torus, elementwise: the valuations and the unit
        residues 0 < r < p of alpha and delta.  One gather from the exp table
        at va log s1 + i1 log ra + vd log s2 + i2 log rd mod q - 1."""
        logs = np.array(torus, dtype=np.int64)
        logs[1::2] = self._log[logs[1::2]]
        return self._exp[self._weights @ logs % (self.field.size - 1)]

    def value_parts(self, va: int, ra: int, vd: int, rd: int) -> FieldElem:
        """The value at diag(alpha, delta), as value_codes gives it."""
        return self.field.from_code(int(self.value_codes([va, ra, vd, rd])))

    def value_upper(self, b: Mat2) -> FieldElem:
        """chi of the diagonal of b in P: alpha = A / L and delta = D / L."""
        if not in_subgroup(b, "P"):
            raise ValueError("not upper triangular")
        p = b.p
        vl, ul = vp_split(b.L, p)
        va, ua = vp_split(b.A, p)
        vd, ud = vp_split(b.D, p)
        inv = pow(ul, -1, p)
        return self.value_parts(va - vl, ua * inv % p, vd - vl, ud * inv % p)

    def conj(self) -> "TorusCharacter":
        return TorusCharacter(self.field, self.i2, self.i1, self.s2, self.s1)

    def is_symmetric(self) -> bool:
        return self == self.conj()

    def is_det_twist(self) -> bool:
        """Whether the character factors through the determinant."""
        return self.i1 == self.i2 and self.s1 == self.s2

    def __eq__(self, other):
        return (
            isinstance(other, TorusCharacter)
            and self.field.same_as(other.field)
            and (self.i1, self.i2) == (other.i1, other.i2)
            and self.s1 == other.s1
            and self.s2 == other.s2
        )

    def __hash__(self):
        return hash((self.i1, self.i2, self.s1.code, self.s2.code))

    def __repr__(self):
        return f"({self.i1},{self.i2};{self.s1},{self.s2})"


# ---------------------------------------------------------------------------
# finite K-modules
# ---------------------------------------------------------------------------

def standard_k_residue_gens(p: int) -> dict:
    """Generators of GL_2(F_p) as integer residue matrices."""
    g = primitive_root(p)
    return {
        "u1": ((1, 1), (0, 1)),
        "l1": ((1, 0), (1, 1)),
        "s": ((0, 1), (1, 0)),
        "dg1": ((g, 0), (0, 1)),
        "d1g": ((1, 0), (0, g)),
    }


class FiniteKModule:
    """Finite-dimensional K-module given by action matrices for the fixed
    generating set of GL_2(F_p)."""

    def __init__(self, field: Field, dim: int, gens: dict):
        self.field = field
        self.dim = dim
        self.gens = {k: np.asarray(v, dtype=np.int64) for k, v in gens.items()}

    def check_relations(self) -> bool:
        """Spot-check the defining relations of the generator set."""
        f = self.field
        eye = np.eye(self.dim, dtype=np.int64)
        mm = lambda A, B: xf.mat_mul_codes(f, A, B)
        power = lambda A, n: eye if n == 0 else mm(power(A, n - 1), A)
        s, u1, l1 = self.gens["s"], self.gens["u1"], self.gens["l1"]
        ok = np.array_equal(mm(s, s), eye)
        ok = ok and np.array_equal(power(u1, self.field.p), eye)
        ok = ok and np.array_equal(power(l1, self.field.p), eye)
        ok = ok and np.array_equal(mm(mm(s, u1), s), l1)
        n = self.field.p - 1
        if n:
            ok = ok and np.array_equal(power(self.gens["dg1"], n), eye)
            ok = ok and np.array_equal(power(self.gens["d1g"], n), eye)
        return bool(ok)

    def span_closure(self, rows: np.ndarray) -> np.ndarray:
        """Smallest K-stable subspace containing the given row vectors, as
        an RREF basis (rows), by spin-up: only new rows are acted on."""
        span = xf.IncrementalSpan(self.field, self.dim)
        new = np.asarray(rows, dtype=np.int64)
        while len(new := new[span.add(new)]):
            new = np.concatenate([xf.mat_mul_codes(self.field, new, A.T)
                                  for A in self.gens.values()])
        return span.rows[np.argsort(span.leads)]


def induce_from_iwahori(chi: TorusCharacter) -> FiniteKModule:
    """Ind_I^K chi, which is the level-1 principal series of chi restricted
    to K: functions on the p+1 cosets I\\K at the points lower-u(0..p-1) and
    s, each generator acting by its compiled level-1 table."""
    from . import principalseries as ps  # principalseries imports this module

    gens = {name: ps.action_matrix(chi, Mat2(chi.p, a, b, c, d), 1)
            for name, ((a, b), (c, d)) in standard_k_residue_gens(chi.p).items()}
    return FiniteKModule(chi.field, chi.p + 1, gens)


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------

class IrreducibilityVerdict:
    def __init__(self, status, witness=None, detail=""):
        self.status = status  # "irreducible" | "reducible" | "inconclusive"
        self.witness = witness  # basis rows of a proper submodule, if reducible
        self.detail = detail

    def __repr__(self):
        return f"<{self.status}: {self.detail}>"


def is_irreducible(mod: FiniteKModule) -> IrreducibilityVerdict:
    """Decide irreducibility by the fixed-vector criterion.

    Any nonzero submodule meets the U-fixed space in a joint eigenline of the
    residue torus (eigenvalues are (p-1)-th roots of unity, hence live in the
    prime field).  All such lines are enumerated; the module is reducible
    exactly when one of them generates a proper submodule.  When that test
    passes, a one-dimensional commutant upgrades the verdict to (absolutely)
    irreducible; otherwise the verdict is inconclusive.
    """
    field = mod.field
    p = field.p
    eye = np.eye(mod.dim, dtype=np.int64)
    ufix = xf.kernel_codes(field, xf.sub(field, mod.gens["u1"], eye))
    if ufix.shape[0] == 0:
        return IrreducibilityVerdict("inconclusive", detail="no U-fixed vectors")

    # restrict the torus generators to the U-fixed space
    d1, d2 = _restrict(field, [mod.gens["dg1"], mod.gens["d1g"]], ufix)
    g = field.from_int(primitive_root(p))
    wdim = ufix.shape[0]
    weye = np.eye(wdim, dtype=np.int64)

    lines = []
    exps = range(max(p - 1, 1))
    for e1 in exps:
        for e2 in exps:
            lam1 = (g**e1).code
            lam2 = (g**e2).code
            stack = np.concatenate([
                xf.sub(field, d1, xf.mul(field, weye, lam1)),
                xf.sub(field, d2, xf.mul(field, weye, lam2)),
            ])
            E = xf.kernel_codes(field, stack)
            if E.shape[0] == 0:
                continue
            count = (field.size ** E.shape[0] - 1) // (field.size - 1)
            if count > 2000:
                return IrreducibilityVerdict(
                    "inconclusive", detail=f"eigenspace too large ({count} lines)")
            for vec in _enumerate_lines(field, E):
                lines.append((e1, e2, xf.mat_vec_codes(field, ufix.T, vec)))

    for e1, e2, line in lines:
        span = mod.span_closure(line[None, :])
        if span.shape[0] < mod.dim:
            return IrreducibilityVerdict(
                "reducible", witness=span,
                detail=f"eigenline ({e1},{e2}) generates dim {span.shape[0]}")

    cdim = commutant_dimension(mod)
    if cdim == 1:
        return IrreducibilityVerdict("irreducible",
                                     detail=f"{len(lines)} eigenlines, scalar commutant")
    return IrreducibilityVerdict(
        "inconclusive",
        detail=f"irreducible over {field!r} but commutant has dim {cdim}")


def _restrict(field, mats, basis_rows):
    """Matrices of mats on the subspace spanned by basis_rows (must be stable)."""
    return xf.basis_coordinates(
        field, basis_rows, (xf.mat_mul_codes(field, basis_rows, A.T) for A in mats))


def _enumerate_lines(field, basis_rows):
    """All lines of the row space, one normalized vector per line."""
    e = basis_rows.shape[0]
    q = field.size
    seen = set()
    out = []
    for code in range(1, q**e):
        coeffs = []
        c = code
        for _ in range(e):
            coeffs.append(c % q)
            c //= q
        vec = xf.mat_vec_codes(field, basis_rows.T, coeffs)
        nz = np.nonzero(vec)[0]
        if nz.size == 0:
            continue
        vec = xf.mul(field, vec, field.inv_code(int(vec[nz[0]])))
        key = tuple(int(x) for x in vec)
        if key not in seen:
            seen.add(key)
            out.append(vec)
    return out


def restrict_module(mod: FiniteKModule, basis_rows: np.ndarray) -> FiniteKModule:
    """The module structure on a stable subspace, in the given basis."""
    gens = dict(zip(mod.gens, _restrict(mod.field, mod.gens.values(), basis_rows)))
    return FiniteKModule(mod.field, basis_rows.shape[0], gens)


def commutant_dimension(mod: FiniteKModule) -> int:
    """Dimension of the algebra of matrices commuting with all generators."""
    pairs = [(A, A) for A in mod.gens.values()]
    return len(xf.matrix_relation_kernel(mod.field, pairs, mod.dim, mod.dim))


def intertwiner_dimension(field, gens1: dict, gens2: dict, dim1: int, dim2: int) -> int:
    """dim Hom_K(V1, V2) for modules given by matching generator dicts."""
    pairs = [(gens1[name], gens2[name]) for name in gens1]
    return len(xf.matrix_relation_kernel(field, pairs, dim1, dim2))


def all_stable_subspaces(mod: FiniteKModule):
    """Exhaustive submodule lattice by enumerating every RREF basis.

    Only sensible at desk scale (used for p in {2,3}, dim <= p+1)."""
    field = mod.field
    n = mod.dim
    q = field.size
    found = [np.zeros((0, n), dtype=np.int64)]
    from itertools import combinations, product

    for d in range(1, n):
        for pivots in combinations(range(n), d):
            free_positions = []
            for ri, pc in enumerate(pivots):
                for col in range(pc + 1, n):
                    if col not in pivots:
                        free_positions.append((ri, col))
            for assignment in product(range(q), repeat=len(free_positions)):
                B = np.zeros((d, n), dtype=np.int64)
                for ri, pc in enumerate(pivots):
                    B[ri, pc] = 1
                for (ri, col), val in zip(free_positions, assignment):
                    B[ri, col] = val
                if _is_stable(mod, B):
                    found.append(B)
    found.append(np.eye(n, dtype=np.int64))
    return found


def _is_stable(mod, basis_rows):
    field = mod.field
    rk = basis_rows.shape[0]
    for A in mod.gens.values():
        img = xf.mat_mul_codes(field, basis_rows, A.T)
        if xf.rank_codes(field, np.concatenate([basis_rows, img])) != rk:
            return False
    return True
